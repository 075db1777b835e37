open Xmlb
module SC = Xquery.Static_context
module I = Xdm_item

let namespace = Qname.Ns.browser

(* Live materialized views, newest first: the ones [browser:document]
   resolves window elements against. Older views are released (they
   stop writing back); every view dies with the page's context. *)
type state = { mutable views : Windows.view list }

let max_live_views = 8

let push_view st v =
  st.views <- v :: st.views;
  let rec trim i = function
    | [] -> []
    | v :: rest ->
        if i >= max_live_views then begin
          Windows.release v;
          trim (i + 1) rest
        end
        else v :: trim (i + 1) rest
  in
  st.views <- trim 1 st.views

let err fmt = Xquery.Xq_error.raise_error Xquery.Xq_error.security fmt

let install (b : Browser.t) (window : Windows.t) sctx =
  SC.declare_namespace sctx ~prefix:"browser" ~uri:namespace;
  SC.block_function sctx ~uri:Qname.Ns.fn ~local:"doc";
  SC.block_function sctx ~uri:Qname.Ns.fn ~local:"put";
  let st = { views = [] } in
  let accessor () = Windows.origin window in
  let materialize_top () =
    let v =
      Windows.materialize ~policy:b.Browser.policy
        ~on_navigate:(fun w href -> b.Browser.on_navigate w href)
        ~accessor:(accessor ())
        (Windows.top window)
    in
    push_view st v;
    v
  in
  let register local arity f =
    SC.register_external sctx (Qname.make ~uri:namespace local) ~arity f
  in
  let str args n = I.sequence_string (List.nth args n) in

  register "top" 0 (fun _ _ ->
      [ I.Node (Windows.view_root (materialize_top ())) ]);
  register "self" 0 (fun _ _ ->
      let v = materialize_top () in
      match Windows.node_of_window v window with
      | Some n -> [ I.Node n ]
      | None -> []);
  register "document" 1 (fun _ args ->
      match List.nth args 0 with
      | [ I.Node n ] -> (
          (* exact-node lookup: a cross-origin <window/> shell is not
             registered, and must not fall back to an enclosing
             accessible window *)
          let found =
            List.find_map (fun v -> Windows.window_at v n) st.views
          in
          match found with
          | Some w
            when Origin.allows b.Browser.policy ~accessor:(accessor ())
                   ~target:(Windows.origin w) ->
              [ I.Node w.Windows.document ]
          | Some _ | None -> [])
      | _ -> []);
  register "screen" 0 (fun _ _ -> [ I.Node (Bom.screen_to_xml b.Browser.screen) ]);
  register "navigator" 0 (fun _ _ ->
      [ I.Node (Bom.navigator_to_xml b.Browser.navigator) ]);

  (* dialogs *)
  register "alert" 1 (fun _ args ->
      b.Browser.alerts <- str args 0 :: b.Browser.alerts;
      []);
  register "prompt" 1 (fun _ _ ->
      [ I.Atomic (Xdm_atomic.String b.Browser.prompt_response) ]);
  register "confirm" 1 (fun _ _ ->
      [ I.Atomic (Xdm_atomic.Boolean b.Browser.confirm_response) ]);

  (* window functions *)
  register "windowOpen" 1 (fun _ args ->
      let href = str args 0 in
      let w =
        Windows.create
          ~name:(Printf.sprintf "window_%d" (List.length (Windows.top window).Windows.frames + 1))
          ~href ()
      in
      Windows.add_frame ~parent:(Windows.top window) w;
      b.Browser.on_navigate w href;
      let v = materialize_top () in
      match Windows.node_of_window v w with
      | Some n -> [ I.Node n ]
      | None -> []);
  register "windowClose" 1 (fun _ args ->
      (match List.nth args 0 with
      | [ I.Node n ] -> (
          match List.find_map (fun v -> Windows.window_of_node v n) st.views with
          | Some w ->
              w.Windows.closed <- true;
              Windows.remove_frame w
          | None -> err "windowClose: not a window node")
      | _ -> err "windowClose expects a window node");
      []);
  let window_of_arg args =
    match List.nth args 0 with
    | [ I.Node n ] -> List.find_map (fun v -> Windows.window_at v n) st.views
    | _ -> None
  in
  let int_arg args n =
    match I.opt_atomic (List.nth args n) with
    | Some a -> (
        match Xdm_atomic.cast ~target:Xdm_atomic.T_integer a with
        | Xdm_atomic.Integer i -> i
        | _ -> 0)
    | None -> 0
  in
  register "windowMoveBy" 3 (fun _ args ->
      (match window_of_arg args with
      | Some w -> Windows.move_by w ~dx:(int_arg args 1) ~dy:(int_arg args 2)
      | None -> err "windowMoveBy: not a window node");
      []);
  register "windowMoveTo" 3 (fun _ args ->
      (match window_of_arg args with
      | Some w -> Windows.move_to w ~x:(int_arg args 1) ~y:(int_arg args 2)
      | None -> err "windowMoveTo: not a window node");
      []);

  (* history *)
  register "historyBack" 0 (fun _ _ ->
      Windows.history_back window;
      b.Browser.on_navigate window window.Windows.href;
      []);
  register "historyForward" 0 (fun _ _ ->
      Windows.history_forward window;
      b.Browser.on_navigate window window.Windows.href;
      []);
  register "historyGo" 1 (fun _ args ->
      (match I.opt_atomic (List.nth args 0) with
      | Some (Xdm_atomic.Integer n) ->
          Windows.history_go window n;
          b.Browser.on_navigate window window.Windows.href
      | _ -> err "historyGo expects an integer");
      []);

  (* client-side persistent storage (the Gears analogue, §2.4):
     per-origin, survives page loads, works offline *)
  register "storePut" 2 (fun _ args ->
      let name = str args 0 in
      (match List.nth args 1 with
      | [ I.Node n ] ->
          Local_store.put b.Browser.local_store ~origin:(accessor ()) ~name
            (Dom.clone n)
      | seq ->
          Local_store.put b.Browser.local_store ~origin:(accessor ()) ~name
            (Dom.of_string
               ("<value>" ^ Xml_escape.text (I.sequence_string seq) ^ "</value>")));
      []);
  register "storeGet" 1 (fun _ args ->
      match
        Local_store.get b.Browser.local_store ~origin:(accessor ()) ~name:(str args 0)
      with
      | Some doc -> [ I.Node doc ]
      | None -> []);
  register "storeDelete" 1 (fun _ args ->
      [
        I.Atomic
          (Xdm_atomic.Boolean
             (Local_store.delete b.Browser.local_store ~origin:(accessor ())
                ~name:(str args 0)));
      ]);
  register "storeList" 0 (fun _ _ ->
      List.map
        (fun name -> I.Atomic (Xdm_atomic.String name))
        (Local_store.list b.Browser.local_store ~origin:(accessor ())));
  register "online" 0 (fun _ _ ->
      [ I.Atomic (Xdm_atomic.Boolean b.Browser.online) ]);

  (* engine observability: a snapshot of the metrics registry as XML,
     so page code and tests can introspect performance counters with
     ordinary XPath (e.g. browser:stats()//counter[@name='eval.steps']) *)
  register "stats" 0 (fun _ _ ->
      let attr node name v = Dom.set_attribute node (Qname.make name) v in
      let root = Dom.create_element (Qname.make "stats") in
      attr root "virtual-time"
        (Printf.sprintf "%.6f" (Virtual_clock.now b.Browser.clock));
      attr root "metrics-enabled" (string_of_bool !Obs.Metrics.enabled);
      attr root "trace-enabled" (string_of_bool !Obs.Trace.enabled);
      attr root "value-index-enabled" (string_of_bool (Dom.value_index_enabled ()));
      attr root "join-planning-enabled"
        (string_of_bool (Xquery.Optimizer.join_planning_enabled ()));
      attr root "compiled-eval-enabled"
        (string_of_bool (Xquery.Engine.compiled_eval_enabled ()));
      attr root "incremental-enabled"
        (string_of_bool (Xquery.Reactive.active ()));
      attr root "interning-enabled"
        (string_of_bool (Dom.interned_fastpaths_enabled ()));
      let counters = Dom.create_element (Qname.make "counters") in
      Dom.append_child ~parent:root counters;
      List.iter
        (fun (name, v) ->
          let c = Dom.create_element (Qname.make "counter") in
          attr c "name" name;
          attr c "value" (string_of_int v);
          Dom.append_child ~parent:counters c)
        (Obs.Metrics.counters ());
      let hists = Dom.create_element (Qname.make "histograms") in
      Dom.append_child ~parent:root hists;
      List.iter
        (fun (name, h) ->
          let e = Dom.create_element (Qname.make "histogram") in
          attr e "name" name;
          attr e "count" (string_of_int h.Obs.Metrics.count);
          attr e "sum" (Printf.sprintf "%.9g" h.Obs.Metrics.sum);
          attr e "min" (Printf.sprintf "%.9g" h.Obs.Metrics.min);
          attr e "max" (Printf.sprintf "%.9g" h.Obs.Metrics.max);
          Dom.append_child ~parent:hists e)
        (Obs.Metrics.histograms ());
      let spans = Dom.create_element (Qname.make "spans") in
      attr spans "roots" (string_of_int (List.length (Obs.Trace.roots ())));
      attr spans "dropped" (string_of_int (Obs.Trace.dropped ()));
      Dom.append_child ~parent:root spans;
      let qc = Dom.create_element (Qname.make "query-cache") in
      let s = Xquery.Query_cache.stats Xquery.Engine.query_cache in
      attr qc "enabled" (string_of_bool !Xquery.Query_cache.enabled);
      attr qc "hits" (string_of_int s.Xquery.Query_cache.hits);
      attr qc "misses" (string_of_int s.Xquery.Query_cache.misses);
      attr qc "evictions" (string_of_int s.Xquery.Query_cache.evictions);
      attr qc "entries" (string_of_int s.Xquery.Query_cache.entries);
      attr qc "generation"
        (string_of_int (Xquery.Query_cache.generation Xquery.Engine.query_cache));
      attr qc "cost-saved" (string_of_int s.Xquery.Query_cache.cost_saved);
      Dom.append_child ~parent:root qc;
      let ce = Dom.create_element (Qname.make "compile") in
      List.iter
        (fun (name, v) -> attr ce name (string_of_int v))
        (Xquery.Compile.stats ());
      Dom.append_child ~parent:root ce;
      let st = Dom.create_element (Qname.make "streaming") in
      attr st "enabled" (string_of_bool (Xquery.Eval.streaming_enabled ()));
      attr st "pulls"
        (string_of_int (Obs.Metrics.counter Xdm_seq.pulls_metric));
      attr st "materializations"
        (string_of_int (Obs.Metrics.counter Xdm_seq.materialize_metric));
      Dom.append_child ~parent:root st;
      let re = Dom.create_element (Qname.make "reactive") in
      attr re "enabled" (string_of_bool (Xquery.Reactive.active ()));
      attr re "listeners" (string_of_int (Xquery.Reactive.table_size ()));
      List.iter
        (fun (name, v) -> attr re name (string_of_int v))
        (Xquery.Reactive.counter_stats ());
      Dom.append_child ~parent:root re;
      let sy = Dom.create_element (Qname.make "sym") in
      attr sy "enabled" (string_of_bool (Dom.interned_fastpaths_enabled ()));
      List.iter
        (fun (name, v) -> attr sy name (string_of_int v))
        (Xmlb.Sym.stats ());
      Dom.append_child ~parent:root sy;
      [ I.Node root ]);

  (* document write (the paper notes best practice is XDM updates) *)
  let body_of_document () =
    let doc = window.Windows.document in
    match Dom.get_elements_by_local_name doc "body" with
    | body :: _ -> body
    | [] -> (
        match Dom.children doc with
        | root :: _ -> root
        | [] ->
            let html = Dom.create_element (Qname.make "html") in
            Dom.append_child ~parent:doc html;
            html)
  in
  register "write" 1 (fun _ args ->
      Dom.append_child ~parent:(body_of_document ()) (Dom.create_text (str args 0));
      []);
  register "writeln" 1 (fun _ args ->
      let body = body_of_document () in
      Dom.append_child ~parent:body (Dom.create_text (str args 0));
      Dom.append_child ~parent:body (Dom.create_element (Qname.make "br"));
      [])
