open Xmlb
module SC = Xquery.Static_context
module DC = Xquery.Dynamic_context

type script_engine =
  Browser.t -> Windows.t -> script_element:Dom.node -> source:string -> unit

let engines : (string, script_engine) Hashtbl.t = Hashtbl.create 4

let register_script_engine ~script_type engine =
  Hashtbl.replace engines (String.lowercase_ascii script_type) engine

type options = {
  execution_order : [ `Js_first | `Document_order ];
  run_inline_handlers : bool;
}

let default_options = { execution_order = `Js_first; run_inline_handlers = true }

let xquery_context window =
  Option.map (fun (st : Windows.page) -> st.ctx) window.Windows.page

let fresh_state (b : Browser.t) window =
  let static = Xquery.Engine.default_static () in
  Browser_functions.install b window static;
  Rest.install b.Browser.rest static;
  SC.set_module_resolver static
    (Web_service.module_resolver ~retry:b.Browser.retry ~prng:b.Browser.net_prng
       b.Browser.http);
  let host = Browser.host_for b window in
  let ctx = DC.create ~host static in
  let ctx =
    DC.with_focus ctx (Xdm_item.Node window.Windows.document) ~position:1 ~size:1
  in
  let st = { Windows.static; ctx } in
  (* The higher-order-function fallback of the paper's §5.1 ("as Zorba
     does not allow to modify the XQuery grammar, we use high-order
     functions to bind events and handle styles instead of the syntax
     suggested in this paper"). Both styles coexist here; the T5 bench
     compares them. *)
  let resolve_listener args n =
    let name = Xdm_item.sequence_string (List.nth args n) in
    let qn = Qname.of_string name in
    let qn =
      match qn.Qname.prefix with
      | None -> Qname.with_uri qn (Some Qname.Ns.local)
      | Some p -> (
          match Qname.Env.lookup (SC.ns_env static) p with
          | Some uri -> Qname.with_uri qn (Some uri)
          | None -> qn)
    in
    qn
  in
  let register local arity f =
    SC.register_external static
      (Qname.make ~uri:Browser_functions.namespace local)
      ~arity f
  in
  register "addEventListener" 3 (fun _ args ->
      let targets = List.nth args 0 in
      let event_type = Xdm_item.sequence_string (List.nth args 1) in
      let listener = Xquery.Eval.make_listener st.ctx (resolve_listener args 2) in
      host.DC.attach ~event_type ~targets ~listener;
      []);
  register "removeEventListener" 3 (fun _ args ->
      let targets = List.nth args 0 in
      let event_type = Xdm_item.sequence_string (List.nth args 1) in
      host.DC.detach ~event_type ~targets ~name:(resolve_listener args 2);
      []);
  register "dispatchEvent" 2 (fun _ args ->
      let targets = List.nth args 0 in
      let event_type = Xdm_item.sequence_string (List.nth args 1) in
      host.DC.trigger ~event_type ~targets;
      []);
  register "setStyle" 3 (fun _ args ->
      let prop = Xdm_item.sequence_string (List.nth args 1) in
      let v = Xdm_item.sequence_string (List.nth args 2) in
      List.iter
        (function
          | Xdm_item.Node n -> host.DC.set_style n prop v
          | Xdm_item.Atomic _ -> ())
        (List.nth args 0);
      []);
  (* deferred execution on the event loop — the Gears-style background
     work the paper contrasts with (§2.4 mentions threading); the named
     function runs as its own task after [delay] virtual milliseconds *)
  register "setTimeout" 2 (fun _ args ->
      let listener = Xquery.Eval.make_listener st.ctx (resolve_listener args 0) in
      let delay = 
        match Xdm_item.opt_atomic (List.nth args 1) with
        | Some a -> (
            match Xdm_atomic.cast ~target:Xdm_atomic.T_double a with
            | Xdm_atomic.Double f -> f /. 1000.
            | _ -> 0.)
        | None -> 0.
      in
      Virtual_clock.schedule b.Browser.clock ~delay (fun () ->
          listener.DC.invoke (fun () -> []));
      []);
  register "getStyle" 2 (fun _ args ->
      let prop = Xdm_item.sequence_string (List.nth args 1) in
      match List.nth args 0 with
      | Xdm_item.Node n :: _ -> (
          match host.DC.get_style n prop with
          | Some v -> [ Xdm_item.Atomic (Xdm_atomic.String v) ]
          | None -> [])
      | _ -> []);
  window.Windows.page <- Some st;
  st

let state_for b window =
  match window.Windows.page with
  | Some st -> st
  | None -> fresh_state b window

let traced ?attrs name f =
  if !Obs.Trace.enabled then Obs.Trace.with_span ?attrs name f else f ()

(* run one XQuery script source in the window's page context *)
let run_xquery_source b window source =
  traced "page.script" @@ fun () ->
  let st = state_for b window in
  let compiled = Xquery.Engine.compile_cached ~static:st.static source in
  (* install this script's closure-compiled functions before anything
     can call them (global initializers, the body, later event
     listeners): {!Xquery.Eval.call_function} dispatches user calls
     through the context's table, so per-event listener invocations
     run compiled code *)
  (match compiled.Xquery.Engine.code with
  | Some code when Xquery.Engine.compiled_eval_enabled () ->
      List.iter
        (fun (key, impl) ->
          Hashtbl.replace st.ctx.DC.compiled_fns key impl)
        code.Xquery.Compile.fns
  | _ -> ());
  (* refresh globals declared by this script's prolog *)
  List.iter
    (fun (qn, sty, init) ->
      match init with
      | Some e ->
          let v = Xquery.Eval.eval st.ctx e in
          let v =
            match sty with
            | Some sty ->
                Xquery.Seq_type.coerce ~what:("$" ^ Qname.to_string qn) sty v
            | None -> v
          in
          DC.bind_global st.ctx qn v
      | None -> ())
    (SC.global_variables st.static);
  let result =
    traced "engine.eval" @@ fun () ->
    match compiled.Xquery.Engine.prog.Xquery.Ast.body with
    | Some body -> (
        let eval_body () =
          match compiled.Xquery.Engine.code with
          | Some { Xquery.Compile.body = Some f; _ }
            when Xquery.Engine.compiled_eval_enabled () ->
              f st.ctx
          | _ -> Xquery.Eval.eval st.ctx body
        in
        try Xquery.Eval.protect eval_body
        with Xquery.Eval.Exit_with v -> v)
    | None -> (
        (* Zorba workaround fidelity (§5.1): page code with no body
           runs local:main() when the page is loaded, if declared *)
        let main = Qname.make ~uri:Qname.Ns.local "main" in
        match SC.find_function st.static main ~arity:0 with
        | Some _ -> (
            try Xquery.Eval.protect (fun () -> Xquery.Eval.call_function st.ctx main [])
            with Xquery.Eval.Exit_with v -> v)
        | None -> [])
  in
  Xquery.Pul.apply st.ctx.DC.pul;
  result

let run_xquery = run_xquery_source

(* ---------------- inline on* handlers ---------------- *)

(* The paper's §4.4 example writes onkeyup="local:showHint(value)"
   where [value] means the control's current value. We compile handler
   attributes as XQuery with the element as context item, after a
   textual shim replacing the bare token [value] with [data(@value)]. *)
let inline_providers :
    (Browser.t ->
    Windows.t ->
    element:Dom.node ->
    event_type:string ->
    source:string ->
    bool)
    list
    ref =
  ref []

let register_inline_handler_provider p = inline_providers := !inline_providers @ [ p ]

let value_token = Str.regexp "\\([^-A-Za-z0-9_$@/:.]\\|^\\)value\\([^-A-Za-z0-9_(]\\|$\\)"

let shim_handler_source src =
  Str.global_replace value_token "\\1data(@value)\\2" src

let wire_inline_handlers b window =
  let st = state_for b window in
  let doc = window.Windows.document in
  let elements =
    List.filter (fun n -> Dom.kind n = Dom.Element) (Dom.descendants doc)
  in
  List.iter
    (fun el ->
      List.iter
        (fun attr ->
          match (Dom.name attr, Dom.value attr) with
          | Some { Qname.local; _ }, Some source
            when String.length local > 2
                 && String.lowercase_ascii (String.sub local 0 2) = "on"
                 && String.length (String.trim source) > 0 -> (
              let event_type = String.lowercase_ascii local in
              if
                List.exists
                  (fun p -> p b window ~element:el ~event_type ~source)
                  !inline_providers
              then ()
              else
              let src = shim_handler_source source in
              match Xquery.Parser.parse_expression st.static src with
              | expr ->
                  ignore
                    (Dom_event.add_listener el ~event_type
                       ~name:("inline:" ^ string_of_int (Dom.id el) ^ ":" ^ event_type)
                       (fun _e ->
                         let ctx =
                           DC.with_focus st.ctx (Xdm_item.Node el) ~position:1
                             ~size:1
                         in
                         (try
                            ignore
                              (Xquery.Eval.protect (fun () ->
                                   Xquery.Eval.eval ctx expr))
                          with Xquery.Eval.Exit_with _ -> ());
                         Xquery.Pul.apply st.ctx.DC.pul))
              | exception _ ->
                  (* not XQuery (e.g. legacy JS snippet with no JS
                     engine loaded): ignore, like an unknown language *)
                  ())
          | _ -> ())
        (Dom.attributes el))
    elements

(* ---------------- page loading ---------------- *)

(* page fetches go through the browser's resilience policy: on a flaky
   network a navigation is retried with backoff before giving up *)
let fetch_page (b : Browser.t) uri =
  Retry.fetch ~policy:b.Browser.retry ~prng:b.Browser.net_prng
    ~stats:b.Browser.net_stats b.Browser.http uri

let script_elements doc =
  List.filter
    (fun n ->
      Dom.kind n = Dom.Element
      &&
      match Dom.name n with
      | Some { Qname.local; _ } -> String.lowercase_ascii local = "script"
      | None -> false)
    (Dom.descendants doc)

let script_type el =
  String.lowercase_ascii
    (Option.value ~default:"text/javascript" (Dom.attribute_local el "type"))

let script_source el = Dom.string_value el

let is_xquery_type ty = ty = "text/xquery" || ty = "text/xqueryp" || ty = "application/xquery"

let run_script b window el =
  let ty = script_type el in
  let source = script_source el in
  let record_error m =
    (* a failing script logs to the error console and the page keeps
       loading, as in a real browser *)
    b.Browser.script_errors <- m :: b.Browser.script_errors
  in
  if String.trim source = "" then ()
  else if is_xquery_type ty then (
    try ignore (run_xquery_source b window source)
    with Xquery.Xq_error.Error e ->
      record_error (Xquery.Xq_error.to_string e))
  else
    match Hashtbl.find_opt engines ty with
    | Some engine -> (
        try engine b window ~script_element:el ~source
        with exn -> record_error (Printexc.to_string exn))
    | None ->
        Logs.debug (fun m -> m "no script engine for %S; script skipped" ty)

let rec load ?(options = default_options) ?window (b : Browser.t) html =
  traced "page.load" @@ fun () ->
  let window = match window with Some w -> w | None -> b.Browser.top_window in
  (* navigations triggered from scripts re-enter the loader *)
  b.Browser.on_navigate <-
    (fun w href ->
      let resp = fetch_page b href in
      if resp.Http_sim.status = 200 then load ~options ~window:w b resp.Http_sim.body);
  window.Windows.page <- None;
  let parse_options =
    {
      Xml_parser.default_options with
      Xml_parser.uppercase_tags = b.Browser.uppercase_tags;
    }
  in
  let doc =
    traced "page.parse-html" (fun () ->
        Dom.of_tree (Xml_parser.parse ~options:parse_options html))
  in
  Browser.set_document b window doc;
  let scripts = script_elements doc in
  let ordered =
    match options.execution_order with
    | `Document_order -> scripts
    | `Js_first ->
        let js, rest =
          List.partition (fun el -> not (is_xquery_type (script_type el))) scripts
        in
        js @ rest
  in
  List.iter (run_script b window) ordered;
  if options.run_inline_handlers then wire_inline_handlers b window

and browse ?options ?window (b : Browser.t) uri =
  traced ~attrs:[ ("uri", uri) ] "page.browse" @@ fun () ->
  let window = match window with Some w -> w | None -> b.Browser.top_window in
  Windows.navigate window uri;
  let resp = fetch_page b uri in
  if resp.Http_sim.status <> 200 then
    Xquery.Xq_error.raise_error "SEBR0404" "cannot load %s: status %d" uri
      resp.Http_sim.status
  else load ?options ~window b resp.Http_sim.body
