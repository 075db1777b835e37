(* interact: one long-lived page of a few thousand rows in several
   regions, driven by a seeded event stream; each event is followed by
   Browser.render. Dispatch, PUL apply, reactive skip decisions and
   re-render do the work; there is no parse and no compile after
   set-up.

   About 60% of events are "tick"s to a region's pure aggregate
   listener, which reactive dispatch may skip when the region is
   untouched; about 30% are clicks on updating listeners that append a
   row to a region (and an item to the cart) or delete a region's first
   row (and the cart's first item); about 10% are keystrokes into a
   filtering onkeyup handler. The generator keeps every region within
   [slack] rows of its size at set-up and the cart within [0, max_cart] items,
   so page size, and with it latency, is stationary. The benchmark
   keeps its own model of the rows and the cart and checks region
   totals, cart contents and filter counts against it. *)

open Common
module B = Xqib.Browser
module P = Xqib.Page

let steps_per_second = 450
let regions = 8
let base_rows = 300
let slack = 4
let max_cart = 40

let script =
  {|declare function local:agg($evt, $obj) { sum($obj/row/xs:integer(@p)) };
declare updating function local:add($evt, $obj) {
  let $r := $obj/..
  let $p := (count($r/row) * 7 + xs:integer($r/@k)) mod 100
  return (
    insert node <row p="{$p}"/> as last into $r,
    insert node <li>{$p}</li> as last into //ul[@id="cart"],
    replace value of node $r/total with xs:integer($r/total) + $p)
};
declare updating function local:del($evt, $obj) {
  let $r := $obj/..
  let $first := ($r/row)[1]
  return (
    delete node $first,
    delete node (//ul[@id="cart"]/li)[1],
    replace value of node $r/total with xs:integer($r/total) - xs:integer($first/@p))
};
declare updating function local:filter($v) {
  replace value of node //span[@id="hits"] with count(//row[starts-with(@p, $v)])
};
(
  on event "tick" at //div[@class="region"] attach listener local:agg,
  on event "onclick" at //button[@class="add"] attach listener local:add,
  on event "onclick" at //button[@class="del"] attach listener local:del
)|}

(* the page's main query: the grand total, checked against the model *)
let eval_query = {|sum(//div[@class="region"]/total/xs:integer(.))|}

type event = Tick of int | Add of int | Del of int | Key of string

type model = { rows : int Queue.t array; totals : int array; cart : int Queue.t }

type t = {
  seed : int;
  base : int;  (** rows per region at set-up *)
  html : string;
  b : B.t;
  model : model;
  r : rng;  (** the event stream *)
  ticks : Dom.node array;
  adds : Dom.node array;
  dels : Dom.node array;
  input : Dom.node;
  (* traced-run samples *)
  mutable eval : float list;
  mutable kinds : (int * event) list;  (** op -> event, for load_drift *)
}

let page_html rows =
  let buf = Buffer.create (regions * base_rows * 16) in
  Printf.bprintf buf
    {|<html><head><script type="text/xquery">%s</script></head><body><input id="q" value="" onkeyup="local:filter(value)"/><span id="hits">0</span><ul id="cart"></ul>|}
    script;
  Array.iteri
    (fun k q ->
      Printf.bprintf buf
        {|<div class="region" id="r%d" k="%d"><button class="add" id="a%d">+</button><button class="del" id="d%d">-</button><total>%d</total>|}
        k k k k (Queue.fold ( + ) 0 q);
      Queue.iter (fun p -> Printf.bprintf buf {|<row p="%d"/>|} p) q;
      Buffer.add_string buf "</div>")
    rows;
  Buffer.add_string buf "</body></html>";
  Buffer.contents buf

let by_id b id = Option.get (Dom.get_element_by_id (B.document b) id)

let setup_with ~seed ~rows_per =
  let r = rng seed in
  let rows =
    Array.init regions (fun _ ->
        let q = Queue.create () in
        for _ = 1 to rows_per do
          Queue.add (int r 100) q
        done;
        q)
  in
  let html = page_html rows in
  let b = B.create () in
  P.load b html;
  ignore (B.render b);
  (match b.B.script_errors with
  | [] -> ()
  | e :: _ -> failwith ("interact page failed to load: " ^ e));
  let ids f = Array.init regions (fun k -> by_id b (f k)) in
  {
    seed; base = rows_per; html; b; r;
    model = { rows; totals = Array.map (Queue.fold ( + ) 0) rows; cart = Queue.create () };
    ticks = ids (Printf.sprintf "r%d");
    adds = ids (Printf.sprintf "a%d");
    dels = ids (Printf.sprintf "d%d");
    input = by_id b "q";
    eval = []; kinds = [];
  }

(* the next event; writes are steered to keep sizes stationary *)
let next_event t =
  let u = float t.r and k = int t.r regions in
  let m = t.model in
  if u < 0.6 then Tick k
  else if u < 0.9 then begin
    let can_add k = Queue.length m.rows.(k) < t.base + slack && Queue.length m.cart < max_cart in
    let can_del k = Queue.length m.rows.(k) > t.base - slack && Queue.length m.cart > 0 in
    let want_add = int t.r 2 = 0 in
    let rec pick j =
      let k = (k + j) mod regions in
      if want_add && can_add k then Add k
      else if can_del k then Del k
      else if can_add k then Add k
      else pick (j + 1)
    in
    pick 0
  end
  else if int t.r 2 = 0 then Key (string_of_int (int t.r 10))
  else Key (string_of_int (10 + int t.r 90))

(* apply an event to the model; returns the check to run after the
   program handled it *)
let model_step t ev =
  let m = t.model in
  let check_region k =
    let total = List.hd (Dom.get_elements_by_local_name t.ticks.(k) "total") in
    expect (Printf.sprintf "region %d total" k) ~expected:(string_of_int m.totals.(k))
      ~actual:(Dom.string_value total)
    + expect (Printf.sprintf "region %d rows" k)
        ~expected:(string_of_int (Queue.length m.rows.(k)))
        ~actual:(string_of_int (List.length (Dom.get_elements_by_local_name t.ticks.(k) "row")))
  in
  let check_cart () =
    let items = Dom.get_elements_by_local_name (by_id t.b "cart") "li" in
    expect "cart" ~expected:(String.concat "," (List.map string_of_int (List.of_seq (Queue.to_seq m.cart))))
      ~actual:(String.concat "," (List.map Dom.string_value items))
  in
  match ev with
  | Tick _ -> fun () -> 0
  | Add k ->
      let p = ((Queue.length m.rows.(k) * 7) + k) mod 100 in
      Queue.add p m.rows.(k);
      Queue.add p m.cart;
      m.totals.(k) <- m.totals.(k) + p;
      fun () -> check_region k + check_cart ()
  | Del k ->
      let p = Queue.pop m.rows.(k) in
      ignore (Queue.pop m.cart);
      m.totals.(k) <- m.totals.(k) - p;
      fun () -> check_region k + check_cart ()
  | Key v ->
      let hits =
        Array.fold_left
          (fun acc q ->
            Queue.fold
              (fun acc p ->
                let s = string_of_int p in
                if String.length s >= String.length v && String.sub s 0 (String.length v) = v
                then acc + 1
                else acc)
              acc q)
          0 m.rows
      in
      fun () ->
        expect "filter hits" ~expected:(string_of_int hits)
          ~actual:(text_of_id (B.document t.b) "hits")

let value_qn = Xmlb.Qname.make "value"

(* the timed part of an event: dispatch, then render, each run through
   [span] with its layer name *)
let fire t ev ~(span : string -> (unit -> unit) -> unit) =
  (match ev with
  | Tick k -> span "core.dispatch_read" (fun () -> B.dispatch t.b ~target:t.ticks.(k) "tick")
  | Add k -> span "core.dispatch_write" (fun () -> B.click t.b t.adds.(k))
  | Del k -> span "core.dispatch_write" (fun () -> B.click t.b t.dels.(k))
  | Key v ->
      (* the keystroke that leaves [v] in the box *)
      let n = String.length v in
      Dom.set_attribute t.input value_qn (String.sub v 0 (n - 1));
      span "core.dispatch_write" (fun () -> B.type_text t.b t.input (String.sub v (n - 1) 1)));
  span "core.render" (fun () -> ignore (B.render t.b))

let no_span _ f = f ()

let errors_since t n =
  let now = List.length t.b.B.script_errors in
  if now > n then (complain "interact script error: %s" (List.hd t.b.B.script_errors); 1) else 0

let setup ~seed =
  let t = setup_with ~seed ~rows_per:base_rows in
  (* warm up on an event stream of its own, the same for every seed so
     that set-up does the same work; checked like the real one *)
  let warm = { t with r = rng 99_991 } in
  for _ = 1 to 200 do
    let ev = next_event warm in
    let check = model_step warm ev in
    fire warm ev ~span:no_span;
    if check () > 0 then failwith "interact warm-up produced a wrong page"
  done;
  t

let prepare t i =
  let ev = next_event t in
  t.kinds <- (i, ev) :: t.kinds;
  let check = model_step t ev in
  let errors0 = List.length t.b.B.script_errors in
  let run ~traced () =
    fire t ev ~span:(if traced then Spans.with_span else no_span);
    fun () ->
      let bad = check () + errors_since t errors0 in
      if traced && i mod 10 = 1 then begin
        let result, s = timed (fun () -> P.run_xquery t.b t.b.B.top_window eval_query) in
        t.eval <- s :: t.eval;
        bad
        + expect "interact grand total"
            ~expected:(string_of_int (Array.fold_left ( + ) 0 t.model.totals))
            ~actual:(Xdm_item.sequence_string result)
      end
      else bad
  in
  (1, run)

(** Dispatch and render timings on a small copy of this workload's page,
    for a workload whose own ops dispatch no events. *)
let dispatch_probe ~seed : metric list =
  let t = setup_with ~seed ~rows_per:(base_rows / 4) in
  let times = Hashtbl.create 4 in
  let span name f =
    let (), s = timed f in
    Hashtbl.replace times name (s :: Option.value ~default:[] (Hashtbl.find_opt times name))
  in
  for _ = 1 to 200 do
    let ev = next_event t in
    let check = model_step t ev in
    fire t ev ~span;
    if check () > 0 then failwith "dispatch probe produced a wrong page"
  done;
  List.map
    (fun name -> (name ^ "_ms", ms (mean (Hashtbl.find times name)), "ms"))
    [ "core.dispatch_read"; "core.dispatch_write"; "core.render" ]

(** Parse, build, compile and load of this workload's page, which its
    set-up pays; medians of three. *)
let probe t : metric list =
  let reps f = median (List.init 3 (fun _ -> snd (timed f))) in
  let trees = Xmlb.Xml_parser.parse t.html in
  let parse_s = reps (fun () -> Xmlb.Xml_parser.parse t.html) in
  let build_s = reps (fun () -> Dom.of_tree trees) in
  let load_s = reps (fun () -> P.load (B.create ()) t.html) in
  [
    ("xmlb.parse_ms", ms parse_s, "ms");
    ("xmlb.parse_ns_per_byte", ratio (parse_s *. 1e9) (float_of_int (String.length t.html)), "ns/B");
    ("dom.build_ms", ms build_s, "ms");
    ("xquery.compile_ms", ms (reps (fun () -> Xquery.Engine.compile script)), "ms");
    ("core.script_ms", ms (Float.max 0. (load_s -. parse_s -. build_s)), "ms");
  ]

let layers t ~untraced : metric list =
  let kinds = Hashtbl.create 1024 in
  List.iter (fun (i, ev) -> Hashtbl.replace kinds i ev) t.kinds;
  let tick_latencies =
    List.filter_map
      (fun (i, s) -> match Hashtbl.find_opt kinds i with Some (Tick _) -> Some s | _ -> None)
      untraced
  in
  [
    ("dom.load_drift", drift tick_latencies, "ratio");
    ("xquery.eval_ms", ms (mean t.eval), "ms");
    ("core.dispatch_read_ms", ms (mean (Spans.durations "core.dispatch_read")), "ms");
    ("core.dispatch_write_ms", ms (mean (Spans.durations "core.dispatch_write")), "ms");
    ("core.render_ms", ms (mean (Spans.durations "core.render")), "ms");
  ]
