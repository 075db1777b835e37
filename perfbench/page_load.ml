(* page-load: a seeded sequence of fresh Browser.create -> Page.load ->
   first Browser.render ops. Parse, DOM build and compile do most of
   the work; one process creates many browsers, so lifetime costs
   (leaked observers, a growing heap) show as drift.

   Pages come from a pool of bodies whose row counts are the midpoints
   of [pool_size] equal log-steps from [min_rows] to [max_rows], cycled
   in a fixed order; the seed sets their values and the scripts, so
   every seed sees the same sizes at the same points of the run (the
   largest pages set the tail latency). Half the loads use one of four
   popular scripts (compile-cache hits after the first load); the other
   half use a script drawn from a million variants, nearly always a
   miss. Each script writes "count sum" of the rows whose value reaches
   its threshold into #summary, which the benchmark checks against the
   values it generated. *)

open Common
module B = Xqib.Browser
module P = Xqib.Page

let min_rows = 100
let max_rows = 4000
(* odd, so that the traced (odd) ops of a run cover every body *)
let pool_size = 55

(* at 10 s a run is six whole cycles of the pool *)
let steps_per_second = 33
let size_classes = 4

type body = {
  rows : int;
  html : string;  (** everything after </head> *)
  cnt_ge : int array;  (** rows with value >= t, for t in 0..100 *)
  sum_ge : int array;
  size_class : int;
}

type script = { key : string; source : string; threshold : int }

type t = {
  seed : int;
  bodies : body array;
  compile_s : (string, float) Hashtbl.t;  (** cold compile time per script *)
  (* traced-run samples *)
  mutable parse : (float * int) list;  (** seconds, bytes *)
  mutable build : (float * body) list;
  mutable eval : float list;
  mutable read : float list;
  mutable write : float list;
  mutable traced_ops : int;
}

let summary_exprs =
  [|
    {|concat(count(//tr[@v >= $t]), " ", sum(//tr[@v >= $t]/xs:integer(@v)))|};
    {|let $r := //tr[xs:integer(@v) ge $t] return concat(count($r), " ", sum(for $x in $r return xs:integer($x/@v)))|};
    {|string-join((string(count(//table/tr[@v >= $t])), string(sum(for $v in //table/tr/@v where xs:integer($v) ge $t return xs:integer($v)))), " ")|};
    {|let $v := for $r in //tr let $x := xs:integer($r/@v) where $x >= $t return $x return concat(count($v), " ", sum($v))|};
  |]

let script_source ~shape ~threshold ~suffix =
  Printf.sprintf
    {|declare variable $t := %d;
declare function local:more%s($evt, $obj) { count($obj/ancestor::body//tr) };
declare updating function local:mark%s($evt, $obj) { insert node <mark/> into $obj };
(
  on event "onclick" at //button[@id="more"] attach listener local:more%s,
  on event "onclick" at //button[@id="mark"] attach listener local:mark%s,
  replace value of node //p[@id="summary"] with %s
)|}
    threshold suffix suffix suffix suffix summary_exprs.(shape)

let popular_thresholds = [| 10; 30; 50; 70 |]

(* op i's script: summary shape [i / 2 mod 4], the same on every seed
   (the shapes differ in cost) and the same mix on even and odd ops
   (traced runs trace the odd ones); the seed picks a popular script
   (the shape's fixed threshold) or a variant keyed by a draw from a
   million *)
let script_for r i =
  let shape = i / 2 mod 4 in
  if int r 2 = 0 then
    let threshold = popular_thresholds.(shape) in
    { key = Printf.sprintf "p%d" shape; threshold;
      source = script_source ~shape ~threshold ~suffix:"" }
  else
    let k = int r 1_000_000 in
    let threshold = k mod 100 in
    { key = Printf.sprintf "u%d.%d" shape k; threshold;
      source = script_source ~shape ~threshold ~suffix:(Printf.sprintf "_%d" k) }

let make_body r ~rows =
  let values = Array.init rows (fun _ -> int r 100) in
  let buf = Buffer.create (rows * 44) in
  Buffer.add_string buf
    {|<body><p id="summary">?</p><button id="more">more</button><button id="mark">mark</button><table>|};
  Array.iteri
    (fun i v -> Printf.bprintf buf {|<tr v="%d"><td>r%d</td><td>%d</td></tr>|} v i v)
    values;
  Buffer.add_string buf "</table></body></html>";
  let cnt_ge = Array.make 101 0 and sum_ge = Array.make 101 0 in
  Array.iter (fun v -> cnt_ge.(v) <- cnt_ge.(v) + 1; sum_ge.(v) <- sum_ge.(v) + v) values;
  for t = 99 downto 0 do
    cnt_ge.(t) <- cnt_ge.(t) + cnt_ge.(t + 1);
    sum_ge.(t) <- sum_ge.(t) + sum_ge.(t + 1)
  done;
  let span = log (float_of_int max_rows /. float_of_int min_rows) in
  let size_class =
    min (size_classes - 1)
      (int_of_float (float_of_int size_classes *. log (float_of_int rows /. float_of_int min_rows) /. span))
  in
  { rows; html = Buffer.contents buf; cnt_ge; sum_ge; size_class }

let page_html script body =
  Printf.sprintf
    {|<html><head><meta name="t" content="%d"/><script type="text/xquery">%s</script></head>%s|}
    script.threshold script.source body.html

let expected script body =
  Printf.sprintf "%d %d" body.cnt_ge.(script.threshold) body.sum_ge.(script.threshold)

(* the page's main query, as one source text for every page (so it
   adds a single compile-cache entry): the summary, recomputed *)
let eval_query =
  {|let $t := xs:integer(//meta/@content) return concat(count(//tr[@v >= $t]), " ", sum(//tr[@v >= $t]/xs:integer(@v)))|}

let load_and_render html =
  let b = B.create () in
  P.load b html;
  ignore (B.render b);
  b

let check_page b script body =
  let bad_summary =
    expect "page-load #summary" ~expected:(expected script body)
      ~actual:(text_of_id (B.document b) "summary")
  in
  match b.B.script_errors with
  | [] -> bad_summary
  | e :: _ ->
      complain "page-load script error: %s" e;
      1

let setup ~seed =
  let r = rng seed in
  (* log-uniform sizes in a fixed interleaved order (stride 37 is coprime
     with the pool size): every seed loads each size at the same point
     of the run, so the lifetime drift weighs the same on every seed *)
  let sizes =
    Array.init pool_size (fun j ->
        let u = (float_of_int (j * 37 mod pool_size) +. 0.5) /. float_of_int pool_size in
        int_of_float (float_of_int min_rows *. ((float_of_int max_rows /. float_of_int min_rows) ** u)))
  in
  let bodies = Array.map (fun rows -> make_body r ~rows) sizes in
  (* warm up on the smallest pages with the popular scripts *)
  let small = Array.of_list (List.filter (fun b -> b.size_class = 0) (Array.to_list bodies)) in
  Array.iteri
    (fun p threshold ->
      let script = { key = ""; threshold; source = script_source ~shape:p ~threshold ~suffix:"" } in
      let body = small.(p mod Array.length small) in
      let b = load_and_render (page_html script body) in
      if check_page b script body > 0 then failwith "page-load warm-up produced a wrong page")
    popular_thresholds;
  {
    seed; bodies; compile_s = Hashtbl.create 256; parse = []; build = []; eval = [];
    read = []; write = []; traced_ops = 0;
  }

let button b id = Option.get (Dom.get_element_by_id (B.document b) id)

(* Traced op: the load and the render are real spans. Parse, build,
   compile and the main query's eval are then timed by separate calls
   on the same input, outside the op, and attributed as children of the
   load span in the order Page.load runs them; the load span's self
   time is the rest of the load (script set-up, listener wiring,
   installing the document). Returns the untimed part. *)
let traced_op t i script body html =
  let misses0 = (cache_stats ()).misses in
  let b = B.create () in
  let (), load = Spans.span "core.load" (fun () -> P.load b html) in
  ignore (Spans.with_span "core.render" (fun () -> B.render b));
  let missed = (cache_stats ()).misses > misses0 in
  fun () ->
    t.traced_ops <- t.traced_ops + 1;
    let trees, parse_s = timed (fun () -> Xmlb.Xml_parser.parse html) in
    let _, build_s = timed (fun () -> Dom.of_tree trees) in
    let compile_s =
      match Hashtbl.find_opt t.compile_s script.key with
      | Some s -> s
      | None ->
          let _, s = timed (fun () -> Xquery.Engine.compile script.source) in
          Hashtbl.replace t.compile_s script.key s;
          s
    in
    let result, eval_s = timed (fun () -> P.run_xquery b b.B.top_window eval_query) in
    t.parse <- (parse_s, String.length html) :: t.parse;
    t.build <- (build_s, body) :: t.build;
    t.eval <- eval_s :: t.eval;
    let child name ~start ~dur =
      ignore (Spans.record ~parent:load ~op:i name ~start ~stop:(start +. dur));
      start +. dur
    in
    let at = child "xmlb.parse" ~start:load.Spans.start ~dur:parse_s in
    let at = child "dom.build" ~start:at ~dur:build_s in
    let at = if missed then child "xquery.compile" ~start:at ~dur:compile_s else at in
    ignore (child "xquery.eval" ~start:at ~dur:eval_s);
    let _, read_s = timed (fun () -> B.click b (button b "more")) in
    let _, write_s = timed (fun () -> B.click b (button b "mark")) in
    t.read <- read_s :: t.read;
    t.write <- write_s :: t.write;
    let bad_eval =
      expect "page-load main query" ~expected:(expected script body)
        ~actual:(Xdm_item.sequence_string result)
    in
    check_page b script body + bad_eval

let prepare t i =
  let r = rng ((t.seed * 7_368_787) + i) in
  let body = t.bodies.(i mod pool_size) in
  let script = script_for r i in
  let html = page_html script body in
  let run ~traced () =
    if traced then traced_op t i script body html
    else
      let b = load_and_render html in
      fun () -> check_page b script body
  in
  (1, run)

(* latency in the last tenth of loads over the first tenth, within the
   size class that holds 1000-row pages; [untraced] is (op, seconds),
   oldest first *)
let load_drift t untraced =
  drift
    (List.filter_map
       (fun (i, s) -> if t.bodies.(i mod pool_size).size_class = 2 then Some s else None)
       untraced)

(* ns per row in the largest size class over the smallest *)
let build_growth t =
  let per_row c =
    mean
      (List.filter_map
         (fun (s, b) -> if b.size_class = c then Some (s *. 1e9 /. float_of_int b.rows) else None)
         t.build)
  in
  ratio (per_row (size_classes - 1)) (per_row 0)

(** ns per row building a [max_rows] page over a [min_rows] page
    (medians of three), for a workload whose own pages have one size. *)
let growth_probe () =
  let r = rng 4242 in
  let script = script_for r 0 in
  let ns_per_row rows =
    let body = make_body r ~rows in
    let trees = Xmlb.Xml_parser.parse (page_html script body) in
    median (List.init 3 (fun _ -> snd (timed (fun () -> Dom.of_tree trees)))) *. 1e9 /. float_of_int rows
  in
  ratio (ns_per_row max_rows) (ns_per_row min_rows)

let layers t ~untraced : metric list =
  let n = float_of_int (max 1 t.traced_ops) in
  let parse_s = List.fold_left (fun a (s, _) -> a +. s) 0. t.parse in
  let bytes = List.fold_left (fun a (_, n) -> a + n) 0 t.parse in
  [
    ("xmlb.parse_ms", ms (mean (List.map fst t.parse)), "ms");
    ("xmlb.parse_ns_per_byte", ratio (parse_s *. 1e9) (float_of_int bytes), "ns/B");
    ("dom.build_ms", ms (mean (List.map fst t.build)), "ms");
    ("dom.build_growth", build_growth t, "ratio");
    ("dom.load_drift", load_drift t untraced, "ratio");
    ("xquery.compile_ms", ms (mean (Hashtbl.fold (fun _ s a -> s :: a) t.compile_s [])), "ms");
    ("xquery.eval_ms", ms (mean t.eval), "ms");
    ("core.dispatch_read_ms", ms (mean t.read), "ms");
    ("core.dispatch_write_ms", ms (mean t.write), "ms");
    ("core.script_ms", ms (self_s "core.load" /. n), "ms");
    ("core.render_ms", ms (mean (Spans.durations "core.render")), "ms");
  ]
