(* The repository benchmark: one seeded, closed-loop, single-threaded
   client per run, against the engine's public entry points.

     perfbench --workload page-load|interact|fleet --seed N --seconds S --trace 0|1

   Sets the workload up five times (setup_s is the median), then runs
   a fixed number of steps of its seeded op sequence, proportional to
   S, and checks every output against the benchmark's own model. With
   --trace 0 it reports the end-to-end metrics; with --trace 1 every
   other op runs traced (wall-clock spans around the benchmark's calls
   into each layer, and the program's Obs.Metrics counters), and it
   reports the per-layer metrics. The last line of standard output is
   the JSON result. See README.md. *)

open Common

module type WORKLOAD = sig
  type t

  (** Steps per second of --seconds: a run makes a fixed number of
      steps, so two commits do identical work. The rate fills about
      three quarters of the window on the reference machine (README.md). *)
  val steps_per_second : int

  val setup : seed:int -> t

  (** [prepare t i] makes op [i] ready, untimed: it returns how many
      ops it performs and the timed part, which returns the untimed
      check; the check returns how many of the ops were wrong. *)
  val prepare : t -> int -> int * (traced:bool -> unit -> unit -> int)

  (** Traced runs only: per-layer metrics timed on the workload's own
      inputs, before the ops run. *)
  val probe : t -> metric list

  (** Traced runs only: per-layer metrics from the ops; [untraced] is
      (op, seconds per op) of the untraced ops, oldest first. *)
  val layers : t -> untraced:(int * float) list -> metric list

  (** End-to-end figures reported in the summary lines only. *)
  val notes : t -> metric list
end

(* A layer a workload's ops do not reach is timed by another
   workload's probe (see README.md). Probes run in list order. *)
let probes fs = List.concat_map (fun f -> f ()) fs
let growth () = [ ("dom.build_growth", Page_load.growth_probe (), "ratio") ]

module Page_load_w : WORKLOAD = struct
  include Page_load

  let probe t = Fleet_load.server_probe ~seed:t.seed
  let notes _ = []
end

module Interact_w : WORKLOAD = struct
  include Interact

  let probe t =
    probes [ (fun () -> probe t); growth; (fun () -> Fleet_load.server_probe ~seed:t.seed) ]

  let notes _ = []
end

module Fleet_w : WORKLOAD = struct
  include Fleet_load

  let probe t =
    probes [ (fun () -> probe t); growth; (fun () -> Interact.dispatch_probe ~seed:t.seed) ]

  let notes t =
    [
      ("server_p99_vs", median t.server_p99, "virtual_s");
      ("migrated_p99_vs", median t.migrated_p99, "virtual_s");
    ]
end

let workloads : (string * (module WORKLOAD)) list =
  [ ("page-load", (module Page_load_w)); ("interact", (module Interact_w)); ("fleet", (module Fleet_w)) ]

(* every per-layer metric, in BENCHMARK.json order; each traced run
   must report all of them *)
let per_layer_names =
  [
    "xmlb.parse_ms"; "xmlb.parse_ns_per_byte"; "dom.build_ms"; "dom.build_growth";
    "dom.load_drift"; "xquery.compile_ms"; "xquery.cache_hit_ratio"; "xquery.eval_ms";
    "xquery.eval_steps_per_op"; "xquery.pulls_per_op"; "xquery.opaque_share";
    "xquery.pul_prims_per_event"; "xquery.reactive_skip_ratio"; "xquery.reruns_per_event";
    "core.dispatch_read_ms"; "core.dispatch_write_ms"; "core.render_ms";
    "core.render_memo_hit_ratio"; "core.script_ms"; "net.requests_per_visit";
    "net.kb_per_visit"; "net.retries_per_visit"; "net.clock_tasks_per_visit";
    "appserver.render_ms"; "appserver.max_queue_depth"; "appserver.visit_ms";
    "appserver.server_p99_vs"; "appserver.migrated_p99_vs"; "obs.trace_overhead";
    "obs.layer_share";
  ]

type sample = { op : int; traced : bool; seconds : float; ops : int }

(* counters kept by the program that are always on, summed over the
   traced ops only *)
type always_on = { mutable hits : int; mutable lookups : int; mutable skips : int; mutable reruns : int }

(* [steps] steps, unless twice the window runs out first *)
let run_ops ~prepare ~steps ~seconds ~trace =
  let samples = ref [] and attempted = ref 0 and failed = ref 0 in
  let on = { hits = 0; lookups = 0; skips = 0; reruns = 0 } in
  let deadline = now () +. (2. *. seconds) in
  let i = ref 0 in
  while !i < steps && now () < deadline do
    let op = !i in
    let ops, run = prepare op in
    let traced = trace && op mod 2 = 1 in
    attempted := !attempted + ops;
    (try
       let after, s =
         if traced then begin
           let c0 = cache_stats () and s0 = reactive "skips" and r0 = reactive "reruns" in
           Obs.Metrics.set_enabled true;
           let result =
             Fun.protect
               ~finally:(fun () -> Obs.Metrics.set_enabled false)
               (fun () -> Spans.with_op op (run ~traced:true))
           in
           let c1 = cache_stats () in
           on.hits <- on.hits + c1.hits - c0.hits;
           on.lookups <- on.lookups + c1.hits - c0.hits + c1.misses - c0.misses;
           on.skips <- on.skips + reactive "skips" - s0;
           on.reruns <- on.reruns + reactive "reruns" - r0;
           result
         end
         else timed (run ~traced:false)
       in
       samples := { op; traced; seconds = s; ops } :: !samples;
       failed := !failed + after ()
     with e ->
       complain "op %d raised %s" op (Printexc.to_string e);
       failed := !failed + ops);
    incr i
  done;
  (List.rev !samples, !attempted, !failed, on)

let per_op s = s.seconds /. float_of_int s.ops
let throughput samples =
  let ops = List.fold_left (fun a s -> a + s.ops) 0 samples in
  ratio (float_of_int ops) (List.fold_left (fun a s -> a +. s.seconds) 0. samples)

let generic_layers samples on : metric list =
  let traced = List.filter (fun s -> s.traced) samples in
  let untraced = List.filter (fun s -> not s.traced) samples in
  let ops = float_of_int (max 1 (List.fold_left (fun a s -> a + s.ops) 0 traced)) in
  let per_op name = float_of_int (Obs.Metrics.counter name) /. ops in
  let compile = Xquery.Compile.stats () in
  let memo_hits = float_of_int (Obs.Metrics.counter "render.memo.hit") in
  [
    ("xquery.cache_hit_ratio", ratio (float_of_int on.hits) (float_of_int on.lookups), "ratio");
    ("xquery.eval_steps_per_op", per_op "eval.steps", "count");
    ("xquery.pulls_per_op", per_op "xdm.seq.pulls", "count");
    ( "xquery.opaque_share",
      ratio (float_of_int (List.assoc "opaque-nodes" compile)) (float_of_int (List.assoc "nodes" compile)),
      "ratio" );
    ("xquery.pul_prims_per_event", float_of_int (counter_prefix "pul.phase.") /. ops, "count");
    ( "xquery.reactive_skip_ratio",
      ratio (float_of_int on.skips) (float_of_int (on.skips + on.reruns)),
      "ratio" );
    ("xquery.reruns_per_event", float_of_int on.reruns /. ops, "count");
    ( "core.render_memo_hit_ratio",
      ratio memo_hits (memo_hits +. float_of_int (Obs.Metrics.counter "render.memo.miss")),
      "ratio" );
    ("net.requests_per_visit", per_op "net.requests", "count");
    ("net.kb_per_visit", per_op "net.bytes" /. 1024., "KiB");
    ("net.retries_per_visit", per_op "retry.retries", "count");
    ("net.clock_tasks_per_visit", per_op "clock.tasks", "count");
    ("obs.trace_overhead", ratio (throughput traced) (throughput untraced), "ratio");
    ("obs.layer_share", Spans.layer_share (), "ratio");
  ]

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let main ~workload ~seed ~seconds ~trace =
  let (module W : WORKLOAD) =
    match List.assoc_opt workload workloads with
    | Some w -> w
    | None -> failwith ("unknown workload " ^ workload)
  in
  (* each set-up, and the ops, start from a compacted heap *)
  let setups =
    List.init 5 (fun _ ->
        Gc.compact ();
        timed (fun () -> W.setup ~seed))
  in
  let st = fst (List.nth setups 4) in
  let setup_s = median (List.map snd setups) in
  let probed = if trace then W.probe st else [] in
  Gc.compact ();
  let samples, attempted, failed, on =
    run_ops ~prepare:(W.prepare st) ~steps:(W.steps_per_second * seconds)
      ~seconds:(float_of_int seconds) ~trace
  in
  let heap_mb = peak_heap_mb () in
  let untraced = List.filter (fun s -> not s.traced) samples in
  let latencies = List.map per_op untraced in
  let metrics =
    if trace then begin
      let own = probed @ W.layers st ~untraced:(List.map (fun s -> (s.op, per_op s)) untraced) in
      (* a workload's own value wins over the generic one *)
      let all = own @ generic_layers samples on in
      List.map
        (fun name ->
          match List.find_opt (fun (n, _, _) -> n = name) all with
          | Some m -> m
          | None -> failwith ("no value for per-layer metric " ^ name))
        per_layer_names
    end
    else
      [
        ("setup_s", setup_s, "s");
        ("latency_ms_p50", ms (percentile latencies 0.5), "ms");
        ("latency_ms_p99", ms (percentile latencies 0.99), "ms");
        ("throughput_ops_s", throughput untraced, "1/s");
        ("peak_heap_mb", heap_mb, "MB");
      ]
  in
  if trace then begin
    (try Sys.mkdir "_perfbench" 0o755 with Sys_error _ -> ());
    Spans.write (Printf.sprintf "_perfbench/spans-%s-%d.jsonl" workload seed)
  end;
  Printf.printf "workload %s, seed %d, %d s, trace %d: %d ops (%d timed samples), %d failed\n"
    workload seed seconds (Bool.to_int trace) attempted (List.length samples) failed;
  List.iter
    (fun (n, v, u) ->
      Printf.printf "  %-28s %14.6f %s%s\n" n v u
        (if String.starts_with ~prefix:"latency_" n then
           Printf.sprintf " (%d samples)" (List.length latencies)
         else ""))
    (metrics
    @ W.notes st
    @ [ ("fail_ratio", ratio (float_of_int failed) (float_of_int attempted), "ratio") ]);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (json_number v) u)
          metrics))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "page-load | interact | fleet");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_int seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics; 1: per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload W --seed N --seconds S --trace 0|1";
  try main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
  with e ->
    prerr_endline ("perfbench: " ^ Printexc.to_string e);
    exit 1
