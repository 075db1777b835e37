(* fleet: Scenarios.run_fleet over a Reference 2.0 archive of 96
   articles, with a small seeded network fault rate so Retry carries
   traffic. Each step runs a server-rendered fleet, then a migrated
   fleet from the same fleet seed; each fleet is [sessions] sessions x
   [visits] visits, and one op in the benchmark's sense is one visit.
   This is the only workload that exercises the app server, the
   simulated network and the virtual clock; server- and client-side
   XQuery eval carry a visible share of the work, and wall time grows
   with the number of browsers the process has created.

   Visits interleave on virtual time, so a visit has no wall latency of
   its own: the per-op latency of a step is its wall time over its
   visits, one sample per step. Fleets are small so that a run holds
   enough steps for steady medians. *)

open Common
module AS = Appserver.App_server
module F = Appserver.Fleet

let steps_per_second = 1
let sessions = 10
let visits = 3
let fault_rate = 0.02
let archive = (2, 2, 4, 6) (* journals, volumes, issues, articles: 96 articles *)

let run_fleet ~sessions ~migrated ~seed =
  let journals, volumes, issues, articles = archive in
  Scenarios.run_fleet ~journals ~volumes ~issues ~articles ~visits ~rate:fault_rate ~sessions
    ~migrated ~seed ()

type t = {
  seed : int;
  elsevier : Scenarios.elsevier;  (** a server of its own, for the layer probes *)
  (* samples *)
  mutable server_p99 : float list;
  mutable migrated_p99 : float list;
  mutable max_depth : int;
  mutable traced_ms_per_visit : float list;
}

let check ~sessions ~migrated (r : F.report) =
  let attempted = sessions * visits in
  let accounted = r.F.pages_ok + r.F.pages_shed + r.F.pages_lost in
  let failed = r.F.pages_shed + r.F.pages_lost in
  if accounted <> attempted then (
    complain "fleet visits: %d ok + %d shed + %d lost <> %d" r.F.pages_ok r.F.pages_shed
      r.F.pages_lost attempted;
    attempted)
  else if migrated && r.F.server_evals <> 0 then (
    complain "migrated fleet evaluated %d pages on the server" r.F.server_evals;
    attempted)
  else if (not migrated) && (r.F.server_evals < r.F.pages_ok || r.F.server_evals > r.F.attempts)
  then (
    (* a corrupted 200 is retried, so the server may evaluate a page
       more than once per visit, but never more than once per attempt *)
    complain "server fleet: %d evals for %d ok visits, %d attempts" r.F.server_evals
      r.F.pages_ok r.F.attempts;
    attempted)
  else failed

let new_server () =
  let journals, volumes, issues, articles = archive in
  Scenarios.make_elsevier ~journals ~volumes ~issues ~articles
    (Http_sim.create (Virtual_clock.create ()))

let setup ~seed =
  let elsevier = new_server () in
  (* warm up both modes on a small fleet, the same for every seed *)
  List.iter
    (fun migrated ->
      let r = run_fleet ~sessions:20 ~migrated ~seed:77_777 in
      if check ~sessions:20 ~migrated r > 0 then failwith "fleet warm-up failed")
    [ false; true ];
  {
    seed; elsevier; server_p99 = []; migrated_p99 = []; max_depth = 0;
    traced_ms_per_visit = [];
  }

let prepare t i =
  let seed = (t.seed * 1_000) + i in
  let run ~traced () =
    let (server, migrated), wall =
      timed (fun () ->
          let server = run_fleet ~sessions ~migrated:false ~seed in
          (server, run_fleet ~sessions ~migrated:true ~seed))
    in
    fun () ->
      t.server_p99 <- server.F.p99 :: t.server_p99;
      t.migrated_p99 <- migrated.F.p99 :: t.migrated_p99;
      t.max_depth <- max t.max_depth (max server.F.max_queue_depth migrated.F.max_queue_depth);
      if traced then
        t.traced_ms_per_visit <- (ms wall /. float_of_int (2 * sessions * visits)) :: t.traced_ms_per_visit;
      check ~sessions ~migrated:false server + check ~sessions ~migrated:true migrated
  in
  (2 * sessions * visits, run)

let browse_uri (e : Scenarios.elsevier) =
  "http://" ^ AS.host e.Scenarios.server ^ e.Scenarios.browse_page_path

(** Server-side timings and virtual latencies from a small fleet, for
    a workload whose own ops never reach an app server. *)
let server_probe ~seed : metric list =
  let e = new_server () in
  let render_s =
    median
      (List.init 5 (fun _ ->
           snd (timed (fun () -> Http_sim.fetch (AS.http e.Scenarios.server) (browse_uri e)))))
  in
  let fleet migrated =
    let r, s = timed (fun () -> run_fleet ~sessions:20 ~migrated ~seed) in
    if check ~sessions:20 ~migrated r > 0 then failwith "server probe fleet failed";
    (r, ms s /. float_of_int (20 * visits))
  in
  let server, server_ms = fleet false in
  let migrated, migrated_ms = fleet true in
  [
    ("appserver.render_ms", ms render_s, "ms");
    ("appserver.visit_ms", (server_ms +. migrated_ms) /. 2., "ms");
    ("appserver.max_queue_depth", float_of_int (max server.F.max_queue_depth migrated.F.max_queue_depth), "count");
    ("appserver.server_p99_vs", server.F.p99, "virtual_s");
    ("appserver.migrated_p99_vs", migrated.F.p99, "virtual_s");
  ]

(** Layer timings on this workload's own server and its browse page,
    medians of five. They run before the ops: after the ops, every DOM
    mutation pays for the observers of all the browsers the fleets
    created. *)
let probe t : metric list =
  let server = t.elsevier.Scenarios.server in
  let reps f = median (List.init 5 (fun _ -> snd (timed f))) in
  let path = t.elsevier.Scenarios.browse_page_path in
  let html = AS.render_page server ~path in
  let trees = Xmlb.Xml_parser.parse html in
  let parse_s = reps (fun () -> Xmlb.Xml_parser.parse html) in
  let build_s = reps (fun () -> Dom.of_tree trees) in
  let source = Option.get (AS.page_source server ~path) in
  let b = Xqib.Browser.create () in
  let load_s = reps (fun () -> Xqib.Page.load b html) in
  [
    ("xmlb.parse_ms", ms parse_s, "ms");
    ("xmlb.parse_ns_per_byte", ratio (parse_s *. 1e9) (float_of_int (String.length html)), "ns/B");
    ("dom.build_ms", ms build_s, "ms");
    ("xquery.compile_ms", ms (reps (fun () -> Xquery.Engine.compile source)), "ms");
    ("xquery.eval_ms", ms (reps (fun () -> AS.render_page server ~path)), "ms");
    ("core.script_ms", ms (Float.max 0. (load_s -. parse_s -. build_s)), "ms");
    ("appserver.render_ms", ms (reps (fun () -> Http_sim.fetch (AS.http server) (browse_uri t.elsevier))), "ms");
  ]

let layers t ~untraced : metric list =
  [
    ("dom.load_drift", drift (List.map snd untraced), "ratio");
    ("appserver.visit_ms", mean t.traced_ms_per_visit, "ms");
    ("appserver.max_queue_depth", float_of_int t.max_depth, "count");
    ("appserver.server_p99_vs", median t.server_p99, "virtual_s");
    ("appserver.migrated_p99_vs", median t.migrated_p99, "virtual_s");
  ]
