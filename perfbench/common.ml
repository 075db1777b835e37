(* Helpers shared by the three workloads: a seeded generator, order
   statistics, counters from the program's own registries, and the
   metric record the workloads return. *)

let now = Unix.gettimeofday

(* A small deterministic generator (splitmix64), independent of the
   program's own Prng so that a change there cannot change the inputs. *)
type rng = { mutable s : int64 }

let rng seed = { s = Int64.of_int ((seed * 1_000_003) + 17) }

let next r =
  r.s <- Int64.add r.s 0x9E3779B97F4A7C15L;
  let z = r.s in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(** Uniform integer in [0, n). *)
let int r n = Int64.to_int (Int64.unsigned_rem (next r) (Int64.of_int n))

(** Uniform float in [0, 1). *)
let float r = Int64.to_float (Int64.shift_right_logical (next r) 11) /. 9007199254740992.

(** Percentile, [q] in [0, 1], interpolated linearly between the two
    nearest ranks. *)
let percentile xs q =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
      let a = Array.of_list sorted in
      let h = q *. float_of_int (Array.length a - 1) in
      let lo = truncate h in
      let hi = min (Array.length a - 1) (lo + 1) in
      a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 0.5
let mean xs = match xs with [] -> 0. | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
let ratio a b = if b = 0. then 0. else a /. b
let ms s = s *. 1000.

(** Mean of the last tenth of [xs] over the mean of the first tenth
    ([xs] oldest first): 1.0 when cost per op does not drift. Means,
    because op costs can be bimodal (a skipped listener or a rerun). *)
let drift xs =
  let n = List.length xs in
  let tenth = max 1 (n / 10) in
  ratio
    (mean (List.filteri (fun k _ -> k >= n - tenth) xs))
    (mean (List.filteri (fun k _ -> k < tenth) xs))

(** Time [f ()] in seconds. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(** Sum of the program's metrics counters whose name starts with
    [prefix] (the registry is enabled only while traced ops run). *)
let counter_prefix prefix =
  List.fold_left
    (fun acc (k, v) ->
      if String.length k >= String.length prefix
         && String.sub k 0 (String.length prefix) = prefix
      then acc + v
      else acc)
    0 (Obs.Metrics.counters ())

let cache_stats () = Xquery.Query_cache.stats Xquery.Engine.query_cache

let reactive name = List.assoc name (Xquery.Reactive.counter_stats ())

(** Self seconds of the spans named [name] inside ops. *)
let self_s name = Option.value ~default:0. (Hashtbl.find_opt (Spans.self_times ()) name)

(** OCaml top heap in MB. *)
let peak_heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(** A metric: name, value, unit. *)
type metric = string * float * string

let complaints = ref 0

(** Report a failed op on stderr (the first five only); the caller
    counts it. *)
let complain fmt =
  Printf.ksprintf
    (fun msg ->
      incr complaints;
      if !complaints <= 5 then prerr_endline ("perfbench: failed op: " ^ msg))
    fmt

(** 0 if [actual] is [expected], else 1 (reported). *)
let expect what ~expected ~actual =
  if String.equal expected actual then 0
  else (
    complain "%s: expected %S, got %S" what expected actual;
    1)

let text_of_id doc id =
  match Dom.get_element_by_id doc id with
  | Some n -> Dom.string_value n
  | None -> "<missing #" ^ id ^ ">"
