(* Reactive dispatch: per-listener-registration memos that let event
   dispatch skip re-running a listener when nothing it read has changed.

   Each [Dom_event] registration made through the evaluator owns a
   [memo]. A listener run is skipped iff its memo holds the footprint of
   a previous run that (a) was pure — no PUL effects, no external
   functions, no impure builtins, no global reads — (b) has not been
   dirtied by any mutation batch intersecting its read footprint, and
   (c) received arguments with the same fingerprint. Under deterministic
   evaluation those three conditions imply the re-run would repeat the
   previous run exactly — same (discarded) result, no effects — so
   skipping is unobservable.

   Memos live in an autonomous [Query_cache] (the footprint summary is
   attached to the cache entry), so they get LRU bounding, obs counters
   and drop-time cleanup, while ignoring the [--no-query-cache] kill
   switch: this table is correctness bookkeeping, not an optimization
   toggle. [Dom_event.drop_hook] removes the entry when its registration
   is removed or replaced by a same-name listener, and
   [Footprint.on_commit] marks intersecting memos dirty after every
   mutation batch. *)

module I = Xdm_item
module A = Xdm_atomic

type memo = {
  mutable fp : Footprint.read option;
      (* footprint of the last completed pure run; never poisoned *)
  mutable args_key : string;
  mutable result_key : string;
  mutable dirty : bool;
  mutable latched_poison : bool;
      (* a run proved impure: stop recording attempts for good *)
  mutable registered : bool;
      (* still present in the memo table; an unregistered memo must not
         cache (writes would no longer dirty it) *)
  mutable skipped_since_record : bool;
      (* the cached footprint produced at least one skip *)
  mutable wasted : int;
      (* consecutive recordings discarded without a single skip *)
  mutable plain_streak : int;  (* plain runs since the last probe *)
}

let fresh_memo () =
  {
    fp = None;
    args_key = "";
    result_key = "";
    dirty = false;
    latched_poison = false;
    registered = false;
    skipped_since_record = false;
    wasted = 0;
    plain_streak = 0;
  }

(* Adaptive bypass: recording a run costs real time (footprint tables,
   fingerprints, root tracking). A listener whose recordings keep being
   invalidated before yielding a single skip — every mutation touches
   it, or its arguments never repeat — stops recording after
   [bypass_after] wasted recordings and runs plain, re-probing every
   [probe_every]-th dispatch so it recovers if the workload settles. *)
let bypass_after = 2
let probe_every = 16

(* Always-on counters: bench gates and browser:stats() read these
   without requiring the obs layer to be enabled. *)
let skips = ref 0
let reruns = ref 0
let unchanged = ref 0
let invalidations = ref 0
let poisoned_runs = ref 0

let counter_stats () =
  [
    ("skips", !skips);
    ("reruns", !reruns);
    ("unchanged", !unchanged);
    ("invalidations", !invalidations);
    ("poisoned-runs", !poisoned_runs);
  ]

let reset_counters () =
  skips := 0;
  reruns := 0;
  unchanged := 0;
  invalidations := 0;
  poisoned_runs := 0

(* Builtins whose value depends on state outside the DOM footprint
   (documents, clocks, the trace sink). Both the interpreter's builtin
   dispatch and the closure compiler's builtin-call emission consult
   this before running one inside a recorded listener. *)
let impure_builtin = function
  | "doc" | "doc-available" | "put" | "current-dateTime" | "current-date"
  | "current-time" | "implicit-timezone" | "trace" ->
      true
  | _ -> false

(* The same test keyed by interned symbol: the eight impure locals are
   interned once at module init, so the per-call check is an int-set
   probe instead of a string match. *)
let impure_syms : (int, unit) Hashtbl.t = Hashtbl.create 16

let () =
  List.iter
    (fun l -> Hashtbl.replace impure_syms (Xmlb.Sym.intern l :> int) ())
    [
      "doc"; "doc-available"; "put"; "current-dateTime"; "current-date";
      "current-time"; "implicit-timezone"; "trace";
    ]

let impure_builtin_sym (sym : Xmlb.Sym.t) = Hashtbl.mem impure_syms (sym :> int)

(* ------------------------------------------------------------------ *)
(* Memo table                                                          *)

let table : memo Query_cache.t =
  Query_cache.create ~name:"reactive" ~capacity:1024 ~autonomous:true ()

let untrack m =
  match m.fp with
  | None -> ()
  | Some fp ->
      List.iter Footprint.untrack_root (Footprint.root_ids fp);
      m.fp <- None

let () =
  Query_cache.set_on_drop table (fun _ m ->
      untrack m;
      m.registered <- false)

let key_of_lid lid = "l" ^ string_of_int lid

let register lid memo =
  memo.registered <- true;
  Query_cache.add table (key_of_lid lid) ~cost:0 memo

let drop lid = Query_cache.remove table (key_of_lid lid)
let table_size () = Query_cache.length table
let table_stats () = Query_cache.stats table

(* ------------------------------------------------------------------ *)
(* Switch                                                              *)

let active () = Footprint.incremental_enabled ()

let set_incremental b =
  Footprint.set_incremental b;
  (* dropping every memo unregisters it, so closures still holding one
     run plain from now on instead of skipping on stale footprints *)
  if not b then Query_cache.clear table

(* ------------------------------------------------------------------ *)
(* Dirty marking                                                       *)

let on_write ws =
  Query_cache.iter
    (fun _ m ->
      match m.fp with
      | Some fp when (not m.dirty) && Footprint.intersects fp ws ->
          m.dirty <- true;
          incr invalidations;
          if !Obs.Metrics.enabled then Obs.Metrics.incr "reactive.invalidation"
      | _ -> ())
    table

let () =
  Footprint.on_commit := on_write;
  Dom_event.drop_hook := drop

(* ------------------------------------------------------------------ *)
(* Fingerprints                                                        *)

(* Argument fingerprint. Parented (or document) nodes fingerprint by
   identity: everything reachable from them is covered by the recorded
   footprint. Parentless non-document nodes are fresh per-dispatch trees
   (the $evt node) whose identity changes every dispatch even when the
   content is identical — fingerprint those by serialized content. *)
let item_key = function
  | I.Node n -> (
      match (Dom.kind n, Dom.parent n) with
      | Dom.Document, _ -> "d" ^ string_of_int (Dom.id n)
      | _, Some _ -> "n" ^ string_of_int (Dom.id n)
      | _, None -> "f:" ^ Dom.serialize n)
  | I.Atomic a -> "a:" ^ A.type_name (A.type_of a) ^ ":" ^ A.to_string a

let args_key (args : I.sequence list) =
  String.concat "|"
    (List.map (fun seq -> String.concat "," (List.map item_key seq)) args)

let result_key (seq : I.sequence) =
  String.concat "," (List.map item_key seq)

(* ------------------------------------------------------------------ *)
(* Run protocol (driven by Eval.make_listener)                         *)

type decision = Skip | Run_recorded | Run_plain

let decide m ~args_key:akey =
  if not (active ()) then Run_plain
  else if m.latched_poison || not m.registered then Run_plain
  else
    match m.fp with
    | Some _ when (not m.dirty) && String.equal m.args_key akey ->
        m.skipped_since_record <- true;
        Skip
    | _ ->
        (* any cached record is about to be discarded; account whether
           it ever paid for itself, and release it now *)
        (match m.fp with
        | Some _ ->
            if m.skipped_since_record then m.wasted <- 0
            else m.wasted <- m.wasted + 1;
            untrack m
        | None -> ());
        if m.wasted >= bypass_after then begin
          m.plain_streak <- m.plain_streak + 1;
          if m.plain_streak >= probe_every then begin
            m.plain_streak <- 0;
            Run_recorded
          end
          else Run_plain
        end
        else Run_recorded

let count_skip () =
  incr skips;
  if !Obs.Metrics.enabled then Obs.Metrics.incr "reactive.skip"

let count_rerun () =
  incr reruns;
  if !Obs.Metrics.enabled then Obs.Metrics.incr "reactive.rerun"

(* Record the arguments themselves as read scopes: their names, values
   and subtrees are observable without any recorded navigation step. *)
let record_args (args : I.sequence list) =
  List.iter
    (fun seq ->
      List.iter
        (function
          | I.Node n ->
              Footprint.reading_scope ~root:(Dom.id (Dom.root n))
                ~node:(Dom.id n)
          | I.Atomic _ -> ())
        seq)
    args

(* Close out a recorded run. [ok] is false when the run raised (listener
   error path): nothing is cached, but impurity is not latched — the
   error may be data-dependent, and with no stored footprint the
   listener re-runs every time anyway. *)
let finish_run m ~ok ~args_key:akey ~fp ~result =
  untrack m;
  if not ok then m.dirty <- false
  else if Footprint.is_poisoned fp then begin
    m.latched_poison <- true;
    incr poisoned_runs;
    if !Obs.Metrics.enabled then Obs.Metrics.incr "reactive.poisoned"
  end
  else begin
    let rk = result_key result in
    if String.equal rk m.result_key && not (String.equal m.result_key "") then begin
      (* structurally equal to the cached result: the re-render this
         dispatch would trigger is a no-op *)
      incr unchanged;
      if !Obs.Metrics.enabled then Obs.Metrics.incr "reactive.unchanged"
    end;
    m.result_key <- rk;
    if m.registered then begin
      m.fp <- Some fp;
      m.args_key <- akey;
      m.dirty <- false;
      m.skipped_since_record <- false;
      List.iter Footprint.track_root (Footprint.root_ids fp)
    end
  end
