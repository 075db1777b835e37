(** Reactive dispatch: footprint-tracked listener memos.

    Every listener registered through the evaluator owns a {!memo}.
    After a pure run, the memo holds the run's read footprint (attached
    to an autonomous {!Query_cache} entry), its argument fingerprint and
    its result fingerprint. A later dispatch with the same argument
    fingerprint is skipped outright unless some mutation batch since
    then intersected the footprint ({!Footprint.on_commit} marks memos
    dirty) — under deterministic evaluation the skipped run would have
    repeated the previous one exactly: same discarded result, no
    effects.

    Impure runs (PUL effects, external functions, impure builtins,
    global variable reads) latch the memo as unmemoizable; it then runs
    plain, with zero recording overhead, forever. The
    [--no-incremental] ablation ({!set_incremental}) restores
    always-re-run dispatch globally and empties the table. *)

type memo

val fresh_memo : unit -> memo

(** {1 Registration}

    Keyed by [Dom_event] listener id; [Dom_event.drop_hook] is wired to
    {!drop} at module initialization, so removal and same-name
    replacement release the memo (and its footprint's tracked-root
    refcounts). *)

val register : Dom_event.listener_id -> memo -> unit
val drop : Dom_event.listener_id -> unit

(** Number of live memo entries (listener-churn regression tests). *)
val table_size : unit -> int

val table_stats : unit -> Query_cache.stats

(** {1 Switch} *)

(** Mirrors {!Footprint.set_incremental}; disabling also clears the
    memo table so existing listeners revert to plain dispatch. *)
val set_incremental : bool -> unit

val active : unit -> bool

(** {1 Run protocol} (driven by [Eval.make_listener]) *)

type decision = Skip | Run_recorded | Run_plain

val decide : memo -> args_key:string -> decision

(** Builtins whose result depends on state the footprint cannot see
    (documents, clocks, trace): calling one poisons the run. *)
val impure_builtin : string -> bool

(** Same predicate keyed by the pre-interned local-name symbol — an
    int-set probe instead of a string match on every builtin call. *)
val impure_builtin_sym : Xmlb.Sym.t -> bool
val args_key : Xdm_item.sequence list -> string
val count_skip : unit -> unit
val count_rerun : unit -> unit

(** Record the argument nodes as read scopes of the active recorder
    (their content is observable without any navigation step). *)
val record_args : Xdm_item.sequence list -> unit

(** Store the outcome of a recorded run: caches footprint + fingerprints
    on a pure successful run, latches impurity on a poisoned one,
    caches nothing on an error. *)
val finish_run :
  memo ->
  ok:bool ->
  args_key:string ->
  fp:Footprint.read ->
  result:Xdm_item.sequence ->
  unit

(** {1 Counters} (always on; read by bench gates and browser:stats()) *)

val counter_stats : unit -> (string * int) list
val reset_counters : unit -> unit
