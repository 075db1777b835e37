(** The engine facade: compile and run XQuery programs.

    This is the module hosts embed: the browser runtime (the paper's
    plug-in, Fig. 1) compiles each [<script type="text/xquery">] body
    once and then evaluates the main query and, later, each event
    listener against the live DOM. *)

open Xmlb

type compiled = {
  prog : Ast.prog;
  static : Static_context.t;
  code : Compile.prog_code option;
      (** closure-compiled body + function table; [None] when compiled
          evaluation was off at compile time *)
}

(** Compiled-evaluation ablation switch (default on). When enabled,
    {!compile} emits a closure IR for the program body and its
    plain-expression functions, and {!eval_body}/{!context_for} execute
    it, streaming the early-exit consumers; when disabled, the eager
    tree-walking reference evaluator (the oracle) runs. Keys the query
    cache ([C1|]/[C0|]) like the join-planner switch. *)
val set_compiled_eval : bool -> unit

val compiled_eval_enabled : unit -> bool

(** A fresh static context with the standard namespaces. *)
val default_static : unit -> Static_context.t

(** Compile a main or library module. Prolog declarations (functions,
    variables, options, imports) are recorded in the static context.
    [optimize] (default true) runs the rewrite pass. *)
val compile : ?optimize:bool -> ?static:Static_context.t -> string -> compiled

(** A cache entry: the optimized program and its closure code, which
    hold no static context — so an entry never keeps alive the page
    (externals, browser, DOM) that first compiled it. *)
type cached = { cached_prog : Ast.prog; cached_code : Compile.prog_code option }

(** The process-wide compiled-query cache, keyed by
    (optimize flag, {!Static_context.fingerprint}, source). Hosts that
    swap module resolvers or external-function {e implementations}
    while keeping the same registration keys must
    {!Query_cache.invalidate} it. *)
val query_cache : cached Query_cache.t

(** Like {!compile}, but consults {!query_cache} first. On a hit the
    cached program's prolog is replayed into [static] — reproducing
    the parser's registrations without re-parsing — and the returned
    artifact carries the caller's context. On a miss it compiles,
    stores the program and code, and behaves exactly like {!compile}. Falls
    back to {!compile} while {!Query_cache.enabled} is false. *)
val compile_cached :
  ?optimize:bool -> ?static:Static_context.t -> string -> compiled

(** Make [ctx] ready to run a compiled program: installs its
    closure-compiled functions (when compiled evaluation is on), binds
    [bindings] and evaluates the prolog's global variables in order.
    [bindings] supplies external variables; one without a value raises
    XPDY0002. *)
val install :
  ?bindings:(Qname.t * Xdm_item.sequence) list ->
  Dynamic_context.t ->
  compiled ->
  unit

(** Build a dynamic context for a compiled program: binds the optional
    context item, then {!install}s the program. *)
val context_for :
  ?host:Dynamic_context.host ->
  ?context_item:Xdm_item.item ->
  ?bindings:(Qname.t * Xdm_item.sequence) list ->
  compiled ->
  Dynamic_context.t

(** Evaluate the program body in the given context, as closure code
    when compiled evaluation is on and the body compiled. [exit with]
    returns its value; a stray [break]/[continue] raises XSST0010. Does
    NOT apply the pending update list (callers that want snapshot
    semantics use {!run}). Library modules return the empty sequence. *)
val eval_body : Dynamic_context.t -> compiled -> Xdm_item.sequence

(** Compile-and-run convenience: evaluates the body and applies the
    pending update list (XQUF snapshot semantics). *)
val run :
  ?host:Dynamic_context.host ->
  ?context_item:Xdm_item.item ->
  ?bindings:(Qname.t * Xdm_item.sequence) list ->
  compiled ->
  Xdm_item.sequence

(** One-shot: compile then {!run}. *)
val eval_string :
  ?optimize:bool ->
  ?static:Static_context.t ->
  ?host:Dynamic_context.host ->
  ?context_item:Xdm_item.item ->
  ?bindings:(Qname.t * Xdm_item.sequence) list ->
  string ->
  Xdm_item.sequence

(** Call a function declared by the compiled program. *)
val call :
  Dynamic_context.t -> Qname.t -> Xdm_item.sequence list -> Xdm_item.sequence
