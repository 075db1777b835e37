(** The closure compiler (PAPER: per-event evaluation must be as fast
    as the hardware allows). {!Core_ir.lower} desugars the optimized
    AST and resolves variables to frame slots; [compile_prog] then
    emits one OCaml closure per core node, composed bottom-up, so a
    run performs direct calls over a pre-sized frame array instead of
    tree-walking the AST. Compiled code streams: early-exit consumers
    pull lazy {!Xdm_seq} cursors. The eager tree-walking {!Eval} stays
    the reference and oracle: [set_compiled_eval false] (CLI
    [--no-compiled-eval]) disables the compiled path entirely. *)

type env = {
  ctx : Dynamic_context.t;
  frame : Xdm_item.sequence ref array;
}

type fn_impl =
  Dynamic_context.t -> Xdm_item.sequence list -> Xdm_item.sequence

type prog_code = {
  body : (Dynamic_context.t -> Xdm_item.sequence) option;
      (** compiled main-module body; [None] when the body is absent or
          lowers to a single opaque node (the interpreter is used) *)
  fns : ((int * int * int) * fn_impl) list;
      (** compiled plain-expression function bodies, keyed by
          {!Dynamic_context.fn_key} (uri sym, local sym, arity) for
          {!Dynamic_context.t.compiled_fns} *)
}

(** Ablation switch (default on); off runs the reference evaluator. *)
val set_compiled_eval : bool -> unit

val enabled : unit -> bool

(** Always-on compile statistics for [browser:stats()]:
    programs/functions compiled, closure nodes emitted, opaque
    fallback nodes. *)
val stats : unit -> (string * int) list

val compile_prog : Static_context.t -> Ast.prog -> prog_code
