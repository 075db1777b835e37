(** The XQuery 1.0 / XPath 2.0 built-in function and operator library
    ([fn:] namespace), ~90 functions: accessors, numerics, strings,
    regular expressions, booleans, sequences, aggregates, node
    functions, QNames, date/time component extraction, documents and
    context functions. *)

type impl = Call_ctx.t -> Xdm_item.sequence list -> Xdm_item.sequence

(** Look up a built-in by expanded name and arity. *)
val find : Xmlb.Qname.t -> arity:int -> impl option

(** [subsequence items start length]: [fn:subsequence] over [items],
    pulling only the prefix up to the end of the window its start and
    optional length arguments select. *)
val subsequence :
  Xdm_item.item Seq.t ->
  Xdm_item.sequence ->
  Xdm_item.sequence option ->
  Xdm_item.sequence

(** All registered (uri, local, min_arity, max_arity). *)
val catalog : unit -> (string * string * int * int) list

(** Register an additional builtin (used by hosts, e.g. the [browser:]
    function library). [max_arity] of [-1] means variadic. *)
val register :
  uri:string -> local:string -> min_arity:int -> max_arity:int -> impl -> unit
