(** Global string interning: hash-consed names as integer symbols.

    Every distinct string interned gets a small non-negative int that
    is stable for the lifetime of the process, so symbol equality is
    string equality and the innermost comparisons of name tests, index
    probes and footprint intersections become int operations. The table
    only grows — interned strings are never collected — which is the
    right trade for names (documents reuse a small vocabulary) and is
    observable through {!stats} / the [browser:stats()] [sym] element.
    {!Qname.t} carries pre-interned symbols unconditionally. *)

type t = private int

(** Intern a string, returning its symbol. O(1) amortised; the first
    intern of a string stores it permanently. *)
val intern : string -> t

(** Probe without interning: [None] if the string was never interned
    (so nothing in the process can be keyed by it). *)
val find_opt : string -> t option

(** The string a symbol stands for. O(1). *)
val name : t -> string

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

(** {1 Stats} *)

val size : unit -> int

(** Total bytes of interned string payload. *)
val bytes : unit -> int

(** [intern] calls that found an existing entry / created one. *)
val hits : unit -> int

val misses : unit -> int
val stats : unit -> (string * int) list
