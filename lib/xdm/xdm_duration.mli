(** XML Schema durations: [xs:duration], [xs:yearMonthDuration],
    [xs:dayTimeDuration].

    A duration is a pair (months, seconds); the two components carry
    their own signs, matching the XDM value space where yearMonth and
    dayTime parts are not inter-convertible. *)

type t = { months : int; seconds : float }

(** A duration whose months no longer fit a native int or whose
    seconds are not finite (FODT0002): raised by {!of_string}, {!add}
    and {!scale} instead of wrapping. *)
exception Overflow of string

val zero : t
val make : ?months:int -> ?seconds:float -> unit -> t

(** Parse an ISO 8601 duration literal such as ["P1Y2M3DT4H5M6.7S"] or
    ["-PT90S"].
    @raise Failure on a malformed literal.
    @raise Overflow on a component out of range. *)
val of_string : string -> t

(** Canonical ISO 8601 form. *)
val to_string : t -> string

val equal : t -> t -> bool

(** Ordering is only total within yearMonth-only or dayTime-only
    durations; mixed durations compare by (months, seconds)
    lexicographically, as an implementation-defined total order.  *)
val compare : t -> t -> int

val add : t -> t -> t
val negate : t -> t
val scale : t -> float -> t

(** Is this a pure year-month duration (seconds = 0)? *)
val is_year_month : t -> bool

(** Is this a pure day-time duration (months = 0)? *)
val is_day_time : t -> bool

val pp : Format.formatter -> t -> unit
