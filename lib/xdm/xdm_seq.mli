(** Lazy pull-cursors over XDM sequences, the streaming pipeline's
    currency. A cursor is an [Xdm_item.item Seq.t] plus static flags
    derived from the producing expression:

    - [sorted] — the items are distinct nodes in document order, so
      consumers (notably path combination) can skip the
      {!Xdm_item.document_order} re-sort;
    - [at_most_one] — the producer statically yields ≤ 1 item.

    Cursors are single-shot; pulls from cold producers and
    materialisations are counted on the [xdm.seq.pulls] /
    [xdm.seq.materializations] {!Obs.Metrics} counters (only when
    metrics are enabled). *)

type t

val pulls_metric : string
val materialize_metric : string

val make : ?sorted:bool -> ?at_most_one:bool -> Xdm_item.item Seq.t -> t
(** Wrap a sequence without pull counting (already-materialised or
    derived producers). Flags default to [false]. *)

val of_seq : ?sorted:bool -> ?at_most_one:bool -> Xdm_item.item Seq.t -> t
(** Wrap a cold producer; every delivered item bumps [xdm.seq.pulls]. *)

val of_node_seq : ?sorted:bool -> Dom.node Seq.t -> t
val of_list : ?sorted:bool -> Xdm_item.sequence -> t
val empty : t
val singleton : Xdm_item.item -> t
val items : t -> Xdm_item.item Seq.t
val sorted : t -> bool
val at_most_one : t -> bool

val to_list : t -> Xdm_item.sequence
(** Drain the cursor; bumps [xdm.seq.materializations]. *)

val uncons : t -> (Xdm_item.item * Xdm_item.item Seq.t) option
val head : t -> Xdm_item.item option
val is_empty : t -> bool

val take : int -> t -> t
(** First [n] items ([n <= 0] gives the empty cursor). *)

val nth : int -> t -> Xdm_item.item option
(** 1-based; pulls at most [k] items. *)

val filter : (Xdm_item.item -> bool) -> t -> t
val filteri : (int -> Xdm_item.item -> bool) -> t -> t
val map : (Xdm_item.item -> Xdm_item.item) -> t -> t
val concat_map : (Xdm_item.item -> t) -> t -> t

val effective_boolean : t -> bool
(** EBV with a bounded pull (≤ 2 items); semantics — and errors —
    match {!Xdm_item.effective_boolean}. *)
