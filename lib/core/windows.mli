(** The browser window/frame tree, and its materialization as XML
    window nodes — the heart of the paper's §4.2.1: [browser:top()]
    returns an XML element describing the topmost window; frames nest
    as [<frames><window…/></frames>]; the element can be navigated
    with XPath and *updated* with the XQuery Update Facility, with a
    pull-style same-origin check so cross-origin windows are opaque. *)

(** The XQuery state of the page loaded in a window: one static and
    one dynamic context shared by all of the page's XQuery scripts
    (the prolog accumulates, Fig. 1). Owned by the window, so it lives
    until the next page load replaces it or the window is collected. *)
type page = {
  static : Xquery.Static_context.t;
  mutable ctx : Xquery.Dynamic_context.t;
}

type t = {
  wid : int;
  mutable wname : string;
  mutable status : string;
  mutable href : string;
  mutable document : Dom.node;
  mutable frames : t list;
  mutable parent : t option;
  mutable history_back : string list;
  mutable history_forward : string list;
  mutable last_modified : string;
  mutable closed : bool;
  mutable screen_x : int;
  mutable screen_y : int;
  mutable outer_width : int;
  mutable outer_height : int;
  mutable page : page option;
      (** set by [Page] once the loaded page needs an XQuery context *)
}

(** Window geometry ([windowMoveBy]/[windowMoveTo] of §4.2.4). *)
val move_by : t -> dx:int -> dy:int -> unit

val move_to : t -> x:int -> y:int -> unit

val create : ?name:string -> ?href:string -> unit -> t
val add_frame : parent:t -> t -> unit
val remove_frame : t -> unit
val top : t -> t
val origin : t -> Origin.t

(** Find a window by name anywhere under (and including) a root. *)
val find_by_name : t -> string -> t option

(** {1 History & navigation} *)

(** Change location, pushing the old href onto the back history. *)
val navigate : t -> string -> unit

val history_back : t -> unit
val history_forward : t -> unit

(** [history_go w (-2)] — negative is back, positive forward. *)
val history_go : t -> int -> unit

(** {1 Materialization (pull with security checks)} *)

type view

(** Materialize the tree rooted at [w] as XML. Windows whose origin
    fails [policy] w.r.t. [accessor] materialize as empty [<window/>]
    shells — observationally "all accessors return the empty sequence"
    (§4.2.1). Mutations made to the XML (via XQuery Update) write back
    into the window objects, re-checked against the policy at apply
    time; a change to [location/href] triggers [on_navigate]. *)
val materialize :
  ?policy:Origin.policy ->
  ?on_navigate:(t -> string -> unit) ->
  accessor:Origin.t ->
  t ->
  view

val view_root : view -> Dom.node

(** The materialized element for a given window, if accessible. *)
val node_of_window : view -> t -> Dom.node option

(** The window behind a materialized element (or a descendant of it). *)
val window_of_node : view -> Dom.node -> t option

(** The window registered for exactly this element ([None] for
    cross-origin shells and non-window nodes). *)
val window_at : view -> Dom.node -> t option

(** Stop observing write-backs. *)
val release : view -> unit

(** Number of write-backs rejected by the security policy (telemetry
    for tests and the T3 bench). *)
val rejected_writes : view -> int
