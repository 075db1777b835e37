(** DOM Level 3 events: registration, capture/target/bubble dispatch.

    The paper's event extension ([on event ... attach listener ...],
    §4.3) and JavaScript's [addEventListener] both compile down to this
    module. Listeners are stored on their node ({!Dom.listeners}), so a
    page's listeners become garbage with its DOM. *)

type phase = Dom.phase = Capturing | At_target | Bubbling

type event = Dom.event = {
  event_type : string;  (** e.g. ["onclick"], ["stateChanged"] *)
  target : Dom.node;
  mutable current_target : Dom.node option;
  mutable phase : phase;
  mutable propagation_stopped : bool;
  mutable default_prevented : bool;
  detail : (string * string) list;
      (** event properties, e.g. [("button", "1"); ("altKey", "false")];
          exposed to XQuery as children of the event node (§4.3.2) *)
  payload : Dom.node option;
      (** structured payload, e.g. an async call result (§4.4) *)
}

val make_event :
  ?detail:(string * string) list ->
  ?payload:Dom.node ->
  event_type:string ->
  target:Dom.node ->
  unit ->
  event

val stop_propagation : event -> unit
val prevent_default : event -> unit

(** Concrete so engine layers can key per-registration state (reactive
    memos) by it. *)
type listener_id = int

(** Invoked with every listener id dropped from its node — explicit
    removal or same-name replacement in {!add_listener} — so
    state keyed by listener id elsewhere is discarded with the
    registration instead of leaking. *)
val drop_hook : (listener_id -> unit) ref

(** [add_listener node ~event_type ~capture ~name f] registers [f].
    [name] identifies a named listener (an XQuery function QName) so
    the same function can later be detached; adding a listener with the
    same [name], [event_type] and [capture] replaces the old one, which
    matches DOM semantics of registering the same function twice. *)
val add_listener :
  Dom.node ->
  event_type:string ->
  ?capture:bool ->
  ?name:string ->
  (event -> unit) ->
  listener_id

(** Remove the listener with this id from the node it was added to;
    no-op if it is not there. *)
val remove_listener : Dom.node -> listener_id -> unit

(** Detach by name (paper's [detach listener] syntax). Returns the
    number of listeners removed. *)
val remove_named_listener :
  Dom.node -> event_type:string -> name:string -> int

(** Number of listeners currently attached to a node. *)
val listener_count : Dom.node -> int

(** Dispatch an event through capture, target and bubble phases along
    the ancestor chain of [event.target]. Returns [not default_prevented]. *)
val dispatch : event -> bool

(** Convenience: build and dispatch. *)
val fire :
  ?detail:(string * string) list ->
  ?payload:Dom.node ->
  event_type:string ->
  target:Dom.node ->
  unit ->
  bool

(** Total number of listener invocations since program start (used by
    benches and tests). *)
val invocation_count : unit -> int
