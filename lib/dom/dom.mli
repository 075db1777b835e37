(** A mutable DOM: the tree the browser renders and XQuery queries.

    This mirrors the W3C DOM core subset a browser scripting language
    needs — documents, elements, attributes, text, comments, processing
    instructions — with structural mutation, document order, and
    mutation observers (used by the browser runtime to track dirtying
    and to synchronise the window tree, cf. paper §5.2 where the XDM
    store wraps the DOM). *)

open Xmlb

type node

type kind =
  | Document
  | Element
  | Attribute
  | Text
  | Comment
  | Processing_instruction

exception Dom_error of string

(** {1 Construction} *)

val create_document : ?uri:string -> unit -> node
val create_element : ?attrs:(Qname.t * string) list -> Qname.t -> node
val create_attribute : Qname.t -> string -> node
val create_text : string -> node
val create_comment : string -> node
val create_pi : target:string -> string -> node

(** Deep copy; the copy has no parent and fresh node identities. *)
val clone : node -> node

(** {1 Inspection} *)

val kind : node -> kind

(** Unique node identity (creation order). *)
val id : node -> int

val name : node -> Qname.t option
val parent : node -> node option

(** Children, excluding attributes. Documents and elements only;
    other kinds return []. *)
val children : node -> node list

val attributes : node -> node list
val attribute : node -> Qname.t -> string option

(** Like {!attribute} but matches on local name only (namespace
    ignored) — convenient for HTML-ish documents. *)
val attribute_local : node -> string -> string option

(** Node value: attribute/text/comment/PI content; [None] for
    documents and elements. *)
val value : node -> string option

(** The URI a document node was created with ([fn:document-uri]). *)
val document_uri : node -> string option

val pi_target : node -> string option

(** The root of the tree containing the node (a document node if the
    tree is rooted in one, else the topmost element). *)
val root : node -> node

(** XDM string value: concatenation of descendant text for
    documents/elements, content otherwise. *)
val string_value : node -> string

val ancestors : node -> node list

(** Descendants in document order, excluding the node itself and
    attributes. *)
val descendants : node -> node list

val following_siblings : node -> node list
val preceding_siblings : node -> node list

(** [compare_order a b] orders nodes in document order. Nodes from
    different trees are ordered by their root's identity (stable,
    implementation-defined, as XDM permits). When acceleration is on
    (the default) this is an O(1) compare of cached per-document
    ordinals, relabelled lazily after mutations; the path-based
    comparison remains the fallback. *)
val compare_order : node -> node -> int

(** The path-based comparison, bypassing the order-key cache — the
    ablation baseline and the oracle the accelerated compare is tested
    against. Same contract as {!compare_order}. *)
val compare_order_naive : node -> node -> int

(** The node's cached position as a [(root id, ordinal)] pair that
    sorts consistently with {!compare_order} — lets bulk sorts fetch
    each key once instead of once per comparison. [None] when
    acceleration is off. *)
val order_key : node -> (int * int) option

(** {1 Acceleration}

    Each tree root lazily carries cached document-order keys and
    id/local-name element indexes, invalidated by a per-root
    generation counter bumped on every mutation and rebuilt on
    demand. The switch selects the naive implementations instead
    (same observable behaviour — used for ablation benchmarks and as
    the property-test oracle). Global; on by default. *)

val set_acceleration : bool -> unit
val acceleration_enabled : unit -> bool

(** {1 Value indexes}

    Per-root hash indexes keyed by [(local name, string value)]:
    attribute values mapped to their owning elements, and the string
    value of "flat" elements (no element children) mapped to those
    elements. Stamped with the same per-root generation counter as the
    other accel caches, so every mutation — including all PUL
    primitives — invalidates them; they rebuild lazily on the next
    lookup. Independent switch (on by default) so join/lookup
    ablations keep document-order keys. *)

val set_value_index : bool -> unit
val value_index_enabled : unit -> bool

(** {1 Interned-name fast paths}

    The [--no-interning] ablation switch, forwarded to the global
    [Xmlb.Sym] switch: gates [Qname.equal]/[compare] and the
    evaluator's symbol-keyed probes back to string comparison. The
    intern table itself and the symbol keying of the DOM indexes stay
    on either way (interning is a bijection, so both modes agree on
    every key); only the fast paths are ablated. Global; on by
    default. *)

val set_interned_fastpaths : bool -> unit
val interned_fastpaths_enabled : unit -> bool

(** Elements in the subtree of the given node (inclusive) owning an
    attribute with the given local name (any namespace) and exact
    value, in document order. [None] when the index cannot answer
    (switch off) — fall back to a scan. *)
val elements_by_attr_value : node -> local:string -> string -> node list option

(** Like {!elements_by_attr_value}, keyed by the pre-interned
    local-name symbol (no string hashing on the probe). *)
val elements_by_attr_value_sym :
  node -> local:Sym.t -> string -> node list option

(** Flat elements in the subtree of the given node (inclusive) with
    the given local name (any namespace) and exact string value, in
    document order. [None] when the index cannot answer (switch off,
    or some element with this local name has element children). *)
val elements_by_text_value : node -> local:string -> string -> node list option

(** Like {!elements_by_text_value}, keyed by the pre-interned
    local-name symbol. *)
val elements_by_text_value_sym :
  node -> local:Sym.t -> string -> node list option

(** Current accel generation of the tree containing the node (0 if no
    accel state yet). Bumped once per mutation; lets tests pin down
    cache-invalidation behaviour. *)
val generation : node -> int

val is_ancestor : ancestor:node -> node -> bool
val equal : node -> node -> bool

(** {1 Mutation}

    All mutation functions notify the observers registered on the
    mutated tree's root. *)

val append_child : parent:node -> node -> unit

(** [append_children ~parent kids] appends [kids] (distinct nodes), in
    order, after [parent]'s existing children in one pass, with a
    single [Children_changed parent] notification — the linear way to
    build a fresh tree. No-op for [[]]. *)
val append_children : parent:node -> node list -> unit

val insert_first : parent:node -> node -> unit
val insert_before : sibling:node -> node -> unit
val insert_after : sibling:node -> node -> unit

(** Detach from parent; no-op for parentless nodes. *)
val remove : node -> unit

(** Replace a node with a list of nodes (empty list = delete).
    @raise Dom_error if the node has no parent. *)
val replace : node -> node list -> unit

(** Set the value of an attribute/text/comment/PI node; for an element
    or document, replaces all children with a single text node
    (XQUF [replace value of node] semantics). *)
val set_value : node -> string -> unit

val rename : node -> Qname.t -> unit

(** Sets (or replaces) an attribute on an element. *)
val set_attribute : node -> Qname.t -> string -> unit

val remove_attribute : node -> Qname.t -> unit

(** Attach a parentless attribute node to an element. *)
val append_attribute : parent:node -> node -> unit

(** {1 Mutation observers}

    An observer is stored on its root node: it lives exactly as long
    as that node, and fires only while the node is a tree root (a root
    grafted under another tree falls silent until it is detached
    again). *)

type mutation =
  | Children_changed of node  (** the parent whose child list changed *)
  | Attribute_changed of node * Qname.t  (** element, attribute name *)
  | Value_changed of node
  | Renamed of node

type observer_id

(** Observe all mutations in the tree rooted at [root]. *)
val observe : root:node -> (mutation -> unit) -> observer_id

val unobserve : observer_id -> unit

(** Run [f] with observer notifications batched: mutations performed
    inside [f] queue their notifications and deliver them, in mutation
    order, when the outermost batch closes — so observers (and the
    footprint dirtiness pass) see one coherent post-apply changeset
    instead of mid-transaction state. Generation bumps stay immediate.
    Nestable; exception-safe (queued notifications still flush). *)
val with_batch : (unit -> 'a) -> 'a

(** {1 Conversion} *)

(** Build a document node from parsed XML. *)
val of_tree : Xml_parser.tree list -> node

val of_string : ?options:Xml_parser.options -> string -> node

(** Convert (element/text/comment/PI or document) to the immutable
    tree representation; a document converts to its children.  *)
val to_trees : node -> Xml_parser.tree list

val serialize : ?indent:bool -> node -> string
val pp : Format.formatter -> node -> unit

(** Find the first descendant element (including self if element) with
    the given [id] attribute value (HTML [getElementById]). Index-backed
    when acceleration is on; an early-exit scan otherwise. *)
val get_element_by_id : node -> string -> node option

(** All descendant elements (including self if element) with the given
    local name, any namespace, in document order. Index-backed when
    acceleration is on. The string entry point interns its argument;
    callers holding a [Qname.t] should pass the pre-interned symbol to
    {!get_elements_by_local_sym} so the index probe is pure int
    hashing. *)
val get_elements_by_local_name : node -> string -> node list

val get_elements_by_local_sym : node -> Sym.t -> node list

(** {1 Event-listener storage}

    The event types of {!Dom_event}, defined here so each node can
    carry its own listeners: a listener lives exactly as long as its
    node and follows it across detach and re-attach. Registration and
    dispatch are {!Dom_event}'s. *)

type phase = Capturing | At_target | Bubbling

type event = {
  event_type : string;  (** e.g. ["onclick"], ["stateChanged"] *)
  target : node;
  mutable current_target : node option;
  mutable phase : phase;
  mutable propagation_stopped : bool;
  mutable default_prevented : bool;
  detail : (string * string) list;
      (** event properties, e.g. [("button", "1"); ("altKey", "false")];
          exposed to XQuery as children of the event node (§4.3.2) *)
  payload : node option;
      (** structured payload, e.g. an async call result (§4.4) *)
}

type listener = {
  lid : int;
  ltype : string;  (** the event type listened for *)
  capture : bool;
  lname : string option;
  lcallback : event -> unit;
}

(** The node's listeners, in registration order. *)
val listeners : node -> listener list

val set_listeners : node -> listener list -> unit
