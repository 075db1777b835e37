(** The XQuery evaluator: expressions, FLWOR, paths, constructors,
    updates (pending update lists), scripting blocks, and the browser
    extension expressions (dispatched to the host hooks).

    The tree-walker is eager: every subexpression is evaluated to a
    full sequence. It is the reference the closure compiler
    ({!Compile}), which owns lazy streaming, is tested against. *)

open Xmlb

(** Raised by the scripting [exit with] statement; caught at function
    and program boundaries. *)
exception Exit_with of Xdm_item.sequence

(** Raised by scripting [break]/[continue]; caught by the nearest
    enclosing [while] and converted to an error at function and
    program boundaries. *)
exception Break_loop

exception Continue_loop

(** Convert stray data-model exceptions ({!Xdm_atomic.Type_error},
    {!Xdm_atomic.Cast_error}, [Division_by_zero]) raised by [f] into
    {!Xq_error.Error}. All public entry points route through this. *)
val protect : (unit -> 'a) -> 'a

val eval : Dynamic_context.t -> Ast.expr -> Xdm_item.sequence

(** Evaluate a block of statements. [script] selects scripting
    semantics (updates applied at every statement boundary, paper
    §3.3); otherwise the block must be a single expression statement. *)
val eval_block :
  Dynamic_context.t -> script:bool -> Ast.statement list -> Xdm_item.sequence

(** Call a declared/external/built-in function by name with already
    evaluated arguments. *)
val call_function :
  Dynamic_context.t -> Qname.t -> Xdm_item.sequence list -> Xdm_item.sequence

(** Build a host listener that invokes the named function (padding or
    truncating arguments to its arity) and then applies pending
    updates — the paper's listener execution cycle (Fig. 1). *)
val make_listener : Dynamic_context.t -> Qname.t -> Dynamic_context.listener

(** {2 Shared rules}

    The evaluator's rules for one construct each, taking operands that
    are already evaluated. Each arm of {!eval} and each closure that
    {!Compile} emits evaluates its operands and then makes one call
    here, so compiled and interpreted code raise the same errors and
    bump the same metrics by construction. *)

(** {3 Comparisons and arithmetic} *)

val bool_seq : bool -> Xdm_item.sequence

val value_comp :
  Ast.value_comp -> Xdm_item.sequence -> Xdm_item.sequence -> Xdm_item.sequence

val general_comp :
  Ast.value_comp -> Xdm_item.sequence -> Xdm_item.sequence -> Xdm_item.sequence

(** [general_comp_stream op lhs rhs]: the existential comparison pulling
    the lhs through its cursor, stopping at the first matching pair. *)
val general_comp_stream :
  Ast.value_comp -> Xdm_seq.t -> Xdm_item.sequence -> Xdm_item.sequence

val node_comp :
  Ast.node_comp -> Xdm_item.sequence -> Xdm_item.sequence -> Xdm_item.sequence

(** [arith op] picks the operation once; the result applies it, with a
    direct int path for integer operands. *)
val arith : Ast.arith -> Xdm_item.sequence -> Xdm_item.sequence -> Xdm_item.sequence

val unary_minus : Xdm_item.sequence -> Xdm_item.sequence

(** [set_op op ra rb] applies {!Xdm_item.union}, [intersect] or
    [except]. *)
val set_op :
  (Xdm_item.sequence -> Xdm_item.sequence -> Xdm_item.sequence) ->
  Xdm_item.sequence ->
  Xdm_item.sequence ->
  Xdm_item.sequence

(** {3 Types} *)

val instance_of : Ast.seq_type -> Xdm_item.sequence -> Xdm_item.sequence
val treat_as : Ast.seq_type -> Xdm_item.sequence -> Xdm_item.sequence

(** [castable_as ty optional v] / [cast_as ty optional v]; [optional]
    is the [?] after the target type. *)
val castable_as :
  Xdm_atomic.atomic_type -> bool -> Xdm_item.sequence -> Xdm_item.sequence

val cast_as :
  Xdm_atomic.atomic_type -> bool -> Xdm_item.sequence -> Xdm_item.sequence

(** The [xs:] constructor function for a type (counted as a call). *)
val constructor_cast :
  Xdm_atomic.atomic_type -> Xdm_item.sequence -> Xdm_item.sequence

(** {3 Paths and predicates} *)

(** [/]: the root of the focus node. *)
val root : Dynamic_context.t -> Xdm_item.sequence

(** Nodes selected by one axis step (uses the local-name index for
    descendant name tests when DOM acceleration is on). *)
val step_nodes : Ast.axis -> Ast.node_test -> Dom.node -> Dom.node list

(** The same selection as a lazy producer: nothing is selected, and no
    step is counted, before the first pull; a scan then walks the axis
    only as far as it is pulled. *)
val step_node_seq : Ast.axis -> Ast.node_test -> Dom.node -> Dom.node Seq.t

(** [value_index_step axis test ast_preds n]: the nodes in document
    order when the value index answers the leading predicate of
    [ast_preds] (which is then consumed: the second component is the
    rest), [None] when the axis must be scanned. *)
val value_index_step :
  Ast.axis ->
  Ast.node_test ->
  Ast.expr list ->
  Dom.node ->
  (Dom.node list * Ast.expr list) option

val node_items : Dom.node list -> Xdm_item.sequence

(** The errors for an axis step from an atomic context item and for a
    path step over an atomic value. *)
val atomic_context_step : unit -> 'a

val atomic_path_step : unit -> 'a

(** [step ctx axis test ast_preds preds ~filter x]: one axis step from
    the focus node. A leading [@k eq 'lit']-style predicate is served
    from the value index when possible (and consumed); [filter x]
    applies the remaining [preds]. [ast_preds] are the surface forms of
    [preds]. *)
val step :
  Dynamic_context.t ->
  Ast.axis ->
  Ast.node_test ->
  Ast.expr list ->
  'p list ->
  filter:('x -> Xdm_item.sequence -> 'p list -> Xdm_item.sequence) ->
  'x ->
  Xdm_item.sequence

(** [path ctx lhs rhs]: [rhs] once per lhs item as the focus; the
    results in document order, or XPTY0018 for a node/atomic mix. *)
val path :
  Dynamic_context.t ->
  Xdm_item.sequence ->
  (Dynamic_context.t -> Xdm_item.sequence) ->
  Xdm_item.sequence

(** [predicate_keeps v pos]: does a predicate value [v] keep the item
    at position [pos]? *)
val predicate_keeps : Xdm_item.sequence -> int -> bool

(** [filter_items eval_pred ctx items preds]: a predicate chain. A
    numeric predicate value keeps the item at that position, any other
    value keeps it by its effective boolean value. *)
val filter_items :
  (Dynamic_context.t -> 'p -> Xdm_item.sequence) ->
  Dynamic_context.t ->
  Xdm_item.sequence ->
  'p list ->
  Xdm_item.sequence

(** {3 Bindings, ranges and calls} *)

(** The coercion of a binding to its declared type, if any. *)
val coerce_binding :
  Qname.t -> Ast.seq_type option -> Xdm_item.sequence -> Xdm_item.sequence

(** A range operand as an integer; [None] when it is empty. *)
val range_endpoint : Xdm_item.sequence -> int option

val range_bounds : int option -> int option -> (int * int) option
val range : int option -> int option -> Xdm_item.sequence

(** [quantify quant var_type test items]: [some]/[every] over one
    binding's items, coerced to [var_type]; stops at the first deciding
    item. *)
val quantify :
  Ast.quantifier ->
  Ast.seq_type option ->
  (Xdm_item.item -> bool) ->
  Xdm_item.item Seq.t ->
  bool

(** [hash_join ~general ~build ~build_key ~probe_key probe]: the
    planner's equi-join. The build side ([build ()], keyed by
    [build_key]) is hashed at the first probe item; each probe item
    ([probe_key]) yields its (probe, build) pairs lazily, in
    nested-loop order, with the nested loop's errors. *)
val hash_join :
  general:bool ->
  build:(unit -> Xdm_item.sequence) ->
  build_key:(Xdm_item.item -> Xdm_item.sequence) ->
  probe_key:(Xdm_item.item -> Xdm_item.sequence) ->
  Xdm_item.item Seq.t ->
  (Xdm_item.item * Xdm_item.item) Seq.t

(** Call a builtin implementation; [impure] poisons the footprint of a
    recorded listener run. *)
val call_builtin :
  impure:bool ->
  Dynamic_context.t ->
  Functions.impl ->
  Xdm_item.sequence list ->
  Xdm_item.sequence

(** [call_early_exit f]: a builtin call whose body [f] pulls its
    argument cursors itself; counted like {!call_builtin}. *)
val call_early_exit : (unit -> Xdm_item.sequence) -> Xdm_item.sequence

(** The boundary of a function or program body: maps [exit with] to its
    value, a stray [break]/[continue] to XSST0010, and data-model
    exceptions as {!protect} does. *)
val run_body : (unit -> Xdm_item.sequence) -> Xdm_item.sequence

(** [call_user decl ctx args run]: a user-function call. Checks the
    recursion depth, coerces the arguments, runs [run] with the function
    scope and the coerced arguments inside {!run_body}, and coerces the
    result. *)
val call_user :
  Ast.function_decl ->
  Dynamic_context.t ->
  Xdm_item.sequence list ->
  (Dynamic_context.t -> Xdm_item.sequence list -> Xdm_item.sequence) ->
  Xdm_item.sequence

(** {3 Constructors}

    Each creates its node before evaluating the content thunk. *)

(** [direct_element name attributes ~part ~children]: [part] classifies
    an attribute part as literal [`Text] or the [`Value] of an enclosed
    expression. *)
val direct_element :
  Qname.t ->
  (Qname.t * 'a list) list ->
  part:('a -> [ `Text of string | `Value of Xdm_item.sequence ]) ->
  children:(unit -> Xdm_item.sequence) ->
  Xdm_item.sequence

(** The name of a computed element or attribute constructor. *)
val constructed_name : Dynamic_context.t -> Xdm_item.sequence -> Qname.t

val computed_element :
  Qname.t -> (unit -> Xdm_item.sequence) -> Xdm_item.sequence

val computed_attribute : Qname.t -> Xdm_item.sequence -> Xdm_item.sequence
val computed_text : Xdm_item.sequence -> Xdm_item.sequence
val computed_comment : Xdm_item.sequence -> Xdm_item.sequence
val computed_pi : Xdm_item.sequence -> Xdm_item.sequence -> Xdm_item.sequence
val computed_document : (unit -> Xdm_item.sequence) -> Xdm_item.sequence
