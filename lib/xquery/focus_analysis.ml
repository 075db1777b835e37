(* Static expression analyses shared by the optimizer and the closure
   compiler. Everything here is conservative: an unrecognized form
   counts as focus-dependent / positional / numeric, so consumers can
   only under-apply an optimisation, never miscompile. *)

open Xmlb
module A = Xdm_atomic

(* [a op b] ⟺ [b (mirror op) a] — operand swap, not negation *)
let mirror_comp : Ast.value_comp -> Ast.value_comp = function
  | Ast.Eq -> Ast.Eq
  | Ast.Ne -> Ast.Ne
  | Ast.Lt -> Ast.Gt
  | Ast.Le -> Ast.Ge
  | Ast.Gt -> Ast.Lt
  | Ast.Ge -> Ast.Le

let is_fn qn names =
  qn.Qname.uri = Some Qname.Ns.fn && List.mem qn.Qname.local names

(* ------------------------------------------------------------------ *)
(* generic one-level traversal                                         *)

(* Rebuild [e] with [f] applied to every direct subexpression
   (including those inside statements, full-text selections and
   constructor attribute parts). The recursion schemes built on top —
   the optimizer's rewriter, the focus analyses, variable substitution
   — are all instances of this. *)
let rec map_children f (e : Ast.expr) : Ast.expr =
  let g = f in
  match e with
  | Ast.E_literal _ | Ast.E_var _ | Ast.E_context_item | Ast.E_root
  | Ast.E_text_literal _ ->
      e
  | Ast.E_sequence es -> Ast.E_sequence (List.map g es)
  | Ast.E_range (a, b) -> Ast.E_range (g a, g b)
  | Ast.E_if (c, t, f) -> Ast.E_if (g c, g t, g f)
  | Ast.E_or (a, b) -> Ast.E_or (g a, g b)
  | Ast.E_and (a, b) -> Ast.E_and (g a, g b)
  | Ast.E_value_comp (op, a, b) -> Ast.E_value_comp (op, g a, g b)
  | Ast.E_general_comp (op, a, b) -> Ast.E_general_comp (op, g a, g b)
  | Ast.E_node_comp (op, a, b) -> Ast.E_node_comp (op, g a, g b)
  | Ast.E_ftcontains (a, sel) -> Ast.E_ftcontains (g a, map_ft f sel)
  | Ast.E_arith (op, a, b) -> Ast.E_arith (op, g a, g b)
  | Ast.E_unary_minus a -> Ast.E_unary_minus (g a)
  | Ast.E_union (a, b) -> Ast.E_union (g a, g b)
  | Ast.E_intersect (a, b) -> Ast.E_intersect (g a, g b)
  | Ast.E_except (a, b) -> Ast.E_except (g a, g b)
  | Ast.E_instance_of (a, st) -> Ast.E_instance_of (g a, st)
  | Ast.E_treat_as (a, st) -> Ast.E_treat_as (g a, st)
  | Ast.E_castable_as (a, ty, o) -> Ast.E_castable_as (g a, ty, o)
  | Ast.E_cast_as (a, ty, o) -> Ast.E_cast_as (g a, ty, o)
  | Ast.E_step (axis, test, preds) -> Ast.E_step (axis, test, List.map g preds)
  | Ast.E_path (a, b) -> Ast.E_path (g a, g b)
  | Ast.E_filter (a, preds) -> Ast.E_filter (g a, List.map g preds)
  | Ast.E_call (qn, args) -> Ast.E_call (qn, List.map g args)
  | Ast.E_ordered a -> Ast.E_ordered (g a)
  | Ast.E_unordered a -> Ast.E_unordered (g a)
  | Ast.E_enclosed a -> Ast.E_enclosed (g a)
  | Ast.E_flwor { clauses; where; order; return } ->
      let clauses =
        List.map
          (function
            | Ast.For_clause { var; pos_var; var_type; source } ->
                Ast.For_clause { var; pos_var; var_type; source = g source }
            | Ast.Let_clause { var; var_type; value } ->
                Ast.Let_clause { var; var_type; value = g value })
          clauses
      in
      Ast.E_flwor
        {
          clauses;
          where = Option.map g where;
          order = List.map (fun o -> { o with Ast.key = g o.Ast.key }) order;
          return = g return;
        }
  | Ast.E_hash_join j ->
      Ast.E_hash_join
        {
          j with
          jleft_source = g j.jleft_source;
          jleft_key = g j.jleft_key;
          jright_source = g j.jright_source;
          jright_key = g j.jright_key;
          jwhere = Option.map g j.jwhere;
          jorder = List.map (fun o -> { o with Ast.key = g o.Ast.key }) j.jorder;
          jreturn = g j.jreturn;
        }
  | Ast.E_quantified (q, binds, body) ->
      Ast.E_quantified
        (q, List.map (fun (v, t, e) -> (v, t, g e)) binds, g body)
  | Ast.E_typeswitch (op, cases, (dv, db)) ->
      Ast.E_typeswitch
        ( g op,
          List.map (fun c -> { c with Ast.case_body = g c.Ast.case_body }) cases,
          (dv, g db) )
  | Ast.E_direct_element { name; attributes; children } ->
      Ast.E_direct_element
        {
          name;
          attributes =
            List.map
              (fun (an, parts) ->
                ( an,
                  List.map
                    (function
                      | Ast.A_text t -> Ast.A_text t
                      | Ast.A_enclosed e -> Ast.A_enclosed (g e))
                    parts ))
              attributes;
          children = List.map g children;
        }
  | Ast.E_computed_element (a, b) -> Ast.E_computed_element (g a, g b)
  | Ast.E_computed_attribute (a, b) -> Ast.E_computed_attribute (g a, g b)
  | Ast.E_computed_text a -> Ast.E_computed_text (g a)
  | Ast.E_computed_comment a -> Ast.E_computed_comment (g a)
  | Ast.E_computed_pi (a, b) -> Ast.E_computed_pi (g a, g b)
  | Ast.E_computed_document a -> Ast.E_computed_document (g a)
  | Ast.E_insert (p, a, b) -> Ast.E_insert (p, g a, g b)
  | Ast.E_delete a -> Ast.E_delete (g a)
  | Ast.E_replace { value_of; target; source } ->
      Ast.E_replace { value_of; target = g target; source = g source }
  | Ast.E_rename (a, b) -> Ast.E_rename (g a, g b)
  | Ast.E_transform (binds, m, r) ->
      Ast.E_transform (List.map (fun (v, e) -> (v, g e)) binds, g m, g r)
  | Ast.E_block stmts -> Ast.E_block (List.map (map_stmt f) stmts)
  | Ast.E_event_attach { event; binding; target; listener } ->
      Ast.E_event_attach { event = g event; binding; target = g target; listener }
  | Ast.E_event_detach { event; target; listener } ->
      Ast.E_event_detach { event = g event; target = g target; listener }
  | Ast.E_event_trigger { event; target } ->
      Ast.E_event_trigger { event = g event; target = g target }
  | Ast.E_set_style { property; target; value } ->
      Ast.E_set_style { property = g property; target = g target; value = g value }
  | Ast.E_get_style { property; target } ->
      Ast.E_get_style { property = g property; target = g target }

and map_ft f = function
  | Ast.Ft_words (e, o) -> Ast.Ft_words (f e, o)
  | Ast.Ft_and (a, b) -> Ast.Ft_and (map_ft f a, map_ft f b)
  | Ast.Ft_or (a, b) -> Ast.Ft_or (map_ft f a, map_ft f b)
  | Ast.Ft_not a -> Ast.Ft_not (map_ft f a)

and map_stmt f = function
  | Ast.S_var_decl (v, t, e) -> Ast.S_var_decl (v, t, Option.map f e)
  | Ast.S_assign (v, e) -> Ast.S_assign (v, f e)
  | Ast.S_while (c, body) -> Ast.S_while (f c, List.map (map_stmt f) body)
  | (Ast.S_break | Ast.S_continue) as s -> s
  | Ast.S_exit_with e -> Ast.S_exit_with (f e)
  | Ast.S_expr e -> Ast.S_expr (f e)

(* [exists_expr p e]: does [p] hold for [e] or any (transitive)
   subexpression? *)
let exists_expr p e =
  let found = ref false in
  let rec walk e =
    if !found then e
    else if p e then begin
      found := true;
      e
    end
    else map_children walk e
  in
  ignore (walk e);
  !found

(* ------------------------------------------------------------------ *)
(* positional-predicate analysis                                       *)

(* A predicate can observe the focus position/size two ways:

   - its *value* may be numeric (a numeric predicate means "keep the
     item at this position");
   - it *mentions* fn:position()/fn:last() — directly, or through a
     call to a user/external function (this engine deliberately keeps
     the caller's focus visible inside function bodies, see
     {!Dynamic_context.function_scope}). *)

(* fn: builtins whose value is never numeric *)
let boolean_fns =
  [
    "not"; "exists"; "empty"; "boolean"; "true"; "false"; "contains";
    "starts-with"; "ends-with"; "matches"; "lang"; "deep-equal";
    "doc-available"; "codepoint-equal";
  ]

let string_fns =
  [
    "string"; "concat"; "string-join"; "substring"; "substring-before";
    "substring-after"; "normalize-space"; "upper-case"; "lower-case";
    "translate"; "replace"; "name"; "local-name"; "namespace-uri";
    "codepoints-to-string"; "encode-for-uri"; "string-pad";
  ]

let rec may_yield_number (e : Ast.expr) =
  match e with
  | Ast.E_literal a -> A.is_numeric a
  | Ast.E_text_literal _ -> false
  (* node sequences: a node-valued predicate is an existence test *)
  | Ast.E_root | Ast.E_context_item | Ast.E_step _ | Ast.E_path _
  | Ast.E_union _ | Ast.E_intersect _ | Ast.E_except _
  | Ast.E_direct_element _ | Ast.E_computed_element _
  | Ast.E_computed_attribute _ | Ast.E_computed_text _
  | Ast.E_computed_comment _ | Ast.E_computed_pi _ | Ast.E_computed_document _
    ->
      false
  (* boolean-valued forms *)
  | Ast.E_and _ | Ast.E_or _ | Ast.E_value_comp _ | Ast.E_general_comp _
  | Ast.E_node_comp _ | Ast.E_quantified _ | Ast.E_instance_of _
  | Ast.E_castable_as _ | Ast.E_ftcontains _ ->
      false
  | Ast.E_if (_, t, f) -> may_yield_number t || may_yield_number f
  | Ast.E_sequence es -> List.exists may_yield_number es
  | Ast.E_enclosed e | Ast.E_ordered e | Ast.E_unordered e
  | Ast.E_treat_as (e, _) ->
      may_yield_number e
  | Ast.E_filter (e, _) -> may_yield_number e
  | Ast.E_cast_as (_, (A.T_string | A.T_boolean | A.T_any_uri | A.T_qname), _)
    ->
      false
  | Ast.E_call (qn, _) when is_fn qn boolean_fns -> false
  | Ast.E_call (qn, _) when is_fn qn string_fns -> false
  (* arithmetic, ranges, variables, unknown calls, FLWORs, blocks …
     anything not provably non-numeric is treated as positional *)
  | _ -> true

let uses_focus e =
  exists_expr
    (function
      | Ast.E_call ({ Qname.local = "position" | "last"; uri = Some u; _ }, [])
        when u = Qname.Ns.fn ->
          true
      | Ast.E_call (qn, _) ->
          (* xs: constructors are casts; fn: builtins other than
             position/last never read the focus position; any other
             (user/external) function might, since function bodies see
             the caller's focus in this engine *)
          not (qn.Qname.uri = Some Qname.Ns.fn || qn.Qname.uri = Some Qname.Ns.xs)
      | _ -> false)
    e

let has_positional preds =
  List.exists (fun p -> may_yield_number p || uses_focus p) preds

(* needs-last / needs-position: does [e] observe the focus [size]
   (resp. [position])? Used by the closure compiler's streamed
   predicates — computing a focus size forces materialising the whole
   sequence, while position is a free incremental counter. Conservative
   like {!uses_focus}: opaque user/external calls count, because this
   engine keeps the caller's focus visible inside function bodies. *)
let uses_focus_component name e =
  exists_expr
    (function
      | Ast.E_call ({ Qname.local; uri = Some u; _ }, [])
        when u = Qname.Ns.fn && String.equal local name ->
          true
      | Ast.E_call (qn, _) ->
          not (qn.Qname.uri = Some Qname.Ns.fn || qn.Qname.uri = Some Qname.Ns.xs)
      | _ -> false)
    e

let uses_last e = uses_focus_component "last" e
let uses_position e = uses_focus_component "position" e

(* ------------------------------------------------------------------ *)
(* streaming shape analyses                                            *)

(* axes that emit distinct nodes in document order when expanded from
   a single origin node *)
let forward_ordered = function
  | Ast.Child | Ast.Descendant | Ast.Descendant_or_self | Ast.Attribute_axis
  | Ast.Self | Ast.Following_sibling | Ast.Following ->
      true
  | Ast.Parent | Ast.Ancestor | Ast.Ancestor_or_self | Ast.Preceding_sibling
  | Ast.Preceding ->
      false

(* Static sequence-shape lattice for the sorted-distinct-nodes flag:
   [`One] — at most one node; [`Sorted] — distinct nodes in document
   order; [`Unknown] — no guarantee. A step chain whose class is not
   [`Unknown] can stream without the document_order re-sort: a forward
   axis from a single origin emits document order directly, and
   self/attribute steps over a sorted stream keep it sorted. A child or
   descendant step over a *multi-node* sorted stream is not
   order-preserving in general (ancestor/descendant origins interleave),
   so it stays [`Unknown] and evaluates eagerly. *)
let rec seq_class (e : Ast.expr) : [ `One | `Sorted | `Unknown ] =
  match e with
  | Ast.E_root | Ast.E_context_item -> `One
  | Ast.E_step (axis, _, _) ->
      (* a bare step expands the (single) context item *)
      if forward_ordered axis then `Sorted else `Unknown
  | Ast.E_path (e1, Ast.E_step (axis, _, _)) -> (
      match seq_class e1 with
      | `One -> if forward_ordered axis then `Sorted else `Unknown
      | `Sorted -> (
          match axis with
          | Ast.Self | Ast.Attribute_axis -> `Sorted
          | _ -> `Unknown)
      | `Unknown -> `Unknown)
  | Ast.E_filter (e1, _) -> seq_class e1 (* predicates keep a subsequence *)
  | _ -> `Unknown

(* Early-exit predicate shapes: a numeric literal [k], or
   position() compared against an integer literal. [`Nth k] selects
   one item, [`First k] a bounded prefix — both stop pulling. *)
let is_position_call = function
  | Ast.E_call ({ Qname.local = "position"; uri = Some u; _ }, []) ->
      u = Qname.Ns.fn
  | _ -> false

let take_shape (pred : Ast.expr) =
  let of_comp (op : Ast.value_comp) k =
    match op with
    | Ast.Eq -> Some (`Nth k)
    | Ast.Le -> Some (`First k)
    | Ast.Lt -> Some (`First (k - 1))
    | Ast.Ne | Ast.Gt | Ast.Ge -> None
  in
  match pred with
  | Ast.E_literal (A.Integer k) -> Some (`Nth k)
  | Ast.E_value_comp (op, p, Ast.E_literal (A.Integer k))
  | Ast.E_general_comp (op, p, Ast.E_literal (A.Integer k))
    when is_position_call p ->
      of_comp op k
  | Ast.E_value_comp (op, Ast.E_literal (A.Integer k), p)
  | Ast.E_general_comp (op, Ast.E_literal (A.Integer k), p)
    when is_position_call p ->
      of_comp (mirror_comp op) k
  | _ -> None

(* operand forms whose lazy evaluation can skip meaningful work; tiny
   forms (a bare step, a variable, a literal) are cheaper eagerly and
   dominate predicate bodies evaluated once per context node *)
let worth_streaming = function
  | Ast.E_path _ | Ast.E_filter _ | Ast.E_range _ | Ast.E_flwor _ -> true
  | _ -> false

(* does the final step/filter of [e] carry a bounded take, making a
   top-level streamed evaluation worthwhile? *)
let rec has_bounded_take = function
  | Ast.E_step (_, _, preds) | Ast.E_filter (_, preds) ->
      List.exists (fun p -> Option.is_some (take_shape p)) preds
  | Ast.E_path (_, e2) -> has_bounded_take e2
  | _ -> false
