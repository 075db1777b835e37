(* The desugared core the closure compiler emits code from.

   [of_ast] lowers the surface AST into a compact core:

   - variable references are resolved to integer frame slots at
     lowering time (each binding site gets a unique slot, so a run
     needs one pre-sized array instead of per-binding map inserts);
   - FLWOR clause lists are desugared into nested [C_for]/[C_let]/
     [C_where] loops around the return expression;
   - grouping sugar ([ordered {}], [unordered {}], [{e}]) disappears;
   - non-sequential single-statement blocks become their expression.

   Every core node keeps the surface expression it was lowered from
   ([ast]): the emitter consults it for the static shape analyses
   (bounded positional takes, sortedness, value-index probes) and to
   delegate to the tree-walking evaluator — [C_opaque] — for the forms
   the compiler does not specialize: anything updating, scripting
   blocks, typeswitch, transform, full-text, and order-by FLWORs and
   hash joins (whose tuple sort the evaluator owns). *)

open Xmlb
module A = Xdm_atomic

type slot = int

type t = { d : desc; ast : Ast.expr }

and desc =
  | C_atomic of A.t
  | C_text_literal of string
  | C_slot of slot  (** lexically resolved local binding *)
  | C_free of Qname.t  (** unresolved: global / host-bound variable *)
  | C_context_item
  | C_root
  | C_sequence of t list
  | C_range of t * t
  | C_if of t * t * t
  | C_or of t * t
  | C_and of t * t
  | C_value_comp of Ast.value_comp * t * t
  | C_general_comp of Ast.value_comp * t * t
  | C_node_comp of Ast.node_comp * t * t
  | C_arith of Ast.arith * t * t
  | C_unary_minus of t
  | C_union of t * t
  | C_intersect of t * t
  | C_except of t * t
  | C_instance_of of t * Ast.seq_type
  | C_treat_as of t * Ast.seq_type
  | C_castable_as of t * A.atomic_type * bool
  | C_cast_as of t * A.atomic_type * bool
  | C_step of Ast.axis * Ast.node_test * t list * Ast.expr list
      (** compiled predicates paired with their surface forms (for the
          value-index probe, which consumes the leading predicate) *)
  | C_path of t * t
  | C_filter of t * t list
  | C_for of {
      slot : slot;
      pos_slot : slot option;
      var : Qname.t;
      var_type : Ast.seq_type option;
      source : t;
      body : t;
    }
  | C_let of {
      slot : slot;
      var : Qname.t;
      var_type : Ast.seq_type option;
      value : t;
      body : t;
    }
  | C_where of t * t
  | C_quantified of Ast.quantifier * (slot * Ast.seq_type option * t) list * t
      (** each binding's source sees the bindings before it *)
  | C_hash_join of join  (** an unordered planner join *)
  | C_cast_call of A.atomic_type * t  (** xs: constructor function *)
  | C_builtin_call of Qname.t * Functions.impl * t list
      (** call statically resolved to an fn: builtin *)
  | C_call of Qname.t * t list  (** generic runtime-dispatched call *)
  | C_direct_element of {
      name : Qname.t;
      attributes : (Qname.t * attr_part list) list;
      children : t list;
    }
  | C_computed_element of t * t
  | C_computed_attribute of t * t
  | C_computed_text of t
  | C_computed_comment of t
  | C_computed_pi of t * t
  | C_computed_document of t
  | C_opaque of Ast.expr * (Qname.t * slot) list
      (** evaluated by the tree-walker, with the locals in scope
          (innermost first) rebound from the frame *)

and attr_part = CA_text of string | CA_enclosed of t

and join = {
  left_slot : slot;
  left_source : t;
  left_key : t;  (** sees the left variable *)
  right_slot : slot;
  right_source : t;
  right_key : t;  (** sees the right variable *)
  general : bool;
  where : t option;  (** sees both variables *)
  return : t;  (** sees both variables *)
}

(* ------------------------------------------------------------------ *)
(* lowering                                                            *)

(* lexical scope: innermost binding first *)
type scope = (string * (Qname.t * slot)) list

(* lowering state: the next free slot, the frame size so far, and the
   static context call sites resolve against *)
type st = { mutable next : slot; mutable high : slot; static : Static_context.t }

let fresh st =
  let s = st.next in
  st.next <- s + 1;
  if st.next > st.high then st.high <- st.next;
  s

let bind var slot scope = (Qname.to_clark var, (var, slot)) :: scope

let rec of_ast st (scope : scope) (e : Ast.expr) : t =
  let k d = { d; ast = e } in
  let sub e' = of_ast st scope e' in
  let opaque () = k (C_opaque (e, List.map snd scope)) in
  if Ast.is_updating e then opaque ()
  else
    match e with
    | Ast.E_literal a -> k (C_atomic a)
    | Ast.E_text_literal s -> k (C_text_literal s)
    | Ast.E_var qn -> (
        match List.assoc_opt (Qname.to_clark qn) scope with
        | Some (_, slot) -> k (C_slot slot)
        | None -> k (C_free qn))
    | Ast.E_context_item -> k C_context_item
    | Ast.E_root -> k C_root
    | Ast.E_sequence es -> k (C_sequence (List.map sub es))
    | Ast.E_range (a, b) -> k (C_range (sub a, sub b))
    | Ast.E_if (c, t, f) -> k (C_if (sub c, sub t, sub f))
    | Ast.E_or (a, b) -> k (C_or (sub a, sub b))
    | Ast.E_and (a, b) -> k (C_and (sub a, sub b))
    | Ast.E_value_comp (op, a, b) -> k (C_value_comp (op, sub a, sub b))
    | Ast.E_general_comp (op, a, b) -> k (C_general_comp (op, sub a, sub b))
    | Ast.E_node_comp (op, a, b) -> k (C_node_comp (op, sub a, sub b))
    | Ast.E_arith (op, a, b) -> k (C_arith (op, sub a, sub b))
    | Ast.E_unary_minus a -> k (C_unary_minus (sub a))
    | Ast.E_union (a, b) -> k (C_union (sub a, sub b))
    | Ast.E_intersect (a, b) -> k (C_intersect (sub a, sub b))
    | Ast.E_except (a, b) -> k (C_except (sub a, sub b))
    | Ast.E_instance_of (a, ty) -> k (C_instance_of (sub a, ty))
    | Ast.E_treat_as (a, ty) -> k (C_treat_as (sub a, ty))
    | Ast.E_castable_as (a, ty, opt) -> k (C_castable_as (sub a, ty, opt))
    | Ast.E_cast_as (a, ty, opt) -> k (C_cast_as (sub a, ty, opt))
    | Ast.E_step (axis, test, preds) ->
        k (C_step (axis, test, List.map sub preds, preds))
    | Ast.E_path (a, b) -> k (C_path (sub a, sub b))
    | Ast.E_filter (a, preds) -> k (C_filter (sub a, List.map sub preds))
    | Ast.E_flwor { clauses; where; order = []; return } ->
        { d = lower_flwor st scope clauses where return; ast = e }
    | Ast.E_flwor _ -> opaque () (* order-by: the evaluator's sort *)
    | Ast.E_quantified (quant, binds, body) ->
        let rec go scope acc = function
          | [] -> k (C_quantified (quant, List.rev acc, of_ast st scope body))
          | (var, var_type, src) :: rest ->
              let src = of_ast st scope src in
              let slot = fresh st in
              go (bind var slot scope) ((slot, var_type, src) :: acc) rest
        in
        go scope [] binds
    | Ast.E_hash_join j when j.Ast.jorder = [] ->
        let left_source = sub j.Ast.jleft_source in
        let left_slot = fresh st in
        let lscope = bind j.Ast.jleft_var left_slot scope in
        let left_key = of_ast st lscope j.Ast.jleft_key in
        let right_source = sub j.Ast.jright_source in
        let right_slot = fresh st in
        let right_key =
          of_ast st (bind j.Ast.jright_var right_slot scope) j.Ast.jright_key
        in
        let both = of_ast st (bind j.Ast.jright_var right_slot lscope) in
        let where = Option.map both j.Ast.jwhere in
        let return = both j.Ast.jreturn in
        k (C_hash_join { left_slot; left_source; left_key; right_slot;
                         right_source; right_key; general = j.Ast.jgeneral;
                         where; return })
    | Ast.E_call (qn, args) -> k (lower_call st scope qn args)
    | Ast.E_ordered a | Ast.E_unordered a | Ast.E_enclosed a ->
        { (sub a) with ast = e }
    | Ast.E_direct_element { name; attributes; children } ->
        k
          (C_direct_element
             {
               name;
               attributes =
                 List.map
                   (fun (an, parts) ->
                     ( an,
                       List.map
                         (function
                           | Ast.A_text s -> CA_text s
                           | Ast.A_enclosed e' -> CA_enclosed (sub e'))
                         parts ))
                   attributes;
               children = List.map sub children;
             })
    | Ast.E_computed_element (n, c) -> k (C_computed_element (sub n, sub c))
    | Ast.E_computed_attribute (n, c) -> k (C_computed_attribute (sub n, sub c))
    | Ast.E_computed_text a -> k (C_computed_text (sub a))
    | Ast.E_computed_comment a -> k (C_computed_comment (sub a))
    | Ast.E_computed_pi (n, c) -> k (C_computed_pi (sub n, sub c))
    | Ast.E_computed_document a -> k (C_computed_document (sub a))
    (* delegated wholesale: ordered, scripting, or rare *)
    | Ast.E_hash_join _ | Ast.E_typeswitch _
    | Ast.E_transform _ | Ast.E_ftcontains _ | Ast.E_block _
    | Ast.E_get_style _ ->
        opaque ()
    (* updating forms are caught by the [is_updating] guard above; this
       arm keeps the match exhaustive if new ones appear *)
    | Ast.E_insert _ | Ast.E_delete _ | Ast.E_replace _ | Ast.E_rename _
    | Ast.E_event_attach _ | Ast.E_event_detach _ | Ast.E_event_trigger _
    | Ast.E_set_style _ ->
        opaque ()

and lower_flwor st scope clauses where return =
  match clauses with
  | [] ->
      let ret = of_ast st scope return in
      let body =
        match where with
        | None -> ret
        | Some w -> { d = C_where (of_ast st scope w, ret); ast = return }
      in
      body.d
  | Ast.For_clause { var; pos_var; var_type; source } :: rest ->
      let source = of_ast st scope source in
      let slot = fresh st in
      let scope = bind var slot scope in
      let pos_slot, scope =
        match pos_var with
        | Some pv ->
            let ps = fresh st in
            (Some ps, bind pv ps scope)
        | None -> (None, scope)
      in
      let body =
        { d = lower_flwor st scope rest where return; ast = return }
      in
      C_for { slot; pos_slot; var; var_type; source; body }
  | Ast.Let_clause { var; var_type; value } :: rest ->
      let value = of_ast st scope value in
      let slot = fresh st in
      let scope = bind var slot scope in
      let body =
        { d = lower_flwor st scope rest where return; ast = return }
      in
      C_let { slot; var; var_type; value; body }

(* Call sites resolve through the compile-time static context exactly
   as {!Eval.call_function} would at run time: xs: constructors become
   direct casts, calls that resolve to an fn: builtin capture its
   implementation. Anything else — user functions (re-dispatched
   through the compiled-body table), externals, unknown names — stays
   a generic call through the evaluator, which repeats the full
   resolution per call. The cache key's static-context fingerprint
   guarantees a cached compilation is only replayed against a context
   with the same declarations, so compile-time resolution is safe. *)
and lower_call st scope qn args =
  let nargs = List.length args in
  let cargs () = List.map (of_ast st scope) args in
  let static = st.static in
  if Static_context.is_blocked static qn then C_call (qn, cargs ())
  else
    match qn.Qname.uri with
    | Some u when String.equal u Qname.Ns.xs && nargs = 1 -> (
        match A.type_of_name qn.Qname.local with
        | Some ty -> C_cast_call (ty, of_ast st scope (List.hd args))
        | None -> C_call (qn, cargs ()))
    | _ -> (
        if
          Option.is_some (Static_context.find_function static qn ~arity:nargs)
          || Option.is_some (Static_context.find_external static qn ~arity:nargs)
        then C_call (qn, cargs ())
        else
          match Functions.find qn ~arity:nargs with
          | Some impl -> C_builtin_call (qn, impl, cargs ())
          | None -> C_call (qn, cargs ()))

let lower static ?(params = []) (e : Ast.expr) : t * int =
  let st = { next = List.length params; high = List.length params; static } in
  let scope =
    List.rev
      (List.mapi (fun i qn -> (Qname.to_clark qn, (qn, i))) params)
  in
  let core = of_ast st scope e in
  (core, st.high)

let is_opaque_root c = match c.d with C_opaque _ -> true | _ -> false
