(* The closure compiler: emits one OCaml closure per {!Core_ir} node,
   composed bottom-up at compile time, so a run performs direct calls
   instead of re-dispatching on the AST at every node. Variable access
   is a frame-array read (slots resolved by the lowering pass), hot
   shapes (FLWOR loops, literal ranges, single-origin forward steps)
   are specialized, and everything the compiler does not own delegates
   to the tree-walking {!Eval} — including the streaming, value-index
   and hash-join fast paths, which compiled code must reach, not
   bypass.

   Exact-parity rules the emitter follows:

   - every closure evaluates its operands in the order the
     corresponding [Eval.eval] arm does and then makes the one call to
     the evaluator's shared rule that arm makes, so error codes,
     messages and metric increments agree by construction;
   - effective-boolean contexts and bounded positional takes delegate
     to [Eval.eval_seq] on the original AST when streaming is on, so
     pull counters match the interpreter pull-for-pull;
   - [C_opaque] nodes rebind the frame's live ref cells into the
     dynamic context ({!Dynamic_context.bind_ref}) and hand the AST to
     [Eval.eval] — scripting assignment through the shared cells
     behaves exactly as interpreted code. *)

open Xmlb
module A = Xdm_atomic
module I = Xdm_item
module D = Dynamic_context
module C = Core_ir

type env = { ctx : D.t; frame : I.sequence ref array }
type fn_impl = D.t -> I.sequence list -> I.sequence

type prog_code = {
  body : (D.t -> I.sequence) option;
  fns : ((int * int * int) * fn_impl) list;
}

(* ablation switch, mirroring Eval.set_streaming *)
let enabled_flag = ref true
let set_compiled_eval b = enabled_flag := b
let enabled () = !enabled_flag

(* always-on counters for browser:stats(); the obs mirrors below are
   metric-guarded like every other instrumented subsystem *)
let stat_programs = ref 0
let stat_fns = ref 0
let stat_nodes = ref 0
let stat_opaque = ref 0

let stats () =
  [
    ("programs", !stat_programs);
    ("functions", !stat_fns);
    ("nodes", !stat_nodes);
    ("opaque-nodes", !stat_opaque);
  ]

(* ------------------------------------------------------------------ *)
(* interpreter bridges                                                 *)

type scope = (Qname.t * C.slot) list (* innermost first *)

(* Reconstruct a dynamic context whose locals are the frame's live ref
   cells, for handing an original AST back to the interpreter. Binding
   outermost-first lets inner bindings shadow, like lexical lookup. *)
let rebind_of (scope : scope) =
  let pairs = Array.of_list (List.rev scope) in
  fun env ->
    Array.fold_left
      (fun c (qn, s) -> D.bind_ref c qn env.frame.(s))
      env.ctx pairs

(* The eval_seq forms that pull through counting cursors; EBV contexts
   delegate exactly these so xdm.seq.pulls matches the interpreter. *)
let streams_natively (e : Ast.expr) =
  (not (Ast.is_updating e))
  &&
  match e with
  | Ast.E_sequence _ | Ast.E_range _ | Ast.E_if _ | Ast.E_step _
  | Ast.E_filter _ ->
      true
  | Ast.E_path (e1, Ast.E_step (axis, _, _)) -> (
      match Focus_analysis.seq_class e1 with
      | `One -> Focus_analysis.forward_ordered axis
      | `Sorted -> (
          match axis with Ast.Self | Ast.Attribute_axis -> true | _ -> false)
      | `Unknown -> false)
  | Ast.E_flwor { order = []; _ } -> true
  | Ast.E_hash_join j -> j.Ast.jorder = []
  | _ -> false

(* ------------------------------------------------------------------ *)
(* emission                                                            *)

let rec emit (scope : scope) (c : C.t) : env -> I.sequence =
  incr stat_nodes;
  match c.C.d with
  | C.C_atomic a ->
      let v = [ I.Atomic a ] in
      fun _ -> v
  | C.C_text_literal s -> fun _ -> [ I.Node (Dom.create_text s) ]
  | C.C_slot s -> fun env -> !(env.frame.(s))
  | C.C_free qn -> fun env -> D.lookup env.ctx qn
  | C.C_context_item -> fun env -> [ D.focus_item env.ctx ]
  | C.C_root -> fun env -> Eval.root env.ctx
  | C.C_sequence cs ->
      let fs = List.map (emit scope) cs in
      fun env -> List.concat_map (fun f -> f env) fs
  | C.C_range (a, b) ->
      let fa = emit scope a and fb = emit scope b in
      fun env ->
        let lo = Eval.range_endpoint (fa env) in
        Eval.range lo (Eval.range_endpoint (fb env))
  | C.C_if (cond, t, f) ->
      let fc = emit_ebv scope cond
      and ft = emit scope t
      and ff = emit scope f in
      fun env -> if fc env then ft env else ff env
  | C.C_or (a, b) ->
      let fa = emit_ebv scope a and fb = emit_ebv scope b in
      fun env ->
        if fa env then [ I.Atomic (A.Boolean true) ]
        else [ I.Atomic (A.Boolean (fb env)) ]
  | C.C_and (a, b) ->
      let fa = emit_ebv scope a and fb = emit_ebv scope b in
      fun env ->
        if not (fa env) then [ I.Atomic (A.Boolean false) ]
        else [ I.Atomic (A.Boolean (fb env)) ]
  | C.C_value_comp (op, a, b) ->
      let fa = emit scope a and fb = emit scope b in
      fun env ->
        let ra = fa env in
        Eval.value_comp op ra (fb env)
  | C.C_general_comp (op, a, b) ->
      let fa = emit scope a and fb = emit scope b in
      fun env ->
        let ra = fa env in
        Eval.general_comp op ra (fb env)
  | C.C_general_comp_stream (op, lhs_ast, b) ->
      let fb = emit scope b and rb = rebind_of scope in
      fun env ->
        if Eval.streaming_enabled () then
          let vb = fb env in
          Eval.general_comp_stream op (Eval.eval_seq (rb env) lhs_ast) vb
        else
          let ra = Eval.eval (rb env) lhs_ast in
          Eval.general_comp op ra (fb env)
  | C.C_node_comp (op, a, b) ->
      let fa = emit scope a and fb = emit scope b in
      fun env ->
        let na = fa env in
        Eval.node_comp op na (fb env)
  | C.C_arith (op, a, b) ->
      let fa = emit scope a and fb = emit scope b in
      let f = Eval.arith op in
      fun env ->
        let ra = fa env in
        f ra (fb env)
  | C.C_unary_minus a ->
      let fa = emit scope a in
      fun env -> Eval.unary_minus (fa env)
  | C.C_union (a, b) -> emit_set_op scope I.union a b
  | C.C_intersect (a, b) -> emit_set_op scope I.intersect a b
  | C.C_except (a, b) -> emit_set_op scope I.except a b
  | C.C_instance_of (a, st) ->
      let fa = emit scope a in
      fun env -> Eval.instance_of st (fa env)
  | C.C_treat_as (a, st) ->
      let fa = emit scope a in
      fun env -> Eval.treat_as st (fa env)
  | C.C_castable_as (a, ty, optional) ->
      let fa = emit scope a in
      fun env -> Eval.castable_as ty optional (fa env)
  | C.C_cast_as (a, ty, optional) ->
      let fa = emit scope a in
      fun env -> Eval.cast_as ty optional (fa env)
  | C.C_step (axis, test, preds, ast_preds) ->
      let pfs = List.map (emit scope) preds in
      with_bounded_take scope c.C.ast (fun env ->
          Eval.step env.ctx axis test ast_preds pfs ~filter env)
  | C.C_filter (e, preds) ->
      let fe = emit scope e in
      let pfs = List.map (emit scope) preds in
      with_bounded_take scope c.C.ast (fun env -> filter env (fe env) pfs)
  | C.C_path (a, b) ->
      let fa = emit scope a and fb = emit scope b in
      let eager_from env lhs =
        Eval.path env.ctx lhs (fun ctx -> fb { env with ctx })
      in
      let eager =
        (* hot shape: a predicate-free forward step over a singleton
           lhs emits document order directly (the invariant the
           streaming pipeline already relies on, {!Focus_analysis}),
           so the focus rebuild and the doc-order merge both drop out *)
        match b.C.d with
        | C.C_step (axis, test, [], [])
          when Focus_analysis.forward_ordered axis -> (
            fun env ->
              match fa env with
              | [] -> []
              | [ I.Node n ] ->
                  List.map (fun m -> I.Node m) (Eval.step_nodes axis test n)
              | lhs -> eager_from env lhs)
        | _ -> fun env -> eager_from env (fa env)
      in
      (* the interpreter's bounded-take clause additionally requires a
         provably ordered chain for paths *)
      if
        Focus_analysis.has_bounded_take c.C.ast
        && Focus_analysis.seq_class c.C.ast <> `Unknown
      then
        let rb = rebind_of scope in
        fun env ->
          if Eval.streaming_enabled () then
            Xdm_seq.to_list (Eval.eval_seq (rb env) c.C.ast)
          else eager env
      else eager
  | C.C_for { slot; pos_slot; var; pos_var; var_type; source; body } -> (
      let scope' = (var, slot) :: scope in
      let scope' =
        match (pos_var, pos_slot) with
        | Some pv, Some ps -> (pv, ps) :: scope'
        | _ -> scope'
      in
      let bodyf = emit scope' body in
      let coerce = Eval.coerce_binding var var_type in
      (* accumulate body results item by item instead of building a
         list of lists and concatenating: same order, one allocation
         less per iteration *)
      let push acc env =
        match bodyf env with
        | [] -> ()
        | [ x ] -> acc := x :: !acc
        | xs -> List.iter (fun x -> acc := x :: !acc) xs
      in
      let bind_at env i item =
        env.frame.(slot) <- ref (coerce [ item ]);
        match pos_slot with
        | Some ps -> env.frame.(ps) <- ref [ I.Atomic (A.Integer i) ]
        | None -> ()
      in
      match source.C.d with
      | C.C_range (ra, rb) ->
          (* hot shape: iterate the range without materialising it *)
          let fa = emit scope ra and fb = emit scope rb in
          fun env ->
            let lo = Eval.range_endpoint (fa env) in
            (match Eval.range_bounds lo (Eval.range_endpoint (fb env)) with
            | Some (lo, hi) ->
                let acc = ref [] in
                for i = lo to hi do
                  bind_at env (i - lo + 1) (I.Atomic (A.Integer i));
                  push acc env
                done;
                List.rev !acc
            | _ -> [])
      | _ ->
          let src = emit scope source in
          fun env ->
            let items = src env in
            let acc = ref [] in
            List.iteri (fun i item ->
                bind_at env (i + 1) item;
                push acc env)
              items;
            List.rev !acc)
  | C.C_let { slot; var; var_type; value; body } ->
      let fv = emit scope value in
      let bodyf = emit ((var, slot) :: scope) body in
      let coerce = Eval.coerce_binding var var_type in
      fun env ->
        env.frame.(slot) <- ref (coerce (fv env));
        bodyf env
  | C.C_where (cond, body) ->
      let fc = emit_ebv scope cond and bodyf = emit scope body in
      fun env -> if fc env then bodyf env else []
  | C.C_cast_call (ty, a) ->
      let fa = emit scope a in
      fun env -> Eval.constructor_cast ty (fa env)
  | C.C_builtin_call (qn, impl, args) ->
      let fs = List.map (emit scope) args in
      (* the impurity test is hoisted to emission time *)
      let impure = Reactive.impure_builtin_sym qn.Qname.lsym in
      fun env ->
        let vs = List.map (fun f -> f env) fs in
        Eval.call_builtin ~impure env.ctx impl vs
  | C.C_call (qn, args) ->
      let fs = List.map (emit scope) args in
      fun env ->
        let vs = List.map (fun f -> f env) fs in
        Eval.call_function env.ctx qn vs
  | C.C_direct_element { name; attributes; children } ->
      let attributes =
        List.map
          (fun (an, parts) ->
            ( an,
              List.map
                (function
                  | C.CA_text t -> `Text t
                  | C.CA_enclosed e -> `Enclosed (emit scope e))
                parts ))
          attributes
      in
      let children = List.map (emit scope) children in
      fun env ->
        Eval.direct_element name attributes
          ~part:(function `Text t -> `Text t | `Enclosed f -> `Value (f env))
          ~children:(fun () -> List.concat_map (fun f -> f env) children)
  | C.C_computed_element (name_c, content_c) ->
      let fn = emit scope name_c and fc = emit scope content_c in
      fun env ->
        let name = Eval.constructed_name env.ctx (fn env) in
        Eval.computed_element name (fun () -> fc env)
  | C.C_computed_attribute (name_c, content_c) ->
      let fn = emit scope name_c and fc = emit scope content_c in
      fun env ->
        let name = Eval.constructed_name env.ctx (fn env) in
        Eval.computed_attribute name (fc env)
  | C.C_computed_text a ->
      let fa = emit scope a in
      fun env -> Eval.computed_text (fa env)
  | C.C_computed_comment a ->
      let fa = emit scope a in
      fun env -> Eval.computed_comment (fa env)
  | C.C_computed_pi (name_c, content_c) ->
      let fn = emit scope name_c and fc = emit scope content_c in
      fun env ->
        let target = fn env in
        Eval.computed_pi target (fc env)
  | C.C_computed_document a ->
      let fa = emit scope a in
      fun env -> Eval.computed_document (fun () -> fa env)
  | C.C_opaque ast ->
      incr stat_opaque;
      if !Obs.Metrics.enabled then Obs.Metrics.incr "xquery.compile.opaque";
      let rb = rebind_of scope in
      fun env -> Eval.eval (rb env) ast

and emit_set_op scope op a b =
  let fa = emit scope a and fb = emit scope b in
  fun env ->
    let ra = fa env in
    Eval.set_op op ra (fb env)

(* effective boolean value of a compiled subexpression: natively
   streaming forms delegate to the interpreter's lazy cursors (same
   early exit, same pull counters); everything else uses the compiled
   closure — eval_seq would just materialise it anyway *)
and emit_ebv scope (c : C.t) : env -> bool =
  let f = emit scope c in
  if streams_natively c.C.ast then begin
    let rb = rebind_of scope in
    let ast = c.C.ast in
    fun env ->
      if Eval.streaming_enabled () then
        Xdm_seq.effective_boolean (Eval.eval_seq (rb env) ast)
      else I.effective_boolean (f env)
  end
  else fun env -> I.effective_boolean (f env)

(* the interpreter's top-level bounded-positional-take clause: when
   streaming, pull through eval_seq and stop at the bound *)
and with_bounded_take scope ast eager =
  if Focus_analysis.has_bounded_take ast && not (Ast.is_updating ast) then begin
    let rb = rebind_of scope in
    fun env ->
      if Eval.streaming_enabled () then
        Xdm_seq.to_list (Eval.eval_seq (rb env) ast)
      else eager env
  end
  else eager

(* a predicate chain over compiled predicates *)
and filter env items = function
  | [] -> items
  | pfs ->
      Eval.filter_items (fun ctx pf -> pf { env with ctx }) env.ctx items pfs

(* ------------------------------------------------------------------ *)
(* programs                                                            *)

let compile_expr static ?(params = []) e =
  let core, size = Core_ir.lower static ~params e in
  if Core_ir.is_opaque_root core then None
  else
    let scope = List.mapi (fun i qn -> (qn, i)) params in
    let f = emit (List.rev scope) core in
    Some (f, size)

let compile_fn static (decl : Ast.function_decl) :
    ((int * int * int) * fn_impl) option =
  let plain_body =
    match (decl.Ast.kind, decl.Ast.body) with
    | Ast.F_sequential, Some (Ast.E_block _) -> None
    | _, Some (Ast.E_block [ Ast.S_expr e ]) -> Some e
    | _, Some (Ast.E_block _) -> None
    | _, body -> body
  in
  match plain_body with
  | None -> None
  | Some body -> (
      let pnames = List.map fst decl.Ast.params in
      match compile_expr static ~params:pnames body with
      | None -> None
      | Some (bodyf, size) ->
          let key =
            D.fn_key decl.Ast.fname ~arity:(List.length decl.Ast.params)
          in
          let run fctx args =
            let frame = Array.init size (fun _ -> ref []) in
            List.iteri (fun i arg -> frame.(i) <- ref arg) args;
            bodyf { ctx = fctx; frame }
          in
          Some (key, fun ctx args -> Eval.call_user decl ctx args run))

let compile_prog static (prog : Ast.prog) : prog_code =
  incr stat_programs;
  if !Obs.Metrics.enabled then Obs.Metrics.incr "xquery.compile.programs";
  let fns =
    List.filter_map
      (function
        | Ast.P_function f -> (
            match compile_fn static f with
            | Some kf ->
                incr stat_fns;
                if !Obs.Metrics.enabled then
                  Obs.Metrics.incr "xquery.compile.fns";
                Some kf
            | None -> None)
        | _ -> None)
      prog.Ast.prolog
  in
  let body =
    match prog.Ast.body with
    | None -> None
    | Some e -> (
        match compile_expr static e with
        | None -> None
        | Some (f, size) ->
            Some
              (fun ctx ->
                f { ctx; frame = Array.init size (fun _ -> ref []) }))
  in
  { body; fns }
