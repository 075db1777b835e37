(* The closure compiler: emits one OCaml closure per {!Core_ir} node,
   composed bottom-up at compile time, so a run performs direct calls
   instead of re-dispatching on the AST at every node. Variable access
   is a frame-array read (slots resolved by the lowering pass), hot
   shapes (FLWOR loops, literal ranges, single-origin forward steps)
   are specialized, and the forms the compiler does not own
   ([C_opaque]) run on the tree-walking {!Eval}, the eager reference.

   [emit] returns a node's sequence, [emit_seq] a lazy pull cursor
   ({!Xdm_seq}): the engine's only streaming. Effective-boolean
   contexts, bounded positional takes, fn:exists/empty/head/boolean/
   not/subsequence, count against an integer literal, the existential
   general comparison and quantifiers pull through [emit_seq] and stop
   at the deciding item.

   Every closure evaluates its operands in the order the corresponding
   [Eval.eval] arm does and then makes the one call to the evaluator's
   shared rule that arm makes, so error codes, messages and metric
   increments agree by construction (a streaming consumer may stop
   before an error the eager reference raises in an item it never
   needed). *)

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

(* ablation switch: off runs the tree-walking reference *)
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
(* emission helpers                                                    *)

(* A FLWOR [for] binds the [i]-th item of its source (and [i]). *)
let for_binder ~slot ~pos_slot ~var ~var_type =
  let coerce = Eval.coerce_binding var var_type in
  fun env i item ->
    env.frame.(slot) <- ref (coerce [ item ]);
    match pos_slot with
    | Some ps -> env.frame.(ps) <- ref [ I.Atomic (A.Integer i) ]
    | None -> ()

(* A FLWOR [let] binds its value. *)
let let_binder ~slot ~var ~var_type fv =
  let coerce = Eval.coerce_binding var var_type in
  fun env -> env.frame.(slot) <- ref (coerce (fv env))

(* the predicate stages of a step or filter, applied to a cursor *)
let apply_stages env cur stages =
  List.fold_left (fun cur stage -> stage env cur) cur stages

(* One axis step from [n] as a cursor: the value index answers the
   leading predicate when it can (consuming its stage), otherwise the
   lazy producer walks the axis. *)
let step_from env axis test ast_preds stages n =
  match Eval.value_index_step axis test ast_preds n with
  | Some (nodes, _) ->
      apply_stages env
        (Xdm_seq.of_list ~sorted:true (Eval.node_items nodes))
        (List.tl stages)
  | None ->
      let sorted = Focus_analysis.forward_ordered axis in
      apply_stages env
        (Xdm_seq.of_node_seq ~sorted (Eval.step_node_seq axis test n))
        stages

(* fn: builtins that take their first argument as a cursor and pull
   only what decides the result: exists/empty/head one item,
   boolean/not two, subsequence the prefix up to its window's end. A
   [C_builtin_call] is a call that resolved to the builtin, so the
   choice is made at emit time. *)
let early_exit (qn : Qname.t) nargs =
  let bool f = Some (fun cur _ -> Eval.bool_seq (f cur)) in
  if qn.Qname.uri <> Some Qname.Ns.fn then None
  else
    match (qn.Qname.local, nargs) with
    | "exists", 1 -> bool (fun cur -> not (Xdm_seq.is_empty cur))
    | "empty", 1 -> bool Xdm_seq.is_empty
    | "boolean", 1 -> bool Xdm_seq.effective_boolean
    | "not", 1 -> bool (fun cur -> not (Xdm_seq.effective_boolean cur))
    | "head", 1 -> Some (fun cur _ -> Option.to_list (Xdm_seq.head cur))
    | "subsequence", (2 | 3) ->
        Some
          (fun cur bounds ->
            Functions.subsequence (Xdm_seq.items cur) (List.hd bounds)
              (List.nth_opt bounds 1))
    | _ -> None

(* ------------------------------------------------------------------ *)
(* emission                                                            *)

let rec emit (c : C.t) : env -> I.sequence =
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
      let fs = List.map emit cs in
      fun env -> List.concat_map (fun f -> f env) fs
  | C.C_range (a, b) ->
      let fa = emit a and fb = emit b in
      fun env ->
        let lo = Eval.range_endpoint (fa env) in
        Eval.range lo (Eval.range_endpoint (fb env))
  | C.C_if (cond, t, f) ->
      let fc = emit_ebv cond and ft = emit t and ff = emit f in
      fun env -> if fc env then ft env else ff env
  | C.C_or (a, b) ->
      let fa = emit_ebv a and fb = emit_ebv b in
      fun env -> Eval.bool_seq (fa env || fb env)
  | C.C_and (a, b) ->
      let fa = emit_ebv a and fb = emit_ebv b in
      fun env -> Eval.bool_seq (fa env && fb env)
  (* count(e) op k against an integer literal (the optimizer moves the
     literal to the right): from m = min(count(e), k+1) pulled items,
     m op k ⟺ count(e) op k *)
  | C.C_value_comp
      ( op,
        { d = C.C_builtin_call (qn, _, [ arg ]); _ },
        { d = C.C_atomic (A.Integer k); _ } )
  | C.C_general_comp
      ( op,
        { d = C.C_builtin_call (qn, _, [ arg ]); _ },
        { d = C.C_atomic (A.Integer k); _ } )
    when qn.Qname.uri = Some Qname.Ns.fn && qn.Qname.local = "count" ->
      let fa = emit_seq arg and vk = [ I.Atomic (A.Integer k) ] in
      let bound = if k >= max_int - 1 then max_int else max 0 (k + 1) in
      fun env ->
        let m =
          Eval.call_early_exit (fun () ->
              let pulled = Seq.take bound (Xdm_seq.items (fa env)) in
              [ I.Atomic (A.Integer (Seq.length pulled)) ])
        in
        Eval.value_comp op m vk
  | C.C_value_comp (op, a, b) ->
      let fa = emit a and fb = emit b in
      fun env ->
        let ra = fa env in
        Eval.value_comp op ra (fb env)
  | C.C_general_comp (op, a, b) when Focus_analysis.worth_streaming a.C.ast ->
      (* materialise the (usually small) rhs, stream the lhs *)
      let fa = emit_seq a and fb = emit b in
      fun env ->
        let vb = fb env in
        Eval.general_comp_stream op (fa env) vb
  | C.C_general_comp (op, a, b) ->
      let fa = emit a and fb = emit b in
      fun env ->
        let ra = fa env in
        Eval.general_comp op ra (fb env)
  | C.C_node_comp (op, a, b) ->
      let fa = emit a and fb = emit b in
      fun env ->
        let na = fa env in
        Eval.node_comp op na (fb env)
  | C.C_arith (op, a, b) ->
      let fa = emit a and fb = emit b in
      let f = Eval.arith op in
      fun env ->
        let ra = fa env in
        f ra (fb env)
  | C.C_unary_minus a ->
      let fa = emit a in
      fun env -> Eval.unary_minus (fa env)
  | C.C_union (a, b) -> emit_set_op I.union a b
  | C.C_intersect (a, b) -> emit_set_op I.intersect a b
  | C.C_except (a, b) -> emit_set_op I.except a b
  | C.C_instance_of (a, st) ->
      let fa = emit a in
      fun env -> Eval.instance_of st (fa env)
  | C.C_treat_as (a, st) ->
      let fa = emit a in
      fun env -> Eval.treat_as st (fa env)
  | C.C_castable_as (a, ty, optional) ->
      let fa = emit a in
      fun env -> Eval.castable_as ty optional (fa env)
  | C.C_cast_as (a, ty, optional) ->
      let fa = emit a in
      fun env -> Eval.cast_as ty optional (fa env)
  (* a bounded positional take in the final step ((//x)[1],
     //x[position() le 10]) streams and stops pulling at the bound; a
     path does only when its chain is provably document-ordered, so no
     re-sort is skipped unsoundly *)
  | (C.C_step _ | C.C_filter _ | C.C_path _)
    when Focus_analysis.has_bounded_take c.C.ast && sorted_chain c ->
      let f = Option.get (native_seq c) in
      fun env -> Xdm_seq.to_list (f env)
  | C.C_step (axis, test, preds, ast_preds) ->
      let pfs = List.map emit preds in
      fun env -> Eval.step env.ctx axis test ast_preds pfs ~filter env
  | C.C_filter (e, preds) ->
      let fe = emit e and pfs = List.map emit preds in
      fun env -> filter env (fe env) pfs
  | C.C_path (a, b) -> (
      let fa = emit a and fb = emit b in
      let eager_from env lhs =
        Eval.path env.ctx lhs (fun ctx -> fb { env with ctx })
      in
      (* hot shape: a predicate-free forward step over a singleton lhs
         emits document order directly (the invariant a streamed path
         relies on), so the focus rebuild and the doc-order merge both
         drop out *)
      match b.C.d with
      | C.C_step (axis, test, [], []) when Focus_analysis.forward_ordered axis
        -> (
          fun env ->
            match fa env with
            | [] -> []
            | [ I.Node n ] -> Eval.node_items (Eval.step_nodes axis test n)
            | lhs -> eager_from env lhs)
      | _ -> fun env -> eager_from env (fa env))
  | C.C_for { slot; pos_slot; var; var_type; source; body } -> (
      let bind_at = for_binder ~slot ~pos_slot ~var ~var_type in
      let bodyf = emit body in
      (* accumulate body results item by item instead of building a
         list of lists and concatenating: same order, one allocation
         less per iteration *)
      let push acc env =
        match bodyf env with
        | [] -> ()
        | [ x ] -> acc := x :: !acc
        | xs -> List.iter (fun x -> acc := x :: !acc) xs
      in
      match source.C.d with
      | C.C_range (ra, rb) ->
          (* hot shape: iterate the range without materialising it *)
          let fa = emit ra and fb = emit rb in
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
          let src = emit source in
          fun env ->
            let items = src env in
            let acc = ref [] in
            List.iteri (fun i item ->
                bind_at env (i + 1) item;
                push acc env)
              items;
            List.rev !acc)
  | C.C_let { slot; var; var_type; value; body } ->
      let bind = let_binder ~slot ~var ~var_type (emit value) in
      let bodyf = emit body in
      fun env -> bind env; bodyf env
  | C.C_where (cond, body) ->
      let fc = emit_ebv cond and bodyf = emit body in
      fun env -> if fc env then bodyf env else []
  | C.C_quantified (quant, binds, body) ->
      let decide =
        List.fold_right
          (fun (slot, var_type, src) inner ->
            let fs = emit_seq src in
            let test env item = env.frame.(slot) <- ref [ item ]; inner env in
            fun env ->
              Eval.quantify quant var_type (test env) (Xdm_seq.items (fs env)))
          binds (emit_ebv body)
      in
      fun env -> Eval.bool_seq (decide env)
  | C.C_hash_join _ ->
      let f = Option.get (native_seq c) in
      fun env -> List.of_seq (Xdm_seq.items (f env))
  | C.C_cast_call (ty, a) ->
      let fa = emit a in
      fun env -> Eval.constructor_cast ty (fa env)
  | C.C_builtin_call (qn, impl, args) -> (
      match (early_exit qn (List.length args), args) with
      | Some consume, a :: rest ->
          let fa = emit_seq a and frest = List.map emit rest in
          fun env ->
            let vs = List.map (fun f -> f env) frest in
            Eval.call_early_exit (fun () -> consume (fa env) vs)
      | _ ->
          let fs = List.map emit args in
          (* the impurity test is hoisted to emission time *)
          let impure = Reactive.impure_builtin_sym qn.Qname.lsym in
          fun env ->
            let vs = List.map (fun f -> f env) fs in
            Eval.call_builtin ~impure env.ctx impl vs)
  | C.C_call (qn, args) ->
      let fs = List.map emit args in
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
                  | C.CA_text t -> `Text t | C.CA_enclosed e -> `Enclosed (emit e))
                parts ))
          attributes
      in
      let children = List.map emit children in
      fun env ->
        Eval.direct_element name attributes
          ~part:(function `Text t -> `Text t | `Enclosed f -> `Value (f env))
          ~children:(fun () -> List.concat_map (fun f -> f env) children)
  | C.C_computed_element (name_c, content_c) ->
      let fn = emit name_c and fc = emit content_c in
      fun env ->
        let name = Eval.constructed_name env.ctx (fn env) in
        Eval.computed_element name (fun () -> fc env)
  | C.C_computed_attribute (name_c, content_c) ->
      let fn = emit name_c and fc = emit content_c in
      fun env ->
        let name = Eval.constructed_name env.ctx (fn env) in
        Eval.computed_attribute name (fc env)
  | C.C_computed_text a ->
      let fa = emit a in
      fun env -> Eval.computed_text (fa env)
  | C.C_computed_comment a ->
      let fa = emit a in
      fun env -> Eval.computed_comment (fa env)
  | C.C_computed_pi (name_c, content_c) ->
      let fn = emit name_c and fc = emit content_c in
      fun env ->
        let target = fn env in
        Eval.computed_pi target (fc env)
  | C.C_computed_document a ->
      let fa = emit a in
      fun env -> Eval.computed_document (fun () -> fa env)
  | C.C_opaque (ast, locals) ->
      incr stat_opaque;
      if !Obs.Metrics.enabled then Obs.Metrics.incr "xquery.compile.opaque";
      (* the locals are the frame's live ref cells, so scripting
         assignment through them behaves exactly as interpreted code;
         bound outermost first, inner ones shadow *)
      let locals = Array.of_list (List.rev locals) in
      let bind c (qn, s) env = D.bind_ref c qn env.frame.(s) in
      fun env ->
        Eval.eval (Array.fold_left (fun c l -> bind c l env) env.ctx locals) ast

and emit_set_op op a b =
  let fa = emit a and fb = emit b in
  fun env ->
    let ra = fa env in
    Eval.set_op op ra (fb env)

(* a predicate chain over compiled predicates *)
and filter env items = function
  | [] -> items
  | pfs ->
      Eval.filter_items (fun ctx pf -> pf { env with ctx }) env.ctx items pfs

(* ---- cursors ---- *)

(* Does a step, filter or path stream in document order? Steps and
   filters always; a path only when its chain provably emits distinct
   nodes in document order ({!Focus_analysis.seq_class}), so it can
   skip the re-sort. *)
and sorted_chain (c : C.t) =
  match c.C.d with
  | C.C_path _ -> Focus_analysis.seq_class c.C.ast <> `Unknown
  | _ -> true

(* The cursor of a form that streams natively — sequence, range, [if],
   step, document-ordered path, filter, order-free FLWOR, unordered
   hash join — or [None]. *)
and native_seq (c : C.t) : (env -> Xdm_seq.t) option =
  match c.C.d with
  | C.C_sequence cs ->
      let fs = List.to_seq (List.map emit_seq cs) in
      Some
        (fun env ->
          Xdm_seq.make (Seq.concat_map (fun f -> Xdm_seq.items (f env)) fs))
  | C.C_range (a, b) ->
      let fa = emit a and fb = emit b in
      Some
        (fun env ->
          let lo = Eval.range_endpoint (fa env) in
          match Eval.range_bounds lo (Eval.range_endpoint (fb env)) with
          | Some (lo, hi) ->
              Xdm_seq.of_seq
                (Seq.init (hi - lo + 1) (fun i -> I.Atomic (A.Integer (lo + i))))
          | None -> Xdm_seq.empty)
  | C.C_if (cond, t, f) ->
      let fc = emit_ebv cond and ft = emit_seq t and ff = emit_seq f in
      Some (fun env -> if fc env then ft env else ff env)
  | C.C_step (axis, test, preds, ast_preds) ->
      let stages = List.map emit_stage preds in
      Some
        (fun env ->
          match D.focus_item env.ctx with
          | I.Atomic _ -> Eval.atomic_context_step ()
          | I.Node n -> step_from env axis test ast_preds stages n)
  | C.C_path (a, { C.d = C.C_step (axis, test, preds, ast_preds); _ })
    when sorted_chain c ->
      incr stat_nodes (* the step is emitted here, not through [emit] *);
      let fa = emit_seq a and stages = List.map emit_stage preds in
      Some
        (fun env ->
          Xdm_seq.make ~sorted:true
            (Seq.concat_map
               (function
                 | I.Node n ->
                     Xdm_seq.items (step_from env axis test ast_preds stages n)
                 | I.Atomic _ -> Eval.atomic_path_step ())
               (Xdm_seq.items (fa env))))
  | C.C_filter (e, preds) ->
      let fe = emit_seq e and stages = List.map emit_stage preds in
      Some (fun env -> apply_stages env (fe env) stages)
  | C.C_for { slot; pos_slot; var; var_type; source; body } ->
      let bind_at = for_binder ~slot ~pos_slot ~var ~var_type in
      let src = emit_seq source and bodyf = emit_seq body in
      Some
        (fun env ->
          Xdm_seq.make
            (Seq.concat_map
               (fun (i, item) ->
                 bind_at env (i + 1) item;
                 Xdm_seq.items (bodyf env))
               (Seq.mapi (fun i x -> (i, x)) (Xdm_seq.items (src env)))))
  | C.C_let { slot; var; var_type; value; body } ->
      let bind = let_binder ~slot ~var ~var_type (emit value) in
      let bodyf = emit_seq body in
      Some (fun env -> bind env; bodyf env)
  | C.C_where (cond, body) ->
      let fc = emit_ebv cond and bodyf = emit_seq body in
      Some (fun env -> if fc env then bodyf env else Xdm_seq.empty)
  | C.C_hash_join j ->
      (* the probe (left) side streams, so an early-exit consumer stops
         after the first matching probe items; both join variables are
         rebound for every pair before its where and return *)
      let fl = emit_seq j.C.left_source and fr = emit j.C.right_source in
      let fkl = emit j.C.left_key and fkr = emit j.C.right_key in
      let fw = Option.map emit_ebv j.C.where and fret = emit_seq j.C.return in
      Some
        (fun env ->
          let bind slot item = env.frame.(slot) <- ref [ item ] in
          let bound f (l, r) =
            bind j.C.left_slot l;
            bind j.C.right_slot r;
            f env
          in
          Eval.hash_join ~general:j.C.general
            ~build:(fun () -> fr env)
            ~build_key:(fun r -> bind j.C.right_slot r; fkr env)
            ~probe_key:(fun l -> bind j.C.left_slot l; fkl env)
            (Xdm_seq.items (fl env))
          |> Seq.filter (Option.fold ~none:(Fun.const true) ~some:bound fw)
          |> Seq.concat_map (bound (fun env -> Xdm_seq.items (fret env)))
          |> Xdm_seq.make)
  | _ -> None

(* every form as a cursor; the eager ones as their sequence *)
and emit_seq (c : C.t) : env -> Xdm_seq.t =
  match native_seq c with
  | Some f ->
      incr stat_nodes;
      f
  | None ->
      let f = emit c in
      fun env -> Xdm_seq.of_list (f env)

(* effective boolean value: a streaming form decides on at most two
   pulled items *)
and emit_ebv (c : C.t) : env -> bool =
  match native_seq c with
  | Some f ->
      incr stat_nodes;
      fun env -> Xdm_seq.effective_boolean (f env)
  | None ->
      let f = emit c in
      fun env -> I.effective_boolean (f env)

(* One predicate as a stage: a positional take stops pulling at its
   bound; a predicate that reads last() materialises its input (the
   focus size needs it); any other sees position() as a running
   counter and a size it never reads. *)
and emit_stage (p : C.t) : env -> Xdm_seq.t -> Xdm_seq.t =
  match Focus_analysis.take_shape p.C.ast with
  | Some (`Nth k) ->
      fun _ cur ->
        if k < 1 then Xdm_seq.empty
        else
          Xdm_seq.make ~sorted:(Xdm_seq.sorted cur) ~at_most_one:true
            (Seq.take 1 (Seq.drop (k - 1) (Xdm_seq.items cur)))
  | Some (`First k) -> fun _ cur -> Xdm_seq.take k cur
  | None when Focus_analysis.uses_last p.C.ast ->
      let pf = emit p in
      fun env cur ->
        Xdm_seq.of_list ~sorted:(Xdm_seq.sorted cur)
          (filter env (Xdm_seq.to_list cur) [ pf ])
  | None ->
      let pf = emit p in
      fun env cur ->
        Xdm_seq.filteri
          (fun i item ->
            let pos = i + 1 in
            let ctx = D.with_focus env.ctx item ~position:pos ~size:0 in
            Eval.predicate_keeps (pf { env with ctx }) pos)
          cur

(* ------------------------------------------------------------------ *)
(* programs                                                            *)

let compile_expr static ?(params = []) e =
  let core, size = Core_ir.lower static ~params e in
  if Core_ir.is_opaque_root core then None else Some (emit core, size)

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
