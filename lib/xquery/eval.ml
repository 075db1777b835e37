open Xmlb
module A = Xdm_atomic
module I = Xdm_item
module D = Dynamic_context

exception Exit_with of I.sequence

(* scripting-extension loop control (paper Â§3.3 lists while/continue/break) *)
exception Break_loop
exception Continue_loop

let err code fmt = Xq_error.raise_error code fmt
let type_err fmt = err Xq_error.type_error_code fmt

let max_depth = 4000

(* Streaming ablation switch (mirrors Dom.set_acceleration). When on,
   early-exit consumers — EBV contexts, quantifiers, fn:exists/empty/
   head/subsequence, bounded count comparisons, positional takes —
   pull items through lazy Xdm_seq cursors instead of materialising
   whole sequences. The eager path is kept intact as the oracle. *)
let streaming = ref true
let set_streaming b = streaming := b
let streaming_enabled () = !streaming

(* wrap Xdm exceptions into Xq_error *)
let guard f =
  try f () with
  | A.Type_error m -> type_err "%s" m
  | A.Cast_error m -> err Xq_error.cast_error_code "%s" m
  | Division_by_zero -> err Xq_error.div_by_zero "division by zero"

let protect = guard

(* ------------------------------------------------------------------ *)
(* Axes                                                                *)

let subtree n = n :: Dom.descendants n
let rev_subtree n = List.rev_append (Dom.descendants n) [ n ]

(* following:: as a structural walk — the subtrees of the following
   siblings of the node and of each of its ancestors, nearest ancestor
   first — instead of filtering every node of the document. An
   attribute sorts after its element and before the element's
   children, so its following nodes are the element's descendants plus
   the element's following nodes. *)
let rec structural_following node =
  match Dom.kind node with
  | Dom.Attribute -> (
      match Dom.parent node with
      | Some e -> Dom.descendants e @ structural_following e
      | None -> [])
  | _ ->
      List.concat_map
        (fun a -> List.concat_map subtree (Dom.following_siblings a))
        (node :: Dom.ancestors node)

(* preceding:: in reverse document order (nearest first), mirroring
   the naive filtered-and-reversed result. Ancestors are excluded by
   construction: only sibling subtrees are emitted. *)
let rec structural_preceding node =
  match Dom.kind node with
  | Dom.Attribute -> (
      match Dom.parent node with
      | Some e -> structural_preceding e
      | None -> [])
  | _ ->
      List.concat_map
        (fun a -> List.concat_map rev_subtree (Dom.preceding_siblings a))
        (node :: Dom.ancestors node)

let axis_nodes axis node =
  match (axis : Ast.axis) with
  | Ast.Child -> Dom.children node
  | Ast.Descendant -> Dom.descendants node
  | Ast.Attribute_axis -> Dom.attributes node
  | Ast.Self -> [ node ]
  | Ast.Descendant_or_self -> node :: Dom.descendants node
  | Ast.Parent -> ( match Dom.parent node with None -> [] | Some p -> [ p ])
  | Ast.Ancestor -> Dom.ancestors node (* nearest first *)
  | Ast.Ancestor_or_self -> node :: Dom.ancestors node
  | Ast.Following_sibling -> Dom.following_siblings node
  | Ast.Preceding_sibling -> Dom.preceding_siblings node (* nearest first *)
  | Ast.Following ->
      if Dom.acceleration_enabled () then structural_following node
      else
        let all = Dom.descendants (Dom.root node) in
        List.filter
          (fun m ->
            Dom.compare_order node m < 0 && not (Dom.is_ancestor ~ancestor:node m))
          all
  | Ast.Preceding ->
      if Dom.acceleration_enabled () then structural_preceding node
      else
        let all = Dom.descendants (Dom.root node) in
        List.rev
          (List.filter
             (fun m ->
               Dom.compare_order m node < 0 && not (Dom.is_ancestor ~ancestor:m node))
             all)

let principal_is_attribute = function Ast.Attribute_axis -> true | _ -> false

let node_test_matches ~axis (test : Ast.node_test) node =
  let principal_kind_ok () =
    match Dom.kind node with
    | Dom.Attribute -> principal_is_attribute axis
    | Dom.Element -> not (principal_is_attribute axis)
    | _ -> false
  in
  match test with
  | Ast.Kind_test kt -> Seq_type.kind_matches kt node
  | Ast.Wildcard -> principal_kind_ok ()
  | Ast.Ns_wildcard uri ->
      principal_kind_ok ()
      &&
      (match Dom.name node with
      | Some { Qname.uri = Some u; _ } -> String.equal u uri
      | _ -> false)
  | Ast.Local_wildcard local ->
      principal_kind_ok ()
      &&
      (match Dom.name node with
      | Some n -> String.equal n.Qname.local local
      | None -> false)
  | Ast.Name_test qn ->
      principal_kind_ok ()
      &&
      (match Dom.name node with
      | Some n -> Qname.equal n qn
      | None -> false)

(* constant strings so the disabled path never allocates a metric name *)
let axis_metric = function
  | Ast.Child -> "eval.axis.child"
  | Ast.Descendant -> "eval.axis.descendant"
  | Ast.Attribute_axis -> "eval.axis.attribute"
  | Ast.Self -> "eval.axis.self"
  | Ast.Descendant_or_self -> "eval.axis.descendant-or-self"
  | Ast.Following_sibling -> "eval.axis.following-sibling"
  | Ast.Preceding_sibling -> "eval.axis.preceding-sibling"
  | Ast.Following -> "eval.axis.following"
  | Ast.Preceding -> "eval.axis.preceding"
  | Ast.Parent -> "eval.axis.parent"
  | Ast.Ancestor -> "eval.axis.ancestor"
  | Ast.Ancestor_or_self -> "eval.axis.ancestor-or-self"

(* Footprint recording for a non-indexed axis step: downward axes read
   the origin's subtree; sibling/parent axes read the parent's subtree;
   upward and lateral axes conservatively read the whole tree. (The
   indexed fast paths record their probes inside [Dom] instead.) *)
let record_axis_scope axis n =
  let scope_of m =
    Footprint.reading_scope ~root:(Dom.id (Dom.root m)) ~node:(Dom.id m)
  in
  match (axis : Ast.axis) with
  | Ast.Child | Ast.Attribute_axis | Ast.Self | Ast.Descendant
  | Ast.Descendant_or_self ->
      scope_of n
  | Ast.Parent | Ast.Following_sibling | Ast.Preceding_sibling -> (
      match Dom.parent n with Some p -> scope_of p | None -> scope_of n)
  | Ast.Ancestor | Ast.Ancestor_or_self | Ast.Following | Ast.Preceding ->
      scope_of (Dom.root n)

(* Nodes selected by one axis step. descendant::name and
   descendant-or-self::name (what the optimizer rewrites //name into)
   resolve through the per-document local-name index instead of
   filtering the materialised descendant list. *)
let step_nodes axis (test : Ast.node_test) n =
  if !Obs.Metrics.enabled then begin
    Obs.Metrics.incr "eval.steps";
    Obs.Metrics.incr (axis_metric axis)
  end;
  let finish_local hits refine =
    if !Obs.Metrics.enabled then Obs.Metrics.incr "eval.step.desc-index";
    let hits =
      match refine with None -> hits | Some f -> List.filter f hits
    in
    match (axis : Ast.axis) with
    | Ast.Descendant -> List.filter (fun m -> not (Dom.equal m n)) hits
    | _ -> hits
  in
  let by_local local refine =
    finish_local (Dom.get_elements_by_local_name n local) refine
  in
  (* Name_test probes by the pre-interned symbol when the interning fast
     paths are on; the ablated path re-hashes the local-name string. *)
  let by_sym sym refine =
    finish_local (Dom.get_elements_by_local_sym n sym) refine
  in
  match (axis, test) with
  | (Ast.Descendant | Ast.Descendant_or_self), Ast.Local_wildcard local
    when Dom.acceleration_enabled () ->
      by_local local None
  | (Ast.Descendant | Ast.Descendant_or_self), Ast.Name_test qn
    when Dom.acceleration_enabled () ->
      let refine =
        Some
          (fun m ->
            match Dom.name m with
            | Some nm -> Qname.equal nm qn
            | None -> false)
      in
      if Sym.fastpaths_enabled () then by_sym qn.Qname.lsym refine
      else by_local qn.Qname.local refine
  | _ ->
      if Footprint.recording () then record_axis_scope axis n;
      List.filter (node_test_matches ~axis test) (axis_nodes axis n)

(* Value-index lookup: answer a leading [@k eq 'lit'] / [@k = 'lit'] /
   [k = 'lit'] predicate on a descendant step from the per-root value
   index instead of scanning every candidate. Restricted to string
   literals (a numeric literal against an untyped key is a type error
   under [eq] and a double promotion under [=] — both need the scan)
   and, for child-element text, to the general comparison ([k eq 'v']
   must raise on an element with two [k] children; the existential [=]
   never does). Index hits are refined against the exact QName/axis,
   so namespace-exact semantics are preserved even though buckets are
   keyed by local name. Returns the candidates in document order with
   the first predicate consumed, or [None] to fall back. *)
let value_index_step axis test preds n =
  let applicable =
    Dom.value_index_enabled ()
    &&
    match (axis : Ast.axis) with
    | Ast.Descendant | Ast.Descendant_or_self -> (
        match (test : Ast.node_test) with
        | Ast.Name_test _ | Ast.Local_wildcard _ | Ast.Wildcard -> true
        | _ -> false)
    | _ -> false
  in
  if not applicable then None
  else begin
    (* The index answers by (name/attr, value) key — recorded inside
       [Dom.value_lookup] — but a named step test additionally reads
       the candidates' element names (a rename changes the result
       without touching the probed key). *)
    (if Footprint.recording () then
       match (test : Ast.node_test) with
       | Ast.Name_test qn ->
           Footprint.reading_name
             ~root:(Dom.id (Dom.root n))
             ~scope:(Dom.id n) qn.Qname.lsym
       | Ast.Local_wildcard local ->
           Footprint.reading_name
             ~root:(Dom.id (Dom.root n))
             ~scope:(Dom.id n) (Sym.intern local)
       | _ -> ());
    let candidate el =
      node_test_matches ~axis test el
      && (match axis with Ast.Descendant -> not (Dom.equal el n) | _ -> true)
    in
    let finish nodes rest =
      if !Obs.Metrics.enabled then begin
        Obs.Metrics.incr "eval.steps";
        Obs.Metrics.incr (axis_metric axis);
        Obs.Metrics.incr "eval.step.value-index"
      end;
      Some (List.sort_uniq Dom.compare_order nodes, rest)
    in
    (* Probe by the Qname's pre-interned symbol when the interning fast
       paths are on; the ablated probe re-hashes the local-name string
       (both key the same buckets — interning is a bijection). *)
    let attr_lookup qn s ~general rest =
      match
        (if Sym.fastpaths_enabled () then
           Dom.elements_by_attr_value_sym n ~local:qn.Qname.lsym s
         else Dom.elements_by_attr_value n ~local:qn.Qname.local s)
      with
      | None -> None
      | Some bucket ->
          let keep el =
            candidate el
            &&
            let matching =
              List.filter
                (node_test_matches ~axis:Ast.Attribute_axis (Ast.Name_test qn))
                (Dom.attributes el)
            in
            if general then
              List.exists (fun a -> Dom.string_value a = s) matching
            else
              match matching with
              | [] -> false
              | [ a ] -> Dom.string_value a = s
              | _ -> type_err "value comparison requires singleton operands"
          in
          finish (List.filter keep bucket) rest
    in
    let child_lookup qn s rest =
      match
        (if Sym.fastpaths_enabled () then
           Dom.elements_by_text_value_sym n ~local:qn.Qname.lsym s
         else Dom.elements_by_text_value n ~local:qn.Qname.local s)
      with
      | None -> None
      | Some bucket ->
          let parents =
            List.filter_map
              (fun child ->
                if not (node_test_matches ~axis:Ast.Child (Ast.Name_test qn) child)
                then None
                else if Dom.string_value child <> s then None
                else
                  match Dom.parent child with
                  | Some p
                    when Dom.kind p = Dom.Element
                         && (Dom.equal p n || Dom.is_ancestor ~ancestor:n p)
                         && candidate p ->
                      Some p
                  | _ -> None)
              bucket
          in
          finish parents rest
    in
    match preds with
    | pred :: rest -> (
        let shape lhs lit general =
          match (lhs, lit) with
          | ( Ast.E_step (Ast.Attribute_axis, Ast.Name_test qn, []),
              A.String s ) ->
              attr_lookup qn s ~general rest
          | Ast.E_step (Ast.Child, Ast.Name_test qn, []), A.String s
            when general ->
              child_lookup qn s rest
          | _ -> None
        in
        match pred with
        | Ast.E_value_comp (Ast.Eq, lhs, Ast.E_literal lit) ->
            shape lhs lit false
        | Ast.E_value_comp (Ast.Eq, Ast.E_literal lit, rhs) ->
            shape rhs lit false
        | Ast.E_general_comp (Ast.Eq, lhs, Ast.E_literal lit) ->
            shape lhs lit true
        | Ast.E_general_comp (Ast.Eq, Ast.E_literal lit, rhs) ->
            shape rhs lit true
        | _ -> None)
    | [] -> None
  end

(* ------------------------------------------------------------------ *)
(* Streaming: lazy axis producers and static shape analyses            *)

(* lazy pre-order walks; the only truly incremental axes are the
   downward ones (children lists are already materialised in the DOM) *)
let rec subtree_seq n () = Seq.Cons (n, descendants_seq n)

and descendants_seq n () =
  Seq.concat_map subtree_seq (List.to_seq (Dom.children n)) ()

let axis_seq (axis : Ast.axis) node : Dom.node Seq.t =
  match axis with
  | Ast.Child -> List.to_seq (Dom.children node)
  | Ast.Descendant -> descendants_seq node
  | Ast.Descendant_or_self -> subtree_seq node
  | Ast.Attribute_axis -> List.to_seq (Dom.attributes node)
  | Ast.Self -> Seq.return node
  | _ ->
      (* the remaining axes are list-producing anyway; delay the
         materialisation until the first pull *)
      fun () -> List.to_seq (axis_nodes axis node) ()

(* shared static analyses, see {!Focus_analysis} *)
let forward_ordered = Focus_analysis.forward_ordered
let seq_class = Focus_analysis.seq_class
let take_shape = Focus_analysis.take_shape
let worth_streaming = Focus_analysis.worth_streaming
let has_bounded_take = Focus_analysis.has_bounded_take

(* ------------------------------------------------------------------ *)
(* Comparison helpers                                                  *)

let value_compare_pair op a b =
  (* value comparison: untyped operands are compared as strings *)
  let norm = function A.Untyped s -> A.String s | a -> a in
  let a = norm a and b = norm b in
  guard (fun () ->
      match (op : Ast.value_comp) with
      | Ast.Eq -> A.equal_value a b
      | Ast.Ne -> not (A.equal_value a b)
      | Ast.Lt -> (not (A.is_nan a || A.is_nan b)) && A.compare_value a b < 0
      | Ast.Le -> (not (A.is_nan a || A.is_nan b)) && A.compare_value a b <= 0
      | Ast.Gt -> (not (A.is_nan a || A.is_nan b)) && A.compare_value a b > 0
      | Ast.Ge -> (not (A.is_nan a || A.is_nan b)) && A.compare_value a b >= 0)

let general_compare_pair op a b =
  (* general comparison: untyped adapts to the other operand's type *)
  let pair =
    match (a, b) with
    | A.Untyped x, A.Untyped y -> (A.String x, A.String y)
    | A.Untyped x, b when A.is_numeric b ->
        (A.cast ~target:A.T_double (A.Untyped x), b)
    | a, A.Untyped y when A.is_numeric a ->
        (a, A.cast ~target:A.T_double (A.Untyped y))
    | A.Untyped x, b -> (A.cast ~target:(A.type_of b) (A.Untyped x), b)
    | a, A.Untyped y -> (a, A.cast ~target:(A.type_of a) (A.Untyped y))
    | a, b -> (a, b)
  in
  let a, b = pair in
  value_compare_pair op a b

(* ------------------------------------------------------------------ *)
(* Constructors                                                        *)

(* Normalize a content sequence into child nodes and attribute nodes,
   per the XQuery constructor rules: adjacent atomics join with a
   space into one text node; nodes are deep-copied; document nodes
   splice their children; attribute nodes must come first. *)
let normalize_content seq =
  let attrs = ref [] in
  let children = ref [] in
  let pending_text = Buffer.create 16 in
  let pending_started = ref false in
  let seen_child = ref false in
  let flush_text () =
    if !pending_started then begin
      children := Dom.create_text (Buffer.contents pending_text) :: !children;
      Buffer.clear pending_text;
      pending_started := false
    end
  in
  List.iter
    (fun item ->
      match item with
      | I.Atomic a ->
          if !pending_started then Buffer.add_char pending_text ' ';
          Buffer.add_string pending_text (A.to_string a);
          pending_started := true;
          seen_child := true
      | I.Node n -> (
          match Dom.kind n with
          | Dom.Attribute ->
              flush_text ();
              if !seen_child then
                err "XQTY0024"
                  "attribute nodes must precede other element content";
              attrs := Dom.clone n :: !attrs
          | Dom.Document ->
              flush_text ();
              seen_child := true;
              List.iter
                (fun c -> children := Dom.clone c :: !children)
                (Dom.children n)
          | _ ->
              flush_text ();
              seen_child := true;
              children := Dom.clone n :: !children))
    seq;
  flush_text ();
  (List.rev !attrs, List.rev !children)

(* Fill a freshly created element or document node from a constructor:
   [attrs] (a direct constructor's evaluated attributes) first, then the
   content's attribute nodes (elements only), then the rest of the
   content appended in one pass. *)
let construct ?(attrs = []) node content =
  List.iter (fun (an, v) -> Dom.set_attribute node an v) attrs;
  let cattrs, kids = normalize_content content in
  if Dom.kind node = Dom.Element then
    List.iter
      (fun a ->
        match Dom.name a with
        | Some n -> Dom.set_attribute node n (Option.value ~default:"" (Dom.value a))
        | None -> ())
      cattrs;
  Dom.append_children ~parent:node kids;
  [ I.Node node ]

let qname_of_value ctx v =
  ignore ctx;
  match v with
  | A.Qname_v q -> q
  | A.String s | A.Untyped s -> Qname.of_string s
  | a -> type_err "expected a QName, got xs:%s" (A.type_name (A.type_of a))

(* ------------------------------------------------------------------ *)
(* The evaluator                                                       *)

let rec eval (ctx : D.t) (e : Ast.expr) : I.sequence =
  match e with
  | Ast.E_literal a -> [ I.Atomic a ]
  | Ast.E_text_literal s -> [ I.Node (Dom.create_text s) ]
  | Ast.E_var qn -> D.lookup ctx qn
  | Ast.E_context_item -> [ D.focus_item ctx ]
  | Ast.E_sequence es -> List.concat_map (eval ctx) es
  | Ast.E_range (a, b) -> (
      match range_bounds ctx a b with
      | Some (lo, hi) ->
          List.init (hi - lo + 1) (fun i -> I.Atomic (A.Integer (lo + i)))
      | None -> [])
  | Ast.E_if (c, t, f) ->
      if ebv_stream ctx c then eval ctx t else eval ctx f
  | Ast.E_or (a, b) ->
      if ebv_stream ctx a then [ I.Atomic (A.Boolean true) ]
      else [ I.Atomic (A.Boolean (ebv_stream ctx b)) ]
  | Ast.E_and (a, b) ->
      if not (ebv_stream ctx a) then [ I.Atomic (A.Boolean false) ]
      else [ I.Atomic (A.Boolean (ebv_stream ctx b)) ]
  (* count(e) compared against an integer literal: pull at most k+1
     items instead of counting the whole sequence (the optimizer
     normalises literal-on-the-left shapes into these) *)
  | Ast.E_value_comp (op, Ast.E_call (qn, [ arg ]), Ast.E_literal (A.Integer k))
  | Ast.E_general_comp (op, Ast.E_call (qn, [ arg ]), Ast.E_literal (A.Integer k))
    when !streaming && resolves_to_builtin ctx qn "count" ~arity:1 ->
      bounded_count ctx op arg k
  | Ast.E_value_comp (op, Ast.E_literal (A.Integer k), Ast.E_call (qn, [ arg ]))
  | Ast.E_general_comp (op, Ast.E_literal (A.Integer k), Ast.E_call (qn, [ arg ]))
    when !streaming && resolves_to_builtin ctx qn "count" ~arity:1 ->
      bounded_count ctx (Focus_analysis.mirror_comp op) arg k
  | Ast.E_value_comp (op, a, b) -> (
      let va = I.atomize (eval ctx a) and vb = I.atomize (eval ctx b) in
      match (va, vb) with
      | [], _ | _, [] -> []
      | [ x ], [ y ] -> [ I.Atomic (A.Boolean (value_compare_pair op x y)) ]
      | _ -> type_err "value comparison requires singleton operands")
  | Ast.E_general_comp (op, a, b) when !streaming && worth_streaming a ->
      (* existential semantics: materialise the (usually small) rhs,
         stream the lhs and stop at the first matching pair *)
      let vb = I.atomize (eval ctx b) in
      let result =
        Seq.exists
          (fun x -> List.exists (fun y -> general_compare_pair op x y) vb)
          (atomize_seq (eval_seq ctx a))
      in
      [ I.Atomic (A.Boolean result) ]
  | Ast.E_general_comp (op, a, b) ->
      let va = I.atomize (eval ctx a) and vb = I.atomize (eval ctx b) in
      let result =
        List.exists
          (fun x -> List.exists (fun y -> general_compare_pair op x y) vb)
          va
      in
      [ I.Atomic (A.Boolean result) ]
  | Ast.E_node_comp (op, a, b) -> (
      let na = eval ctx a and nb = eval ctx b in
      match (na, nb) with
      | [], _ | _, [] -> []
      | [ I.Node x ], [ I.Node y ] ->
          let r =
            match op with
            | Ast.Is -> Dom.equal x y
            | Ast.Precedes -> Dom.compare_order x y < 0
            | Ast.Follows -> Dom.compare_order x y > 0
          in
          [ I.Atomic (A.Boolean r) ]
      | _ -> type_err "node comparison requires single nodes")
  | Ast.E_ftcontains (e, sel) ->
      let hay = eval ctx e in
      let text =
        String.concat " " (List.map I.item_string hay)
      in
      [ I.Atomic (A.Boolean (eval_ft ctx text sel)) ]
  | Ast.E_arith (op, a, b) -> (
      let va = I.atomize (eval ctx a) and vb = I.atomize (eval ctx b) in
      match (va, vb) with
      | [], _ | _, [] -> []
      | [ x ], [ y ] ->
          let f =
            match op with
            | Ast.Add -> A.add
            | Ast.Sub -> A.subtract
            | Ast.Mul -> A.multiply
            | Ast.Div -> A.divide
            | Ast.Idiv -> A.integer_divide
            | Ast.Mod -> A.modulo
          in
          [ I.Atomic (guard (fun () -> f x y)) ]
      | _ -> type_err "arithmetic requires singleton operands")
  | Ast.E_unary_minus e -> (
      match I.atomize (eval ctx e) with
      | [] -> []
      | [ x ] -> [ I.Atomic (guard (fun () -> A.negate x)) ]
      | _ -> type_err "unary minus requires a singleton operand")
  | Ast.E_union (a, b) -> guard (fun () -> I.union (eval ctx a) (eval ctx b))
  | Ast.E_intersect (a, b) ->
      guard (fun () -> I.intersect (eval ctx a) (eval ctx b))
  | Ast.E_except (a, b) -> guard (fun () -> I.except (eval ctx a) (eval ctx b))
  | Ast.E_instance_of (e, st) ->
      [ I.Atomic (A.Boolean (Seq_type.matches st (eval ctx e))) ]
  | Ast.E_treat_as (e, st) ->
      let v = eval ctx e in
      if Seq_type.matches st v then v
      else
        err "XPDY0050" "treat as %s failed on a sequence of %d item(s)"
          (Seq_type.to_string st) (List.length v)
  | Ast.E_castable_as (e, ty, optional) -> (
      match I.atomize (eval ctx e) with
      | [] -> [ I.Atomic (A.Boolean optional) ]
      | [ x ] -> [ I.Atomic (A.Boolean (A.castable ~target:ty x)) ]
      | _ -> [ I.Atomic (A.Boolean false) ])
  | Ast.E_cast_as (e, ty, optional) -> (
      match I.atomize (eval ctx e) with
      | [] ->
          if optional then []
          else type_err "cast of an empty sequence to a non-optional type"
      | [ x ] -> [ I.Atomic (guard (fun () -> A.cast ~target:ty x)) ]
      | _ -> type_err "cast requires a singleton operand")
  | Ast.E_root -> (
      match D.focus_item ctx with
      | I.Node n -> [ I.Node (Dom.root n) ]
      | I.Atomic _ -> type_err "the context item for '/' is not a node")
  (* a bounded positional take in the final step ((//x)[1],
     //x[position() le 10]): stream and stop pulling at the bound.
     E_path streams only when its chain is provably document-ordered
     (seq_class), so no re-sort is skipped unsoundly. *)
  | (Ast.E_step _ | Ast.E_filter _) as e
    when !streaming && has_bounded_take e && not (Ast.is_updating e) ->
      Xdm_seq.to_list (eval_seq ctx e)
  | Ast.E_path _
    when !streaming && has_bounded_take e
         && seq_class e <> `Unknown
         && not (Ast.is_updating e) ->
      Xdm_seq.to_list (eval_seq ctx e)
  | Ast.E_step (axis, test, preds) -> (
      match D.focus_item ctx with
      | I.Atomic _ -> type_err "axis step applied to an atomic context item"
      | I.Node n -> (
          match value_index_step axis test preds n with
          | Some (nodes, rest) ->
              apply_predicates ctx (List.map (fun m -> I.Node m) nodes) rest
          | None ->
              let nodes = step_nodes axis test n in
              let items = List.map (fun n -> I.Node n) nodes in
              apply_predicates ctx items preds))
  | Ast.E_path (e1, e2) ->
      let lhs = eval ctx e1 in
      let n = List.length lhs in
      let results =
        List.concat
          (List.mapi
             (fun i item ->
               match item with
               | I.Node _ ->
                   eval (D.with_focus ctx item ~position:(i + 1) ~size:n) e2
               | I.Atomic _ ->
                   type_err "path step applied to an atomic value")
             lhs)
      in
      if results = [] then []
      else if I.all_nodes results then guard (fun () -> I.document_order results)
      else if List.exists I.is_node results then
        err "XPTY0018" "path result mixes nodes and atomic values"
      else results
  | Ast.E_filter (e, preds) ->
      let items = eval ctx e in
      apply_predicates ctx items preds
  | Ast.E_flwor { clauses; where; order; return } ->
      eval_flwor ctx ~clauses ~where ~order ~return
  | Ast.E_hash_join j ->
      let tuples = List.of_seq (hash_join_tuples ctx j) in
      let tuples = order_tuples j.Ast.jorder tuples in
      List.concat_map (fun c -> eval c j.Ast.jreturn) tuples
  | Ast.E_quantified (quant, binds, body) when !streaming ->
      (* pull binding sources lazily; exists/for_all stop at the first
         deciding item *)
      let rec go ctx = function
        | [] -> ebv_stream ctx body
        | (var, var_type, src) :: rest ->
            let items = Xdm_seq.items (eval_seq ctx src) in
            let items =
              match var_type with
              | Some st ->
                  Seq.map
                    (fun it ->
                      List.hd
                        (Seq_type.coerce ~what:"quantifier binding" st [ it ]))
                    items
              | None -> items
            in
            let test item = go (D.bind ctx var [ item ]) rest in
            (match quant with
            | Ast.Some_quant -> Seq.exists test items
            | Ast.Every_quant -> Seq.for_all test items)
      in
      [ I.Atomic (A.Boolean (go ctx binds)) ]
  | Ast.E_quantified (quant, binds, body) ->
      let rec go ctx = function
        | [] -> I.effective_boolean (eval ctx body)
        | (var, var_type, src) :: rest ->
            let items = eval ctx src in
            let items =
              match var_type with
              | Some st ->
                  List.map
                    (fun it -> List.hd (Seq_type.coerce ~what:"quantifier binding" st [ it ]))
                    items
              | None -> items
            in
            let test item = go (D.bind ctx var [ item ]) rest in
            (match quant with
            | Ast.Some_quant -> List.exists test items
            | Ast.Every_quant -> List.for_all test items)
      in
      [ I.Atomic (A.Boolean (go ctx binds)) ]
  | Ast.E_typeswitch (op, cases, (default_var, default_body)) -> (
      let v = eval ctx op in
      let rec try_cases = function
        | [] ->
            let ctx =
              match default_var with
              | Some var -> D.bind ctx var v
              | None -> ctx
            in
            eval ctx default_body
        | case :: rest ->
            if Seq_type.matches case.Ast.case_type v then
              let ctx =
                match case.Ast.case_var with
                | Some var -> D.bind ctx var v
                | None -> ctx
              in
              eval ctx case.Ast.case_body
            else try_cases rest
      in
      try_cases cases)
  | Ast.E_call (qn, args) -> eval_call ctx qn args
  | Ast.E_ordered e | Ast.E_unordered e -> eval ctx e
  | Ast.E_enclosed e -> eval ctx e
  (* ---- constructors ---- *)
  | Ast.E_direct_element { name; attributes; children } ->
      let el = Dom.create_element name in
      let attrs =
        List.map
          (fun (an, parts) ->
            ( an,
              String.concat ""
                (List.map
                   (function
                     | Ast.A_text t -> t
                     | Ast.A_enclosed e -> I.sequence_string (eval ctx e))
                   parts) ))
          attributes
      in
      construct ~attrs el (List.concat_map (eval ctx) children)
  | Ast.E_computed_element (name_e, content_e) ->
      let name =
        qname_of_value ctx (I.singleton_atomic (eval ctx name_e))
      in
      let el = Dom.create_element name in
      construct el (eval ctx content_e)
  | Ast.E_computed_attribute (name_e, content_e) ->
      let name = qname_of_value ctx (I.singleton_atomic (eval ctx name_e)) in
      let value = I.sequence_string (eval ctx content_e) in
      [ I.Node (Dom.create_attribute name value) ]
  | Ast.E_computed_text e ->
      [ I.Node (Dom.create_text (I.sequence_string (eval ctx e))) ]
  | Ast.E_computed_comment e ->
      [ I.Node (Dom.create_comment (I.sequence_string (eval ctx e))) ]
  | Ast.E_computed_pi (name_e, content_e) ->
      let target = I.sequence_string (eval ctx name_e) in
      [ I.Node (Dom.create_pi ~target (I.sequence_string (eval ctx content_e))) ]
  | Ast.E_computed_document e ->
      let doc = Dom.create_document () in
      construct doc (eval ctx e)
  (* ---- updates ---- *)
  | Ast.E_insert (pos, source_e, target_e) ->
      eval_insert ctx pos source_e target_e
  | Ast.E_delete e ->
      let targets = eval ctx e in
      List.iter
        (function
          | I.Node n -> Pul.add ctx.D.pul (Pul.Delete n)
          | I.Atomic _ -> err Xq_error.update_target "delete target must be nodes")
        targets;
      []
  | Ast.E_replace { value_of; target; source } ->
      let tnode =
        match eval ctx target with
        | [ I.Node n ] -> n
        | _ -> err Xq_error.update_target "replace target must be a single node"
      in
      if value_of then begin
        let v = I.sequence_string (eval ctx source) in
        Pul.add ctx.D.pul (Pul.Replace_value (tnode, v))
      end
      else begin
        let source_items = eval ctx source in
        let attrs, kids = normalize_content source_items in
        let replacements =
          match Dom.kind tnode with
          | Dom.Attribute ->
              if kids <> [] then
                err Xq_error.update_target
                  "an attribute can only be replaced with attributes"
              else attrs
          | _ ->
              if attrs <> [] then
                err Xq_error.update_target
                  "cannot replace a non-attribute node with attributes"
              else kids
        in
        Pul.add ctx.D.pul (Pul.Replace_node (tnode, replacements))
      end;
      []
  | Ast.E_rename (target_e, name_e) ->
      let tnode =
        match eval ctx target_e with
        | [ I.Node n ] -> n
        | _ -> err Xq_error.update_target "rename target must be a single node"
      in
      let name = qname_of_value ctx (I.singleton_atomic (eval ctx name_e)) in
      Pul.add ctx.D.pul (Pul.Rename (tnode, name));
      []
  | Ast.E_transform (binds, modify, return) ->
      let copies =
        List.map
          (fun (var, src) ->
            match eval ctx src with
            | [ I.Node n ] -> (var, Dom.clone n)
            | _ -> type_err "copy source must be a single node")
          binds
      in
      let ctx' =
        List.fold_left (fun c (var, n) -> D.bind c var [ I.Node n ]) ctx copies
      in
      let inner_pul = Pul.create () in
      let ctx'' = { ctx' with D.pul = inner_pul } in
      ignore (eval ctx'' modify);
      (* XUDY0014: updates must stay within the copied trees *)
      Pul.apply inner_pul;
      eval ctx' return
  (* ---- scripting ---- *)
  | Ast.E_block [ Ast.S_expr e ] -> eval ctx e
  | Ast.E_block stmts -> eval_block ctx ~script:true stmts
  (* ---- browser extensions ---- *)
  | Ast.E_event_attach { event; binding; target; listener } -> (
      Footprint.poison ();
      let event_type = I.sequence_string (eval ctx event) in
      let l = make_listener ctx listener in
      match binding with
      | Ast.Bind_at ->
          let targets = eval ctx target in
          ctx.D.host.D.attach ~event_type ~targets ~listener:l;
          []
      | Ast.Bind_behind ->
          let computation () = eval ctx target in
          ctx.D.host.D.attach_behind ~event_type ~computation ~listener:l;
          [])
  | Ast.E_event_detach { event; target; listener } ->
      Footprint.poison ();
      let event_type = I.sequence_string (eval ctx event) in
      let targets = eval ctx target in
      ctx.D.host.D.detach ~event_type ~targets ~name:listener;
      []
  | Ast.E_event_trigger { event; target } ->
      Footprint.poison ();
      let event_type = I.sequence_string (eval ctx event) in
      let targets = eval ctx target in
      ctx.D.host.D.trigger ~event_type ~targets;
      []
  | Ast.E_set_style { property; target; value } ->
      Footprint.poison ();
      let prop = I.sequence_string (eval ctx property) in
      let v = I.sequence_string (eval ctx value) in
      List.iter
        (function
          | I.Node n -> ctx.D.host.D.set_style n prop v
          | I.Atomic _ -> type_err "set style target must be nodes")
        (eval ctx target);
      []
  | Ast.E_get_style { property; target } -> (
      (* the style side table is not footprint-tracked: unrecordable read *)
      Footprint.poison ();
      let prop = I.sequence_string (eval ctx property) in
      match eval ctx target with
      | I.Node n :: _ -> (
          match ctx.D.host.D.get_style n prop with
          | Some v -> [ I.Atomic (A.String v) ]
          | None -> [])
      | _ -> [])

and eval_ft ctx hay (sel : Ast.ft_selection) =
  match sel with
  | Ast.Ft_and (a, b) -> eval_ft ctx hay a && eval_ft ctx hay b
  | Ast.Ft_or (a, b) -> eval_ft ctx hay a || eval_ft ctx hay b
  | Ast.Ft_not a -> not (eval_ft ctx hay a)
  | Ast.Ft_words (e, opts) ->
      let stemming = List.mem Ast.Ft_stemming opts in
      let phrases = List.map I.item_string (eval ctx e) in
      List.exists (fun p -> Fulltext.contains ~stemming hay p) phrases

and apply_predicates ctx items preds =
  List.fold_left
    (fun items pred ->
      let n = List.length items in
      let keep =
        List.filteri
          (fun i item ->
            let pos = i + 1 in
            let fctx = D.with_focus ctx item ~position:pos ~size:n in
            let v = eval fctx pred in
            match v with
            | [ I.Atomic a ] when A.is_numeric a ->
                guard (fun () -> A.compare_value a (A.Integer pos) = 0)
            | v -> I.effective_boolean v)
          items
      in
      keep)
    items preds

and eval_flwor ctx ~clauses ~where ~order ~return =
  (* build the tuple stream as a list of contexts *)
  let rec expand ctxs = function
    | [] -> ctxs
    | Ast.Let_clause { var; var_type; value } :: rest ->
        let ctxs =
          List.map
            (fun c ->
              let v = eval c value in
              let v =
                match var_type with
                | Some st -> Seq_type.coerce ~what:("$" ^ Qname.to_string var) st v
                | None -> v
              in
              D.bind c var v)
            ctxs
        in
        expand ctxs rest
    | Ast.For_clause { var; pos_var; var_type; source } :: rest ->
        let ctxs =
          List.concat_map
            (fun c ->
              let items = eval c source in
              List.mapi
                (fun i item ->
                  let item_seq = [ item ] in
                  let item_seq =
                    match var_type with
                    | Some st ->
                        Seq_type.coerce ~what:("$" ^ Qname.to_string var) st item_seq
                    | None -> item_seq
                  in
                  let c = D.bind c var item_seq in
                  match pos_var with
                  | Some pv -> D.bind c pv [ I.Atomic (A.Integer (i + 1)) ]
                  | None -> c)
                items)
            ctxs
        in
        expand ctxs rest
  in
  let tuples = expand [ ctx ] clauses in
  let tuples =
    match where with
    | None -> tuples
    | Some w -> List.filter (fun c -> ebv_stream c w) tuples
  in
  let tuples = order_tuples order tuples in
  List.concat_map (fun c -> eval c return) tuples

(* order-by sort over a materialised tuple (context) list; shared by
   the FLWOR and hash-join plans *)
and order_tuples order tuples =
  if order = [] then tuples
  else begin
    let keyed =
      List.map
        (fun c ->
          let keys =
            List.map
              (fun spec ->
                let v = I.atomize (eval c spec.Ast.key) in
                match v with
                | [] -> None
                | [ a ] -> Some a
                | _ -> type_err "order by key must be a singleton")
              order
          in
          (keys, c))
        tuples
    in
    let compare_keys ka kb =
      let rec go ka kb specs =
        match (ka, kb, specs) with
        | [], [], _ -> 0
        | a :: ra, b :: rb, spec :: rs ->
            let c =
              match (a, b) with
              | None, None -> 0
              | None, Some _ ->
                  if spec.Ast.empty_greatest = Some true then 1 else -1
              | Some _, None ->
                  if spec.Ast.empty_greatest = Some true then -1 else 1
              | Some x, Some y ->
                  let x = match x with A.Untyped s -> A.String s | x -> x in
                  let y = match y with A.Untyped s -> A.String s | y -> y in
                  guard (fun () -> A.compare_value x y)
            in
            let c = if spec.Ast.descending then -c else c in
            if c <> 0 then c else go ra rb rs
        | _ -> 0
      in
      go ka kb order
    in
    List.stable_sort (fun (ka, _) (kb, _) -> compare_keys ka kb) keyed
    |> List.map snd
  end

(* Hash-join execution (planner-introduced; see Optimizer's join
   section). The right (build) side is hashed on its key's string
   atoms — both keys are variable-rooted node paths, so every atom is
   xs:untypedAtomic and string equality is exactly the comparison
   semantics of [eq] and of untyped-vs-untyped [=]. The left (probe)
   side streams through; tuples come out probe-major with build-side
   matches in source order, i.e. the nested-loop tuple order.

   Error parity with the nested-loop plan: the build is forced lazily
   at the first probe item, so an empty left source never evaluates
   the right source (the eager plan's second for clause expands an
   empty tuple set); an empty *right source* skips probe-key
   evaluation the same way (no tuples, so the eager where never
   runs). A multi-valued [eq] key is a singleton type error under the
   nested-loop plan only for pairs where the *other* operand is
   non-empty (empty operands make the comparison empty, hence false,
   before the cardinality of the other side matters) — so a
   multi-valued build key marks its position instead of raising, and
   each probe item with a non-empty key yields its matches from
   earlier build rows and then raises lazily when the consumer pulls
   past them, mirroring the nested loop's pair-by-pair order (an
   early-exiting consumer may stop before the erroring pair). Which
   of several inevitable errors is reported may still differ from the
   eager plan's pair order — XQuery §2.3.4 allows that reordering. *)
and hash_join_tuples ctx (j : Ast.hash_join) : D.t Seq.t =
  let table =
    lazy
      (let right = eval ctx j.Ast.jright_source in
       if !Obs.Metrics.enabled then Obs.Metrics.incr "xquery.join.hash_builds";
       let tbl : (string, (int * I.item) list) Hashtbl.t =
         Hashtbl.create (max 16 (List.length right))
       in
       (* first build row whose [eq] key has 2+ atoms: its pairs are
          singleton type errors for every non-empty probe key *)
       let pidx = ref max_int in
       List.iteri
         (fun i item ->
           let c = D.bind ctx j.Ast.jright_var [ item ] in
           match I.atomize (eval c j.Ast.jright_key) with
           | _ :: _ :: _ when not j.Ast.jgeneral ->
               if !pidx = max_int then pidx := i
           | atoms ->
               List.iter
                 (fun a ->
                   let ks = A.to_string a in
                   let prev =
                     Option.value ~default:[] (Hashtbl.find_opt tbl ks)
                   in
                   if not (List.exists (fun (i', _) -> i' = i) prev) then
                     Hashtbl.replace tbl ks ((i, item) :: prev))
                 atoms)
         right;
       Hashtbl.filter_map_inplace (fun _ l -> Some (List.rev l)) tbl;
       (tbl, !pidx, (match right with [] -> false | _ -> true)))
  in
  let singleton_err () = type_err "value comparison requires singleton operands" in
  let probe item =
    let c = D.bind ctx j.Ast.jleft_var [ item ] in
    let tbl, pidx, had_rows = Lazy.force table in
    let matches =
      if not had_rows then Seq.empty
      else begin
        if !Obs.Metrics.enabled then Obs.Metrics.incr "xquery.join.probes";
        match I.atomize (eval c j.Ast.jleft_key) with
        | [] -> Seq.empty
        | atoms when j.Ast.jgeneral ->
            (* several probe atoms can hit the same build row; the
               existential [=] keeps the tuple once, in b-order *)
            List.concat_map
              (fun a ->
                Option.value ~default:[] (Hashtbl.find_opt tbl (A.to_string a)))
              atoms
            |> List.sort_uniq (fun (i, _) (i', _) -> Int.compare i i')
            |> List.to_seq
        | [ a ] ->
            let ms =
              Option.value ~default:[] (Hashtbl.find_opt tbl (A.to_string a))
            in
            if pidx = max_int then List.to_seq ms
            else
              (* matches before the multi-valued build row stream
                 out; pulling past them reaches the erroring pair *)
              Seq.append
                (List.to_seq (List.filter (fun (i, _) -> i < pidx) ms))
                (fun () -> singleton_err ())
        | _ ->
            (* multi-valued [eq] probe key: every pair against a
               non-empty build key errors, and pairs against empty
               keys are false, so the first keyed build row raises *)
            if Hashtbl.length tbl > 0 || pidx < max_int then singleton_err ()
            else Seq.empty
      end
    in
    Seq.map (fun (_, bitem) -> D.bind c j.Ast.jright_var [ bitem ]) matches
  in
  let left_items =
    if !streaming then Xdm_seq.items (eval_seq ctx j.Ast.jleft_source)
    else List.to_seq (eval ctx j.Ast.jleft_source)
  in
  let pairs = Seq.concat_map probe left_items in
  match j.Ast.jwhere with
  | None -> pairs
  | Some w -> Seq.filter (fun c -> ebv_stream c w) pairs

and eval_insert ctx pos source_e target_e =
  let source_items = eval ctx source_e in
  let attrs, kids = normalize_content source_items in
  let target =
    match eval ctx target_e with
    | [ I.Node n ] -> n
    | _ -> err Xq_error.update_target "insert target must be a single node"
  in
  (match (pos : Ast.insert_position) with
  | Ast.Into | Ast.As_first_into | Ast.As_last_into ->
      (match Dom.kind target with
      | Dom.Element | Dom.Document -> ()
      | _ ->
          err Xq_error.update_target
            "insert into target must be an element or document");
      if attrs <> [] then Pul.add ctx.D.pul (Pul.Insert_attributes (target, attrs));
      if kids <> [] then
        Pul.add ctx.D.pul
          (match pos with
          | Ast.Into | Ast.As_last_into -> Pul.Insert_into (target, kids)
          | Ast.As_first_into -> Pul.Insert_first (target, kids)
          | _ -> assert false)
  | Ast.Before | Ast.After ->
      if attrs <> [] then
        err Xq_error.update_target "cannot insert attributes before/after a node";
      if kids <> [] then
        Pul.add ctx.D.pul
          (match pos with
          | Ast.Before -> Pul.Insert_before (target, kids)
          | _ -> Pul.Insert_after (target, kids)));
  []

(* -------- scripting blocks -------- *)

and eval_block ctx ~script stmts =
  if not script then
    match stmts with
    | [ Ast.S_expr e ] -> eval ctx e
    | _ -> type_err "a non-sequential function body must be a single expression"
  else begin
    let result = ref [] in
    let rec step c (stmt : Ast.statement) =
      let c', v =
        match stmt with
        | Ast.S_expr e -> (c, eval c e)
        | Ast.S_var_decl (var, var_type, init) ->
            let v =
              match init with
              | Some e ->
                  let v = eval c e in
                  Option.fold ~none:v
                    ~some:(fun st ->
                      Seq_type.coerce ~what:("$" ^ Qname.to_string var) st v)
                    var_type
              | None -> []
            in
            (D.bind c var v, [])
        | Ast.S_assign (var, e) ->
            let v = eval c e in
            let r = D.lookup_ref c var in
            r := v;
            (c, [])
        | Ast.S_while (cond, body) ->
            let rec loop c =
              if I.effective_boolean (eval c cond) then begin
                match
                  List.fold_left
                    (fun c stmt ->
                      let c, _ = step_stmt c stmt in
                      c)
                    c body
                with
                | c -> loop c
                | exception Break_loop -> c
                | exception Continue_loop -> loop c
              end
              else c
            in
            (loop c, [])
        | Ast.S_break ->
            Pul.apply c.D.pul;
            raise Break_loop
        | Ast.S_continue ->
            Pul.apply c.D.pul;
            raise Continue_loop
        | Ast.S_exit_with e ->
            let v = eval c e in
            Pul.apply c.D.pul;
            raise (Exit_with v)
      in
      (c', v)
    and step_stmt c stmt =
      let c', v = step c stmt in
      (* scripting: side effects become visible between statements *)
      Pul.apply c'.D.pul;
      (c', v)
    in
    ignore
      (List.fold_left
         (fun c stmt ->
           let c', v = step_stmt c stmt in
           result := v;
           c')
         ctx stmts);
    !result
  end

(* -------- function calls -------- *)

and build_call_ctx (ctx : D.t) =
  {
    Call_ctx.context_item =
      (match ctx.D.focus with Some f -> Some f.D.item | None -> None);
    position = (match ctx.D.focus with Some f -> f.D.position | None -> 0);
    size = (match ctx.D.focus with Some f -> f.D.size | None -> 0);
    doc = ctx.D.host.D.doc;
    doc_available = ctx.D.host.D.doc_available;
    put = ctx.D.host.D.put;
    now = ctx.D.host.D.now;
    trace = Call_ctx.default.Call_ctx.trace;
  }

and eval_call ctx qn arg_exprs =
  match (if !streaming then streaming_call ctx qn arg_exprs else None) with
  | Some r -> r
  | None ->
      let args = List.map (eval ctx) arg_exprs in
      call_function ctx qn args

(* ---- streaming machinery ---- *)

and range_bounds ctx a b =
  let intv e =
    match I.opt_atomic (eval ctx e) with
    | None -> None
    | Some a -> (
        match guard (fun () -> A.cast ~target:A.T_integer a) with
        | A.Integer i -> Some i
        | _ -> None)
  in
  match (intv a, intv b) with
  | Some lo, Some hi when lo <= hi -> Some (lo, hi)
  | _ -> None

and ebv_stream ctx e =
  if !streaming then Xdm_seq.effective_boolean (eval_seq ctx e)
  else I.effective_boolean (eval ctx e)

and atomize_seq cur =
  Seq.concat_map (fun it -> List.to_seq (I.atomize [ it ])) (Xdm_seq.items cur)

(* count(e) op k with m = min(count(e), k+1) pulled items:
   m op k ⟺ count(e) op k for every comparison operator *)
and bounded_count ctx op arg k =
  let bound = if k >= max_int - 1 then max_int else max 0 (k + 1) in
  let m = Seq.length (Seq.take bound (Xdm_seq.items (eval_seq ctx arg))) in
  let r =
    match (op : Ast.value_comp) with
    | Ast.Eq -> m = k
    | Ast.Ne -> m <> k
    | Ast.Lt -> m < k
    | Ast.Le -> m <= k
    | Ast.Gt -> m > k
    | Ast.Ge -> m >= k
  in
  [ I.Atomic (A.Boolean r) ]

(* does [qn] resolve to the fn: builtin [name] (not shadowed by a
   user declaration or an external binding, not security-blocked)? *)
and resolves_to_builtin ctx qn name ~arity =
  qn.Qname.uri = Some Qname.Ns.fn
  && String.equal qn.Qname.local name
  && (not (Static_context.is_blocked ctx.D.static qn))
  && Option.is_none (Static_context.find_function ctx.D.static qn ~arity)
  && Option.is_none (Static_context.find_external ctx.D.static qn ~arity)

(* Early-exit builtins take their arguments as cursors: fn:exists /
   fn:empty / fn:head pull at most one item, EBV-based fn:boolean /
   fn:not at most two, fn:subsequence a bounded prefix. Only fires
   when the name resolves to the builtin. *)
and streaming_call ctx qn arg_exprs =
  let builtin name =
    resolves_to_builtin ctx qn name ~arity:(List.length arg_exprs)
  in
  let count_call () =
    if !Obs.Metrics.enabled then begin
      Obs.Metrics.incr "eval.calls";
      Obs.Metrics.incr "eval.calls.builtin"
    end
  in
  let bool1 b =
    count_call ();
    Some [ I.Atomic (A.Boolean b) ]
  in
  match arg_exprs with
  | [ e ] when builtin "exists" ->
      bool1 (not (Xdm_seq.is_empty (eval_seq ctx e)))
  | [ e ] when builtin "empty" -> bool1 (Xdm_seq.is_empty (eval_seq ctx e))
  | [ e ] when builtin "head" ->
      count_call ();
      Some
        (match Xdm_seq.head (eval_seq ctx e) with
        | Some it -> [ it ]
        | None -> [])
  | [ e ] when builtin "boolean" ->
      bool1 (Xdm_seq.effective_boolean (eval_seq ctx e))
  | [ e ] when builtin "not" ->
      bool1 (not (Xdm_seq.effective_boolean (eval_seq ctx e)))
  | ([ _; _ ] | [ _; _; _ ]) when builtin "subsequence" ->
      count_call ();
      Some (subsequence_stream ctx arg_exprs)
  | _ -> None

(* mirrors the eager fn:subsequence exactly (round-to-nearest bounds,
   NaN → empty), but pulls only the ceil(upto)-1 prefix *)
and subsequence_stream ctx arg_exprs =
  let e, start_e, len_e =
    match arg_exprs with
    | [ e; s ] -> (e, s, None)
    | [ e; s; l ] -> (e, s, Some l)
    | _ -> assert false
  in
  let num x =
    guard (fun () -> I.item_number (I.Atomic (I.singleton_atomic (eval ctx x))))
  in
  let start = num start_e in
  let len =
    match len_e with Some l -> num l | None -> Float.infinity
  in
  let from = Float.floor (start +. 0.5) in
  let upto =
    if len = Float.infinity then Float.infinity
    else from +. Float.floor (len +. 0.5)
  in
  if Float.is_nan from || Float.is_nan upto then []
  else begin
    let bound =
      if upto = Float.infinity then max_int
      else if upto <= 1. then 0
      else if upto >= 1e18 then max_int
      else int_of_float (Float.ceil upto) - 1
    in
    let prefix = Seq.take bound (Xdm_seq.items (eval_seq ctx e)) in
    List.of_seq
      (Seq.map snd
         (Seq.filter
            (fun (i, _) ->
              let fi = float_of_int (i + 1) in
              fi >= from && fi < upto)
            (Seq.mapi (fun i x -> (i, x)) prefix)))
  end

(* the lazy mirror of [eval]: returns a pull cursor. Only expression
   forms that genuinely benefit stream; everything else — and every
   updating expression, whose pending-update side effects must not be
   skipped — falls back to the eager evaluator. *)
and eval_seq (ctx : D.t) (e : Ast.expr) : Xdm_seq.t =
  if (not !streaming) || Ast.is_updating e then Xdm_seq.of_list (eval ctx e)
  else
    match e with
    | Ast.E_sequence es ->
        List.fold_left
          (fun acc e ->
            Xdm_seq.append acc
              (Xdm_seq.make (fun () -> Xdm_seq.items (eval_seq ctx e) ())))
          Xdm_seq.empty es
    | Ast.E_range (a, b) -> (
        match range_bounds ctx a b with
        | Some (lo, hi) ->
            Xdm_seq.of_seq
              (Seq.map
                 (fun i -> I.Atomic (A.Integer i))
                 (Seq.init (hi - lo + 1) (fun i -> lo + i)))
        | None -> Xdm_seq.empty)
    | Ast.E_if (c, t, f) ->
        if ebv_stream ctx c then eval_seq ctx t else eval_seq ctx f
    | Ast.E_step (axis, test, preds) -> (
        match D.focus_item ctx with
        | I.Atomic _ -> type_err "axis step applied to an atomic context item"
        | I.Node n -> step_stream ctx axis test preds n)
    | Ast.E_path (e1, Ast.E_step (axis, test, preds))
      when (match seq_class e1 with
           | `One -> forward_ordered axis
           | `Sorted -> (
               match axis with
               | Ast.Self | Ast.Attribute_axis -> true
               | _ -> false)
           | `Unknown -> false) ->
        (* the chain provably emits distinct nodes in document order:
           stream it, skipping the document_order re-sort *)
        let lhs = eval_seq ctx e1 in
        Xdm_seq.make ~sorted:true
          (Seq.concat_map
             (fun item ->
               match item with
               | I.Node n -> Xdm_seq.items (step_stream ctx axis test preds n)
               | I.Atomic _ -> type_err "path step applied to an atomic value")
             (Xdm_seq.items lhs))
    | Ast.E_filter (e1, preds) ->
        apply_predicates_seq ctx (eval_seq ctx e1) preds
    | Ast.E_flwor { clauses; where; order = []; return } ->
        flwor_seq ctx clauses where return
    | Ast.E_hash_join j when j.Ast.jorder = [] ->
        (* unordered join output streams: the probe side is pulled
           lazily, so exists/head/[position() le k] over a join stop
           after the first matching probe items *)
        Xdm_seq.make
          (Seq.concat_map
             (fun c -> Xdm_seq.items (eval_seq c j.Ast.jreturn))
             (hash_join_tuples ctx j))
    | _ -> Xdm_seq.of_list (eval ctx e)

and step_stream ctx axis test preds n =
  match value_index_step axis test preds n with
  | Some (nodes, rest) ->
      apply_predicates_seq ctx
        (Xdm_seq.of_list ~sorted:true (List.map (fun m -> I.Node m) nodes))
        rest
  | None -> step_stream_scan ctx axis test preds n

and step_stream_scan ctx axis test preds n =
  let nodes =
    match (axis, test) with
    | ( (Ast.Descendant | Ast.Descendant_or_self),
        ((Ast.Local_wildcard _ | Ast.Name_test _) as t) )
      when Dom.acceleration_enabled () ->
        (* the local-name index bucket is already materialised in
           document order; stream it with lazy refinement instead of
           the eager fast path's List.filter copies *)
        fun () ->
          if !Obs.Metrics.enabled then begin
            Obs.Metrics.incr "eval.steps";
            Obs.Metrics.incr (axis_metric axis);
            Obs.Metrics.incr "eval.step.desc-index"
          end;
          let bucket, refine =
            match t with
            | Ast.Local_wildcard l -> (Dom.get_elements_by_local_name n l, None)
            | Ast.Name_test qn ->
                ( (if Sym.fastpaths_enabled () then
                     Dom.get_elements_by_local_sym n qn.Qname.lsym
                   else Dom.get_elements_by_local_name n qn.Qname.local),
                  Some
                    (fun m ->
                      match Dom.name m with
                      | Some nm -> Qname.equal nm qn
                      | None -> false) )
            | _ -> assert false (* excluded by the outer pattern *)
          in
          let s = List.to_seq bucket in
          let s = match refine with None -> s | Some f -> Seq.filter f s in
          let s =
            match axis with
            | Ast.Descendant -> Seq.filter (fun m -> not (Dom.equal m n)) s
            | _ -> s
          in
          s ()
    | _ ->
        if !Obs.Metrics.enabled then begin
          Obs.Metrics.incr "eval.steps";
          Obs.Metrics.incr (axis_metric axis)
        end;
        if Footprint.recording () then record_axis_scope axis n;
        Seq.filter (node_test_matches ~axis test) (axis_seq axis n)
  in
  let cur = Xdm_seq.of_node_seq ~sorted:(forward_ordered axis) nodes in
  apply_predicates_seq ctx cur preds

and apply_predicates_seq ctx cur preds =
  List.fold_left
    (fun cur pred ->
      match take_shape pred with
      | Some (`Nth k) ->
          if k < 1 then Xdm_seq.empty
          else
            Xdm_seq.make ~sorted:(Xdm_seq.sorted cur) ~at_most_one:true
              (Seq.take 1 (Seq.drop (k - 1) (Xdm_seq.items cur)))
      | Some (`First k) -> Xdm_seq.take k cur
      | None ->
          if Focus_analysis.uses_last pred then
            (* needs-last: the predicate observes the focus size, so
               this stage must materialise to compute it *)
            Xdm_seq.of_list ~sorted:(Xdm_seq.sorted cur)
              (apply_predicates ctx (Xdm_seq.to_list cur) [ pred ])
          else
            (* position is free — an incremental counter; size is
               never observed (checked above), so pass 0 *)
            Xdm_seq.filteri
              (fun i item ->
                let pos = i + 1 in
                let fctx = D.with_focus ctx item ~position:pos ~size:0 in
                match eval fctx pred with
                | [ I.Atomic a ] when A.is_numeric a ->
                    guard (fun () -> A.compare_value a (A.Integer pos) = 0)
                | v -> I.effective_boolean v)
              cur)
    cur preds

and flwor_seq ctx clauses where return =
  let rec expand (ctxs : D.t Seq.t) = function
    | [] -> ctxs
    | Ast.Let_clause { var; var_type; value } :: rest ->
        expand
          (Seq.map
             (fun c ->
               let v = eval c value in
               let v =
                 match var_type with
                 | Some st ->
                     Seq_type.coerce ~what:("$" ^ Qname.to_string var) st v
                 | None -> v
               in
               D.bind c var v)
             ctxs)
          rest
    | Ast.For_clause { var; pos_var; var_type; source } :: rest ->
        expand
          (Seq.concat_map
             (fun c ->
               Seq.mapi
                 (fun i item ->
                   let item_seq = [ item ] in
                   let item_seq =
                     match var_type with
                     | Some st ->
                         Seq_type.coerce
                           ~what:("$" ^ Qname.to_string var)
                           st item_seq
                     | None -> item_seq
                   in
                   let c = D.bind c var item_seq in
                   match pos_var with
                   | Some pv -> D.bind c pv [ I.Atomic (A.Integer (i + 1)) ]
                   | None -> c)
                 (Xdm_seq.items (eval_seq c source)))
             ctxs)
          rest
  in
  let tuples = expand (Seq.return ctx) clauses in
  let tuples =
    match where with
    | None -> tuples
    | Some w -> Seq.filter (fun c -> ebv_stream c w) tuples
  in
  Xdm_seq.make
    (Seq.concat_map (fun c -> Xdm_seq.items (eval_seq c return)) tuples)

and call_function ctx qn args =
  let arity = List.length args in
  if Static_context.is_blocked ctx.D.static qn then
    err Xq_error.security "function %s is blocked in this context (browser security policy)"
      (Qname.to_string qn);
  let count kind =
    if !Obs.Metrics.enabled then begin
      Obs.Metrics.incr "eval.calls";
      Obs.Metrics.incr kind
    end
  in
  (* xs: constructor functions are casts *)
  match qn.Qname.uri with
  | Some u when String.equal u Qname.Ns.xs && arity = 1 -> (
      count "eval.calls.constructor";
      match A.type_of_name qn.Qname.local with
      | Some ty -> (
          match I.atomize (List.hd args) with
          | [] -> []
          | [ a ] -> [ I.Atomic (guard (fun () -> A.cast ~target:ty a)) ]
          | _ -> type_err "constructor function requires a singleton")
      | None ->
          err Xq_error.unknown_function "unknown type constructor xs:%s"
            qn.Qname.local)
  | _ -> (
      match Static_context.find_function ctx.D.static qn ~arity with
      | Some decl ->
          count "eval.calls.user";
          call_user_function ctx decl args
      | None -> (
          match Static_context.find_external ctx.D.static qn ~arity with
          | Some f ->
              count "eval.calls.external";
              (* external functions reach host state the footprint
                 cannot see *)
              Footprint.poison ();
              f (build_call_ctx ctx) args
          | None -> (
              match Functions.find qn ~arity with
              | Some f ->
                  count "eval.calls.builtin";
                  if Reactive.impure_builtin_sym qn.Qname.lsym then
                    Footprint.poison ();
                  guard (fun () -> f (build_call_ctx ctx) args)
              | None ->
                  err Xq_error.unknown_function
                    "unknown function %s#%d" (Qname.to_string qn) arity)))

and call_user_function ctx (decl : Ast.function_decl) args =
  (* compiled-eval fast path: Engine installs closure-compiled bodies
     into the dynamic context (keyed by symbol triple); fall through
     to the tree-walking dispatch when none is registered *)
  (match
     if Hashtbl.length ctx.D.compiled_fns = 0 then None
     else
       Hashtbl.find_opt ctx.D.compiled_fns
         (D.fn_key decl.Ast.fname ~arity:(List.length decl.Ast.params))
   with
  | Some impl -> impl ctx args
  | None -> call_user_function_ast ctx decl args)

and call_user_function_ast ctx (decl : Ast.function_decl) args =
  if ctx.D.depth > max_depth then
    err "XQDY0054" "maximum recursion depth exceeded in %s"
      (Qname.to_string decl.Ast.fname);
  let fctx = D.function_scope ctx in
  let fctx =
    List.fold_left2
      (fun c (pname, ptype) arg ->
        let arg =
          match ptype with
          | Some st -> Seq_type.coerce ~what:("$" ^ Qname.to_string pname) st arg
          | None -> arg
        in
        D.bind c pname arg)
      fctx decl.Ast.params args
  in
  let body =
    match decl.Ast.body with
    | Some b -> b
    | None ->
        err Xq_error.unknown_function "external function %s has no implementation"
          (Qname.to_string decl.Ast.fname)
  in
  let run () =
    match (decl.Ast.kind, body) with
    | Ast.F_sequential, Ast.E_block stmts -> eval_block fctx ~script:true stmts
    | _, Ast.E_block [ Ast.S_expr e ] -> eval fctx e
    | _, Ast.E_block stmts -> eval_block fctx ~script:true stmts
    | _, e -> eval fctx e
  in
  let result =
    try run () with
    | Exit_with v -> v
    | Break_loop | Continue_loop ->
        err "XSST0010" "break/continue outside of a while loop"
  in
  match decl.Ast.return_type with
  | Some st ->
      Seq_type.coerce ~what:(Qname.to_string decl.Ast.fname ^ " result") st result
  | None -> result

and make_listener ctx qn =
  let invoke ?memo ?key mk_args =
    let arity_for n = Static_context.find_function ctx.D.static qn ~arity:n in
    (* pad/truncate the provided arguments to a declared arity *)
    let fit args =
      let rec go n =
        if n < 0 then args
        else if arity_for n <> None then begin
          let provided = List.length args in
          if provided >= n then List.filteri (fun i _ -> i < n) args
          else args @ List.init (n - provided) (fun _ -> [])
        end
        else go (n - 1)
      in
      go 4
    in
    let run_plain args =
      match protect (fun () -> call_function ctx qn args) with
      | _ -> Pul.apply ctx.D.pul
      | exception Xq_error.Error e ->
          Pul.clear ctx.D.pul;
          ctx.D.host.D.listener_error (Xq_error.to_string e)
      | exception Exit_with _ -> Pul.apply ctx.D.pul
    in
    (* Re-run the listener with footprint recording; everything it
       reads lands in [fp], and impurity (PUL effects, external calls,
       impure builtins, global reads) poisons it. [Pul.apply] must run
       while recording is still active so its effects poison the run. *)
    let run_recorded m akey args =
      Reactive.count_rerun ();
      let fp = Footprint.create () in
      let prev = Footprint.start fp in
      let closed = ref false in
      let finish ~ok result =
        closed := true;
        Footprint.restore prev;
        Reactive.finish_run m ~ok ~args_key:akey ~fp ~result
      in
      Fun.protect
        ~finally:(fun () -> if not !closed then finish ~ok:false [])
        (fun () ->
          match
            protect (fun () ->
                Reactive.record_args args;
                call_function ctx qn args)
          with
          | result ->
              Pul.apply ctx.D.pul;
              finish ~ok:true result
          | exception Xq_error.Error e ->
              Pul.clear ctx.D.pul;
              finish ~ok:false [];
              ctx.D.host.D.listener_error (Xq_error.to_string e)
          | exception Exit_with v ->
              Pul.apply ctx.D.pul;
              finish ~ok:true v)
    in
    match memo with
    | None -> run_plain (fit (mk_args ()))
    | Some m -> (
        (* the host's precomputed key lets a Skip happen before the
           argument thunk is even forced; without one, force the
           arguments and fingerprint them structurally *)
        let akey, args =
          match key with
          | Some k -> (k, lazy (fit (mk_args ())))
          | None ->
              let a = fit (mk_args ()) in
              (Reactive.args_key a, lazy a)
        in
        match Reactive.decide m ~args_key:akey with
        | Reactive.Skip -> Reactive.count_skip ()
        | Reactive.Run_plain ->
            Reactive.count_rerun ();
            run_plain (Lazy.force args)
        | Reactive.Run_recorded -> run_recorded m akey (Lazy.force args))
  in
  { D.listener_name = qn; invoke }
