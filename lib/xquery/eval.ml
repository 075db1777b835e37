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

(* wrap Xdm exceptions into Xq_error *)
let guard f =
  try f () with
  | A.Type_error m -> type_err "%s" m
  | A.Cast_error m -> err Xq_error.cast_error_code "%s" m
  | A.Dynamic_error (code, m) -> err code "%s" m
  | Xdm_duration.Overflow m -> err "FODT0002" "%s" m
  | Division_by_zero -> err Xq_error.div_by_zero "division by zero"

let protect = guard

let singleton_comparison_error () =
  type_err "value comparison requires singleton operands"

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

let count_step axis =
  if !Obs.Metrics.enabled then begin
    Obs.Metrics.incr "eval.steps";
    Obs.Metrics.incr (axis_metric axis)
  end

(* descendant::name and descendant-or-self::name (what the optimizer
   rewrites //name into) select from the per-document local-name index
   instead of walking the subtree: the bucket, in document order, and
   the test a member must pass to match the exact name and axis. [None]
   when the index does not apply. *)
let desc_index_select axis (test : Ast.node_test) n =
  match (axis, test) with
  | (Ast.Descendant | Ast.Descendant_or_self), (Ast.Local_wildcard _ | Ast.Name_test _)
    when Dom.acceleration_enabled () ->
      if !Obs.Metrics.enabled then Obs.Metrics.incr "eval.step.desc-index";
      let bucket, named =
        match test with
        | Ast.Name_test qn ->
            (* probe by the name's pre-interned symbol *)
            ( Dom.get_elements_by_local_sym n qn.Qname.lsym,
              fun m ->
                match Dom.name m with Some nm -> Qname.equal nm qn | None -> false )
        | Ast.Local_wildcard local ->
            (Dom.get_elements_by_local_name n local, fun _ -> true)
        | _ -> assert false (* excluded by the outer pattern *)
      in
      (match axis with
      | Ast.Descendant -> Some (bucket, fun m -> named m && not (Dom.equal m n))
      | _ -> Some (bucket, named))
  | _ -> None

(* Nodes selected by one axis step, eagerly ([step_nodes]) or as a
   lazy producer that selects at its first pull ([step_node_seq]). *)
let step_nodes axis (test : Ast.node_test) n =
  count_step axis;
  match desc_index_select axis test n with
  | Some (bucket, keep) -> List.filter keep bucket
  | None ->
      if Footprint.recording () then record_axis_scope axis n;
      List.filter (node_test_matches ~axis test) (axis_nodes axis n)

let step_node_seq axis (test : Ast.node_test) n : Dom.node Seq.t =
 fun () ->
  count_step axis;
  match desc_index_select axis test n with
  | Some (bucket, keep) -> Seq.filter keep (List.to_seq bucket) ()
  | None ->
      if Footprint.recording () then record_axis_scope axis n;
      Seq.filter (node_test_matches ~axis test) (axis_seq axis n) ()

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
      count_step axis;
      if !Obs.Metrics.enabled then Obs.Metrics.incr "eval.step.value-index";
      Some (List.sort_uniq Dom.compare_order nodes, rest)
    in
    (* probes key on the Qname's pre-interned symbol *)
    let attr_lookup qn s ~general rest =
      match Dom.elements_by_attr_value_sym n ~local:qn.Qname.lsym s with
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
              | _ -> singleton_comparison_error ()
          in
          finish (List.filter keep bucket) rest
    in
    let child_lookup qn s rest =
      match Dom.elements_by_text_value_sym n ~local:qn.Qname.lsym s with
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
(* Shared rules                                                        *)

(* Every rule below takes its operands already evaluated. Each arm of
   [eval] and each closure {!Compile} emits evaluates its operands and
   then makes one call here, so the two engines raise the same error
   codes and messages and bump the same metrics by construction. *)

let bool_seq b = [ I.Atomic (A.Boolean b) ]

let count_call kind =
  if !Obs.Metrics.enabled then begin
    Obs.Metrics.incr "eval.calls";
    Obs.Metrics.incr kind
  end

(* -------- comparisons -------- *)

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

let value_comp op ra rb =
  match (ra, rb) with
  | [ I.Atomic (A.Integer i) ], [ I.Atomic (A.Integer j) ] ->
      (* integer operands need no promotion and no NaN guard *)
      bool_seq
        (match (op : Ast.value_comp) with
        | Ast.Eq -> i = j
        | Ast.Ne -> i <> j
        | Ast.Lt -> i < j
        | Ast.Le -> i <= j
        | Ast.Gt -> i > j
        | Ast.Ge -> i >= j)
  | _ -> (
      match (I.atomize ra, I.atomize rb) with
      | [], _ | _, [] -> []
      | [ x ], [ y ] -> bool_seq (value_compare_pair op x y)
      | _ -> singleton_comparison_error ())

let atomize_seq cur =
  Seq.concat_map (fun it -> List.to_seq (I.atomize [ it ])) (Xdm_seq.items cur)

(* existential semantics: true at the first lhs atom matching some
   rhs atom *)
let general_match op vb x = List.exists (fun y -> general_compare_pair op x y) vb

let general_comp op ra rb =
  let va = I.atomize ra in
  bool_seq (List.exists (general_match op (I.atomize rb)) va)

let general_comp_stream op cur rb =
  bool_seq (Seq.exists (general_match op (I.atomize rb)) (atomize_seq cur))

let node_comp op na nb =
  match (na, nb) with
  | [], _ | _, [] -> []
  | [ I.Node x ], [ I.Node y ] ->
      bool_seq
        (match (op : Ast.node_comp) with
        | Ast.Is -> Dom.equal x y
        | Ast.Precedes -> Dom.compare_order x y < 0
        | Ast.Follows -> Dom.compare_order x y > 0)
  | _ -> type_err "node comparison requires single nodes"

(* -------- arithmetic -------- *)

(* The operation is picked once per [op]; integer-integer operands
   take the checked int op directly (what {!Xdm_atomic.numeric_op}
   does after an identity promotion), except division and the by-zero
   cases, which keep the generic path for its error mapping. *)
let arith op =
  let f =
    match (op : Ast.arith) with
    | Ast.Add -> A.add
    | Ast.Sub -> A.subtract
    | Ast.Mul -> A.multiply
    | Ast.Div -> A.divide
    | Ast.Idiv -> A.integer_divide
    | Ast.Mod -> A.modulo
  in
  fun ra rb ->
    match (ra, rb) with
    | [ I.Atomic (A.Integer i as x) ], [ I.Atomic (A.Integer j as y) ] -> (
        try
          match op with
          | Ast.Add -> [ I.Atomic (A.Integer (A.int_add i j)) ]
          | Ast.Sub -> [ I.Atomic (A.Integer (A.int_sub i j)) ]
          | Ast.Mul -> [ I.Atomic (A.Integer (A.int_mul i j)) ]
          | Ast.Mod when j <> 0 -> [ I.Atomic (A.Integer (i mod j)) ]
          | Ast.Idiv when j <> 0 -> [ I.Atomic (A.Integer (A.int_div i j)) ]
          | _ -> [ I.Atomic (guard (fun () -> f x y)) ]
        with A.Dynamic_error (code, m) -> err code "%s" m)
    | _ -> (
        match (I.atomize ra, I.atomize rb) with
        | [], _ | _, [] -> []
        | [ x ], [ y ] -> [ I.Atomic (guard (fun () -> f x y)) ]
        | _ -> type_err "arithmetic requires singleton operands")

(* union, intersect and except over node sequences *)
let set_op op ra rb = guard (fun () -> op ra rb)

let unary_minus v =
  match I.atomize v with
  | [] -> []
  | [ x ] -> [ I.Atomic (guard (fun () -> A.negate x)) ]
  | _ -> type_err "unary minus requires a singleton operand"

(* -------- types -------- *)

let instance_of st v = bool_seq (Seq_type.matches st v)

let treat_as st v =
  if Seq_type.matches st v then v
  else
    err "XPDY0050" "treat as %s failed on a sequence of %d item(s)"
      (Seq_type.to_string st) (List.length v)

let castable_as ty optional v =
  match I.atomize v with
  | [] -> bool_seq optional
  | [ x ] -> bool_seq (A.castable ~target:ty x)
  | _ -> bool_seq false

let cast_as ty optional v =
  match I.atomize v with
  | [] ->
      if optional then []
      else type_err "cast of an empty sequence to a non-optional type"
  | [ x ] -> [ I.Atomic (guard (fun () -> A.cast ~target:ty x)) ]
  | _ -> type_err "cast requires a singleton operand"

(* an xs: constructor function casts its atomized argument; xs:integer
   on an integer is the identity *)
let constructor_cast ty v =
  count_call "eval.calls.constructor";
  match v with
  | [ I.Atomic (A.Integer _) ] when ty = A.T_integer -> v
  | _ -> (
      match I.atomize v with
      | [] -> []
      | [ x ] -> [ I.Atomic (guard (fun () -> A.cast ~target:ty x)) ]
      | _ -> type_err "constructor function requires a singleton")

(* -------- paths and predicates -------- *)

let root ctx =
  match D.focus_item ctx with
  | I.Node n -> [ I.Node (Dom.root n) ]
  | I.Atomic _ -> type_err "the context item for '/' is not a node"

let node_items nodes = List.map (fun m -> I.Node m) nodes

let atomic_context_step () =
  type_err "axis step applied to an atomic context item"

let atomic_path_step () = type_err "path step applied to an atomic value"

(* One axis step from the focus node. The value index answers a
   leading [@k eq 'lit'] predicate when it can, consuming it; otherwise
   the axis is scanned. [filter x] applies the remaining predicates —
   [preds] are their evaluable forms, [ast_preds] the surface forms the
   index probe inspects. ([x] is passed through so that callers need
   not allocate a closure per step.) *)
let step ctx axis test ast_preds preds ~filter x =
  match D.focus_item ctx with
  | I.Atomic _ -> atomic_context_step ()
  | I.Node n -> (
      match value_index_step axis test ast_preds n with
      | Some (nodes, _) -> filter x (node_items nodes) (List.tl preds)
      | None -> filter x (node_items (step_nodes axis test n)) preds)

(* a path's result: nodes in document order without duplicates,
   atomics as they come, never a mix *)
let path_result results =
  if results = [] then []
  else if I.all_nodes results then guard (fun () -> I.document_order results)
  else if List.exists I.is_node results then
    err "XPTY0018" "path result mixes nodes and atomic values"
  else results

(* the rhs of a path once per lhs item, that item as the focus *)
let path ctx lhs rhs =
  let n = List.length lhs in
  path_result
    (List.concat
       (List.mapi
          (fun i item ->
            match item with
            | I.Node _ -> rhs (D.with_focus ctx item ~position:(i + 1) ~size:n)
            | I.Atomic _ -> atomic_path_step ())
          lhs))

(* a numeric predicate value keeps the item at that position; any
   other value keeps it by its effective boolean value *)
let predicate_keeps v pos =
  match v with
  | [ I.Atomic a ] when A.is_numeric a ->
      guard (fun () -> A.compare_value a (A.Integer pos) = 0)
  | v -> I.effective_boolean v

(* a predicate chain; per stage the focus size is the stage input
   length. [eval_pred] evaluates one predicate in a focus context. *)
let filter_items eval_pred ctx items preds =
  List.fold_left
    (fun items pred ->
      let n = List.length items in
      List.filteri
        (fun i item ->
          let pos = i + 1 in
          predicate_keeps
            (eval_pred (D.with_focus ctx item ~position:pos ~size:n) pred)
            pos)
        items)
    items preds

(* -------- bindings and ranges -------- *)

(* a declared type on a FLWOR, block or parameter binding *)
let coerce_binding var = function
  | None -> Fun.id
  | Some st ->
      let what = "$" ^ Qname.to_string var in
      fun v -> Seq_type.coerce ~what st v

(* an empty operand yields no range; a failing cast propagates *)
let range_endpoint v =
  match I.opt_atomic v with
  | None -> None
  | Some a -> (
      match guard (fun () -> A.cast ~target:A.T_integer a) with
      | A.Integer i -> Some i
      | _ -> None)

let range_bounds lo hi =
  match (lo, hi) with
  | Some lo, Some hi when lo <= hi -> Some (lo, hi)
  | _ -> None

let range lo hi =
  match range_bounds lo hi with
  | Some (lo, hi) ->
      List.init (hi - lo + 1) (fun i -> I.Atomic (A.Integer (lo + i)))
  | None -> []

(* -------- quantifiers and joins -------- *)

(* [some]/[every] over one binding's items, coerced to its declared
   type; the first deciding item stops the walk *)
let quantify quant var_type test (items : I.item Seq.t) =
  let coerce st it = List.hd (Seq_type.coerce ~what:"quantifier binding" st [ it ]) in
  let test = Option.fold ~none:test ~some:(fun st it -> test (coerce st it)) var_type in
  match (quant : Ast.quantifier) with
  | Ast.Some_quant -> Seq.exists test items
  | Ast.Every_quant -> Seq.for_all test items

(* Hash-join execution (planner-introduced; see Optimizer's join
   section). The right (build) side is hashed on its key's string
   atoms — both keys are variable-rooted node paths, so every atom is
   xs:untypedAtomic and string equality is exactly the comparison
   semantics of [eq] and of untyped-vs-untyped [=]. The left (probe)
   side streams through; (probe, build) pairs come out probe-major with
   build-side matches in source order, i.e. the nested-loop tuple
   order. The callers bind the join variables — by name in {!eval}, by
   frame slot in {!Compile}.

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
let hash_join ~general ~build ~build_key ~probe_key (probe_items : I.item Seq.t)
    : (I.item * I.item) Seq.t =
  let table =
    lazy
      (let right = build () in
       if !Obs.Metrics.enabled then Obs.Metrics.incr "xquery.join.hash_builds";
       let tbl : (string, (int * I.item) list) Hashtbl.t =
         Hashtbl.create (max 16 (List.length right))
       in
       (* first build row whose [eq] key has 2+ atoms: its pairs are
          singleton type errors for every non-empty probe key *)
       let pidx = ref max_int in
       List.iteri
         (fun i item ->
           match I.atomize (build_key item) with
           | _ :: _ :: _ when not general ->
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
  let probe item =
    let tbl, pidx, had_rows = Lazy.force table in
    let matches =
      if not had_rows then Seq.empty
      else begin
        if !Obs.Metrics.enabled then Obs.Metrics.incr "xquery.join.probes";
        match I.atomize (probe_key item) with
        | [] -> Seq.empty
        | atoms when general ->
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
                (fun () -> singleton_comparison_error ())
        | _ ->
            (* multi-valued [eq] probe key: every pair against a
               non-empty build key errors, and pairs against empty
               keys are false, so the first keyed build row raises *)
            if Hashtbl.length tbl > 0 || pidx < max_int then singleton_comparison_error ()
            else Seq.empty
      end
    in
    Seq.map (fun (_, bitem) -> (item, bitem)) matches
  in
  Seq.concat_map probe probe_items

(* -------- calls -------- *)

let call_ctx (ctx : D.t) =
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

(* [impure] builtins poison the footprint of a recorded listener run *)
let call_builtin ~impure ctx impl args =
  count_call "eval.calls.builtin";
  if impure then Footprint.poison ();
  guard (fun () -> impl (call_ctx ctx) args)

(* a builtin call whose body consumes its argument cursors itself
   (the compiler's early-exit builtins): counted like {!call_builtin} *)
let call_early_exit f =
  count_call "eval.calls.builtin";
  guard f

(* the boundary of a function or program body: [exit with] returns
   its value, a stray [break]/[continue] is an error *)
let run_body f =
  try guard f with
  | Exit_with v -> v
  | Break_loop | Continue_loop ->
      err "XSST0010" "break/continue outside of a while loop"

(* A user-function call: depth check, parameter coercion, the body
   ([run], given the function scope and the coerced arguments) inside
   {!run_body}, result coercion. *)
let call_user (decl : Ast.function_decl) ctx args run =
  if ctx.D.depth > max_depth then
    err "XQDY0054" "maximum recursion depth exceeded in %s"
      (Qname.to_string decl.Ast.fname);
  let args =
    List.map2
      (fun (pname, ptype) arg -> coerce_binding pname ptype arg)
      decl.Ast.params args
  in
  let fctx = D.function_scope ctx in
  let result = run_body (fun () -> run fctx args) in
  match decl.Ast.return_type with
  | Some st ->
      Seq_type.coerce ~what:(Qname.to_string decl.Ast.fname ^ " result") st result
  | None -> result

(* -------- constructors -------- *)

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

(* Constructors create their node before evaluating its content. A
   direct constructor's attribute value concatenates its parts: [part]
   classifies each as literal [`Text] or as the [`Value] of an enclosed
   expression, which contributes its string value. *)
let direct_element name attributes ~part ~children =
  let el = Dom.create_element name in
  let attrs =
    List.map
      (fun (an, parts) ->
        ( an,
          String.concat ""
            (List.map
               (fun p ->
                 match part p with
                 | `Text t -> t
                 | `Value v -> I.sequence_string v)
               parts) ))
      attributes
  in
  construct ~attrs el (children ())

let constructed_name ctx v = qname_of_value ctx (I.singleton_atomic v)

let computed_element name content =
  let el = Dom.create_element name in
  construct el (content ())

let computed_attribute name v =
  [ I.Node (Dom.create_attribute name (I.sequence_string v)) ]

let computed_text v = [ I.Node (Dom.create_text (I.sequence_string v)) ]
let computed_comment v = [ I.Node (Dom.create_comment (I.sequence_string v)) ]

let computed_pi target v =
  let target = I.sequence_string target in
  [ I.Node (Dom.create_pi ~target (I.sequence_string v)) ]

let computed_document content =
  let doc = Dom.create_document () in
  construct doc (content ())

(* ------------------------------------------------------------------ *)
(* The evaluator                                                       *)

let rec eval (ctx : D.t) (e : Ast.expr) : I.sequence =
  match e with
  | Ast.E_literal a -> [ I.Atomic a ]
  | Ast.E_text_literal s -> [ I.Node (Dom.create_text s) ]
  | Ast.E_var qn -> D.lookup ctx qn
  | Ast.E_context_item -> [ D.focus_item ctx ]
  | Ast.E_sequence es -> List.concat_map (eval ctx) es
  | Ast.E_range (a, b) ->
      let lo = range_endpoint (eval ctx a) in
      range lo (range_endpoint (eval ctx b))
  | Ast.E_if (c, t, f) -> if ebv ctx c then eval ctx t else eval ctx f
  | Ast.E_or (a, b) ->
      if ebv ctx a then [ I.Atomic (A.Boolean true) ]
      else [ I.Atomic (A.Boolean (ebv ctx b)) ]
  | Ast.E_and (a, b) ->
      if not (ebv ctx a) then [ I.Atomic (A.Boolean false) ]
      else [ I.Atomic (A.Boolean (ebv ctx b)) ]
  | Ast.E_value_comp (op, a, b) ->
      let ra = eval ctx a in
      value_comp op ra (eval ctx b)
  | Ast.E_general_comp (op, a, b) ->
      let ra = eval ctx a in
      general_comp op ra (eval ctx b)
  | Ast.E_node_comp (op, a, b) ->
      let na = eval ctx a in
      node_comp op na (eval ctx b)
  | Ast.E_ftcontains (e, sel) ->
      let hay = eval ctx e in
      let text =
        String.concat " " (List.map I.item_string hay)
      in
      [ I.Atomic (A.Boolean (eval_ft ctx text sel)) ]
  | Ast.E_arith (op, a, b) ->
      let ra = eval ctx a in
      arith op ra (eval ctx b)
  | Ast.E_unary_minus e -> unary_minus (eval ctx e)
  | Ast.E_union (a, b) -> eval_set_op ctx I.union a b
  | Ast.E_intersect (a, b) -> eval_set_op ctx I.intersect a b
  | Ast.E_except (a, b) -> eval_set_op ctx I.except a b
  | Ast.E_instance_of (e, st) -> instance_of st (eval ctx e)
  | Ast.E_treat_as (e, st) -> treat_as st (eval ctx e)
  | Ast.E_castable_as (e, ty, optional) -> castable_as ty optional (eval ctx e)
  | Ast.E_cast_as (e, ty, optional) -> cast_as ty optional (eval ctx e)
  | Ast.E_root -> root ctx
  | Ast.E_step (axis, test, preds) ->
      step ctx axis test preds preds ~filter:apply_predicates ctx
  | Ast.E_path (e1, e2) -> path ctx (eval ctx e1) (fun c -> eval c e2)
  | Ast.E_filter (e, preds) ->
      let items = eval ctx e in
      apply_predicates ctx items preds
  | Ast.E_flwor { clauses; where; order; return } ->
      eval_flwor ctx ~clauses ~where ~order ~return
  | Ast.E_hash_join j ->
      let left c l = D.bind c j.Ast.jleft_var [ l ]
      and right c r = D.bind c j.Ast.jright_var [ r ] in
      hash_join ~general:j.Ast.jgeneral
        ~build:(fun () -> eval ctx j.Ast.jright_source)
        ~build_key:(fun r -> eval (right ctx r) j.Ast.jright_key)
        ~probe_key:(fun l -> eval (left ctx l) j.Ast.jleft_key)
        (List.to_seq (eval ctx j.Ast.jleft_source))
      |> Seq.map (fun (l, r) -> right (left ctx l) r)
      |> Seq.filter (fun c -> Option.fold ~none:true ~some:(ebv c) j.Ast.jwhere)
      |> List.of_seq |> order_tuples j.Ast.jorder
      |> List.concat_map (fun c -> eval c j.Ast.jreturn)
  | Ast.E_quantified (quant, binds, body) ->
      let rec go ctx = function
        | [] -> ebv ctx body
        | (var, var_type, src) :: rest ->
            quantify quant var_type
              (fun item -> go (D.bind ctx var [ item ]) rest)
              (List.to_seq (eval ctx src))
      in
      bool_seq (go ctx binds)
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
  | Ast.E_call (qn, args) -> call_function ctx qn (List.map (eval ctx) args)
  | Ast.E_ordered e | Ast.E_unordered e -> eval ctx e
  | Ast.E_enclosed e -> eval ctx e
  (* ---- constructors ---- *)
  | Ast.E_direct_element { name; attributes; children } ->
      direct_element name attributes
        ~part:(function
          | Ast.A_text t -> `Text t | Ast.A_enclosed e -> `Value (eval ctx e))
        ~children:(fun () -> List.concat_map (eval ctx) children)
  | Ast.E_computed_element (name_e, content_e) ->
      let name = constructed_name ctx (eval ctx name_e) in
      computed_element name (fun () -> eval ctx content_e)
  | Ast.E_computed_attribute (name_e, content_e) ->
      let name = constructed_name ctx (eval ctx name_e) in
      computed_attribute name (eval ctx content_e)
  | Ast.E_computed_text e -> computed_text (eval ctx e)
  | Ast.E_computed_comment e -> computed_comment (eval ctx e)
  | Ast.E_computed_pi (name_e, content_e) ->
      let target = eval ctx name_e in
      computed_pi target (eval ctx content_e)
  | Ast.E_computed_document e -> computed_document (fun () -> eval ctx e)
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
      let name = constructed_name ctx (eval ctx name_e) in
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

and ebv ctx e = I.effective_boolean (eval ctx e)

and eval_set_op ctx op a b =
  let ra = eval ctx a in
  set_op op ra (eval ctx b)

and eval_ft ctx hay (sel : Ast.ft_selection) =
  match sel with
  | Ast.Ft_and (a, b) -> eval_ft ctx hay a && eval_ft ctx hay b
  | Ast.Ft_or (a, b) -> eval_ft ctx hay a || eval_ft ctx hay b
  | Ast.Ft_not a -> not (eval_ft ctx hay a)
  | Ast.Ft_words (e, opts) ->
      let stemming = List.mem Ast.Ft_stemming opts in
      let phrases = List.map I.item_string (eval ctx e) in
      List.exists (fun p -> Fulltext.contains ~stemming hay p) phrases

and apply_predicates ctx items preds = filter_items eval ctx items preds

and eval_flwor ctx ~clauses ~where ~order ~return =
  (* build the tuple stream as a list of contexts *)
  let rec expand ctxs = function
    | [] -> ctxs
    | Ast.Let_clause { var; var_type; value } :: rest ->
        let coerce = coerce_binding var var_type in
        expand (List.map (fun c -> D.bind c var (coerce (eval c value))) ctxs) rest
    | Ast.For_clause { var; pos_var; var_type; source } :: rest ->
        let coerce = coerce_binding var var_type in
        let ctxs =
          List.concat_map
            (fun c ->
              let items = eval c source in
              List.mapi
                (fun i item ->
                  let c = D.bind c var (coerce [ item ]) in
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
    | Some w -> List.filter (fun c -> ebv c w) tuples
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
              | Some e -> coerce_binding var var_type (eval c e)
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

and call_function ctx qn args =
  let arity = List.length args in
  if Static_context.is_blocked ctx.D.static qn then
    err Xq_error.security "function %s is blocked in this context (browser security policy)"
      (Qname.to_string qn);
  (* xs: constructor functions are casts *)
  match qn.Qname.uri with
  | Some u when String.equal u Qname.Ns.xs && arity = 1 -> (
      match A.type_of_name qn.Qname.local with
      | Some ty -> constructor_cast ty (List.hd args)
      | None ->
          count_call "eval.calls.constructor";
          err Xq_error.unknown_function "unknown type constructor xs:%s"
            qn.Qname.local)
  | _ -> (
      match Static_context.find_function ctx.D.static qn ~arity with
      | Some decl ->
          count_call "eval.calls.user";
          call_user_function ctx decl args
      | None -> (
          match Static_context.find_external ctx.D.static qn ~arity with
          | Some f ->
              count_call "eval.calls.external";
              (* external functions reach host state the footprint
                 cannot see *)
              Footprint.poison ();
              f (call_ctx ctx) args
          | None -> (
              match Functions.find qn ~arity with
              | Some f ->
                  call_builtin
                    ~impure:(Reactive.impure_builtin_sym qn.Qname.lsym)
                    ctx f args
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
  call_user decl ctx args (fun fctx args ->
      let fctx =
        List.fold_left2
          (fun c (pname, _) arg -> D.bind c pname arg)
          fctx decl.Ast.params args
      in
      match (decl.Ast.kind, decl.Ast.body) with
      | _, None ->
          err Xq_error.unknown_function
            "external function %s has no implementation"
            (Qname.to_string decl.Ast.fname)
      | Ast.F_sequential, Some (Ast.E_block stmts) ->
          eval_block fctx ~script:true stmts
      | _, Some (Ast.E_block [ Ast.S_expr e ]) -> eval fctx e
      | _, Some (Ast.E_block stmts) -> eval_block fctx ~script:true stmts
      | _, Some e -> eval fctx e)

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
              ctx.D.host.D.listener_error (Xq_error.to_string e))
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
