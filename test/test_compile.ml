(* The closure compiler: compiled-vs-reference equivalence (unit and
   QCheck; the tree-walking evaluator is the eager reference, compiled
   code streams), the streaming shapes lowering without opaque nodes,
   hot-shape edge cases (integer arithmetic, range-fused FLWOR, the
   predicate-free path step), dispatch of user-function calls through
   the context's compiled-function table, and the browser wiring
   (page scripts and per-event listeners run compiled code;
   browser:stats() reports the compile counters). *)

open Xquery
module A = Xdm_atomic
module I = Xdm_item
module Q = QCheck

let check = Alcotest.check
let t name f = Alcotest.test_case name `Quick f

let qt ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (Q.Test.make ~count ~name gen prop)

let with_compiled compiled f =
  let prev = Engine.compiled_eval_enabled () in
  Engine.set_compiled_eval compiled;
  Fun.protect ~finally:(fun () -> Engine.set_compiled_eval prev) f

(* attributes and element text so paths, predicates, and casts all
   have something to chew on *)
let doc =
  "<r><a><x k='1'>1</x><x k='2'>2</x></a><a><x k='3'>3</x></a><b>7</b></r>"

let outcome ?(doc = doc) ~compiled src =
  with_compiled compiled (fun () ->
      match
        I.to_display_string
          (Engine.eval_string ~context_item:(I.Node (Dom.of_string doc)) src)
      with
      | v -> Ok v
      | exception Xq_error.Error e -> Error e.Xq_error.code)

(* the tree-walking evaluator is the oracle; compiled code must agree
   with it *)
let all_configs_agree ?doc src =
  outcome ?doc ~compiled:true src = outcome ?doc ~compiled:false src

(* assert agreement, and optionally pin the value (or the error code) *)
let matrix_outcome ?expected name src =
  t name (fun () ->
      check Alcotest.bool ("compiled agrees with the reference: " ^ src) true
        (all_configs_agree src);
      match expected with
      | Some e ->
          check
            (Alcotest.result Alcotest.string Alcotest.string)
            src e
            (outcome ~compiled:true src)
      | None -> ())

let matrix ?expected name src =
  matrix_outcome ?expected:(Option.map Result.ok expected) name src

let matrix_error code name src = matrix_outcome ~expected:(Error code) name src

(* ---------- targeted equivalence: hot shapes and fallbacks ---------- *)

let unit_equivalence_tests =
  [
    (* integer fast paths, including the by-zero generic fallbacks *)
    matrix ~expected:"7" "integer add" "3 + 4";
    matrix ~expected:"-6" "integer multiply" "2 * -3";
    matrix ~expected:"2" "integer mod" "42 mod 5";
    matrix ~expected:"-2" "negative mod keeps sign" "-42 mod 5";
    matrix ~expected:"8" "integer idiv" "17 idiv 2";
    matrix ~expected:"-8" "idiv truncates toward zero" "-17 idiv 2";
    matrix "idiv by zero errors identically" "1 idiv 0";
    matrix "mod by zero errors identically" "1 mod 0";
    matrix ~expected:"3.5" "div leaves the fast path" "7 div 2";
    matrix ~expected:"true" "integer value comparison" "3 lt 4";
    matrix ~expected:"false" "integer eq" "3 eq 4";
    matrix "mixed value comparison errors identically" "'a' eq 1";
    matrix ~expected:"" "empty operand yields empty" "() + 1";
    matrix "arith on a two-item sequence errors" "(1, 2) + 3";
    matrix "bad cast errors identically" "xs:integer('abc')";
    matrix ~expected:"7" "identity integer cast" "xs:integer(7)";
    matrix ~expected:"3" "cast from attribute text" "xs:integer((//x)[3]/@k)";
    (* range-fused FLWOR *)
    matrix ~expected:"30" "sum over a range"
      "sum(for $i in 1 to 5 return $i * 2)";
    matrix ~expected:"" "empty range" "for $i in 5 to 3 return $i";
    matrix ~expected:"15 26 37" "positional variable over a range"
      "string-join(for $i at $p in 5 to 7 return string($p * 10 + $i), ' ')";
    matrix ~expected:"6" "range over singleton bounds" "sum(1 to 3)";
    (* predicate-free path hot shape: forward axes, reverse fallback *)
    matrix ~expected:"1 2 3" "attribute step over iteration"
      "string-join(for $v in //x return string($v/@k), ' ')";
    matrix ~expected:"3" "descendant step from the root" "count(//x)";
    matrix ~expected:"1" "child chain" "count(/r/a/x[position() le 1]/../x[2])";
    matrix ~expected:"2" "reverse axis still merges doc order"
      "count(//x[@k='2']/ancestor::*)";
    matrix ~expected:"7" "following axis" "string((//x)[3]/following::b)";
    (* shapes that lower to opaque nodes *)
    matrix ~expected:"3 2 1" "order-by FLWOR delegates to the oracle"
      "string-join(for $v in //x order by xs:integer($v/@k) descending \
       return string($v), ' ')";
    matrix ~expected:"int" "typeswitch delegates"
      "typeswitch (3) case xs:integer return 'int' default return 'other'";
    matrix ~expected:"<a/>" "transform delegates"
      "copy $c := <a><b/></a> modify delete node $c/b return $c";
    matrix ~expected:"true" "quantifier compiles"
      "some $v in //x satisfies $v = '2'";
    (* constructors *)
    matrix ~expected:"<e k=\"3\">12</e>" "direct constructor with enclosed"
      "<e k='{count(//x)}'>{3 * 4}</e>";
    matrix ~expected:"<f>1 2 3</f>" "computed element over a path"
      "element f { data(//x/@k) }";
    (* variable scoping and shadowing through frame slots *)
    matrix ~expected:"9" "let shadows let"
      "let $v := 2 let $v := $v + 7 return $v";
    matrix ~expected:"12 22 32" "inner for shadows outer"
      "string-join(for $i in 1 to 3 return string(sum(for $i in $i * 10 to \
       $i * 10 + 2 return 0) + $i * 10 + 2), ' ')";
    matrix ~expected:"6" "where clause filters"
      "sum(for $i in 1 to 3 where $i ge 1 return $i)";
    matrix ~expected:"5" "free variable resolves through the context"
      "let $v := 5 return string-join(for $w in 1 to 1 return string($v), '')";
  ]

(* ---------- integer arithmetic and numeric builtins ---------- *)

(* xs:integer is the native int: overflow is FOAR0002, never a wrapped
   value, and integer arguments stay exact *)
let arithmetic_tests =
  [
    matrix_error "FOAR0002" "integer add overflows" "4611686018427387903 + 1";
    matrix_error "FOAR0002" "integer multiply overflows"
      "4611686018427387903 * 2";
    matrix_error "FOAR0002" "sum overflows" "sum((4611686018427387903, 1))";
    matrix_error "FOAR0002" "negating the least integer overflows"
      "-(-4611686018427387903 - 1)";
    matrix ~expected:"9007199254740993" "abs of an integer stays exact"
      "abs(-9007199254740993)";
    matrix ~expected:"4611686018427387903" "abs of a large integer"
      "abs(-4611686018427387903)";
    matrix ~expected:"2.5" "round-half-to-even past double precision"
      "round-half-to-even(2.5, 400)";
    matrix ~expected:"" "subsequence over -INF to INF is empty"
      "subsequence(1 to 5, xs:double('-INF'), xs:double('INF'))";
  ]

(* ---------- streaming shapes lower without opaque nodes ---------- *)

let lowering_tests =
  (* each shape sits under a compiled call: an opaque root node is not
     emitted at all, so it would not be counted *)
  let opaque_nodes shape =
    with_compiled true (fun () ->
        let before = List.assoc "opaque-nodes" (Compile.stats ()) in
        ignore
          (Engine.compile ~static:(Engine.default_static ())
             (Printf.sprintf "count(%s)" shape));
        List.assoc "opaque-nodes" (Compile.stats ()) - before)
  in
  [
    t "early-exit shapes compile to closures, not opaque nodes" (fun () ->
        List.iter
          (fun src -> check Alcotest.int src 0 (opaque_nodes src))
          [
            "exists(//x)";
            "some $v in //x satisfies $v = '2'";
            "count(//x) > 2";
            "subsequence(//x, 1, 2)";
            (* the join planner turns this FLWOR into a hash join *)
            "exists(for $a in //x, $b in //a where $a/@k eq $b/@k return $a)";
          ]);
  ]

(* ---------- compiled user functions ---------- *)

let function_tests =
  [
    t "declared functions compile and agree" (fun () ->
        let src =
          "declare function local:sq($n) { $n * $n }; \
           sum(for $i in 1 to 4 return local:sq($i))"
        in
        let run compiled =
          with_compiled compiled (fun () ->
              I.to_display_string (Engine.eval_string src))
        in
        check Alcotest.string "value" "30" (run true);
        check Alcotest.string "modes agree" (run false) (run true));
    t "compile counters record the function" (fun () ->
        let before = List.assoc "functions" (Compile.stats ()) in
        ignore
          (with_compiled true (fun () ->
               Engine.compile ~static:(Engine.default_static ())
                 "declare function local:id($x) { $x }; local:id(1)"));
        let after = List.assoc "functions" (Compile.stats ()) in
        check Alcotest.bool "functions counter advanced" true (after > before));
    t "calls dispatch through the context's compiled-fn table" (fun () ->
        with_compiled true (fun () ->
            let c =
              Engine.compile ~static:(Engine.default_static ())
                "declare function local:f($x) { $x + 1 }; local:f(1)"
            in
            let ctx = Engine.context_for c in
            check Alcotest.bool "table populated" true
              (Hashtbl.length ctx.Dynamic_context.compiled_fns > 0);
            (* prove call_function consults the table: plant a marker *)
            let key =
              Dynamic_context.fn_key
                (Xmlb.Qname.make ~uri:Xmlb.Qname.Ns.local "f")
                ~arity:1
            in
            Hashtbl.replace ctx.Dynamic_context.compiled_fns key
              (fun _ _ -> [ I.Atomic (A.String "marker") ]);
            check Alcotest.string "marker impl invoked" "marker"
              (I.to_display_string
                 (Eval.call_function ctx
                    (Xmlb.Qname.make ~uri:Xmlb.Qname.Ns.local "f")
                    [ [ I.Atomic (A.Integer 1) ] ]))));
    t "interpreted mode leaves the table empty" (fun () ->
        with_compiled false (fun () ->
            let c =
              Engine.compile ~static:(Engine.default_static ())
                "declare function local:f($x) { $x + 1 }; local:f(1)"
            in
            let ctx = Engine.context_for c in
            check Alcotest.int "no compiled fns" 0
              (Hashtbl.length ctx.Dynamic_context.compiled_fns)));
    t "recursion depth limit errors identically" (fun () ->
        let src =
          "declare function local:f($n) { if ($n = 0) then 0 else \
           local:f($n - 1) }; local:f(100000)"
        in
        let run compiled =
          with_compiled compiled (fun () ->
              match I.to_display_string (Engine.eval_string src) with
              | v -> Ok v
              | exception Xq_error.Error e -> Error e.Xq_error.code)
        in
        check Alcotest.bool "both exceed the depth limit" true
          (run true = run false && run true = Error "XQDY0054"));
    t "updating function bodies stay interpreted" (fun () ->
        (* an updating body cannot compile; the whole pipeline must
           still run it correctly through the fallback *)
        let src =
          {|<html><head><script type="text/xquery">
            declare updating function local:l($evt, $obj) {
              insert node <hit/> into //div[@id="log"]
            };
            on event "onclick" at //button attach listener local:l
            </script></head>
            <body><button id="b">go</button><div id="log"/></body></html>|}
        in
        with_compiled true (fun () ->
            let b = Xqib.Browser.create () in
            Xqib.Page.load b src;
            let doc = Xqib.Browser.document b in
            Xqib.Browser.click b
              (Option.get (Dom.get_element_by_id doc "b"));
            check Alcotest.int "listener fired" 1
              (List.length (Dom.get_elements_by_local_name doc "hit"))));
  ]

(* ---------- browser wiring and stats ---------- *)

let browser_tests =
  let page =
    {|<html><head><script type="text/xquery">
      declare function local:double($n) { $n * 2 };
      declare function local:on($evt, $obj) {
        browser:alert(string(local:double(21)))
      };
      on event "onclick" at //button attach listener local:on
      </script></head><body><button id="b">go</button></body></html>|}
  in
  let click_alerts compiled =
    with_compiled compiled (fun () ->
        let b = Xqib.Browser.create () in
        Xqib.Page.load b page;
        let doc = Xqib.Browser.document b in
        Xqib.Browser.click b (Option.get (Dom.get_element_by_id doc "b"));
        Xqib.Browser.alerts b)
  in
  [
    t "per-event listener runs compiled code" (fun () ->
        check
          (Alcotest.list Alcotest.string)
          "alert from compiled listener" [ "42" ] (click_alerts true);
        check
          (Alcotest.list Alcotest.string)
          "modes agree" (click_alerts false) (click_alerts true));
    t "browser:stats reports the compiled-eval switch" (fun () ->
        let flag compiled =
          with_compiled compiled (fun () ->
              let b = Xqib.Browser.create () in
              Xqib.Page.load b "<html><body/></html>";
              I.to_display_string
                (Xqib.Page.run_xquery b b.Xqib.Browser.top_window
                   "string(browser:stats()/@compiled-eval-enabled)"))
        in
        check Alcotest.string "on" "true" (flag true);
        check Alcotest.string "off" "false" (flag false));
    t "browser:stats exposes the compile counters" (fun () ->
        with_compiled true (fun () ->
            let b = Xqib.Browser.create () in
            Xqib.Page.load b page;
            let v =
              I.to_display_string
                (Xqib.Page.run_xquery b b.Xqib.Browser.top_window
                   "string(xs:integer(browser:stats()/compile/@functions) ge 1)")
            in
            check Alcotest.string "functions counter visible" "true" v));
  ]

(* ---------- QCheck: the ablation matrix always agrees ---------- *)

let src_gen =
  Q.Gen.(
    let closed_int =
      oneofl
        [
          "3"; "-2"; "0"; "count(//x)"; "count(//y)"; "xs:integer('7')";
          "string-length('abc')"; "sum(1 to 5)"; "(1 to 10)[3]";
          "xs:integer(//b)";
        ]
    in
    let open_int =
      oneofl
        [
          "$i"; "$i * 2 + 1"; "$i mod 3"; "$i idiv 2"; "10 - $i"; "$i * $i";
          "count(//x) + $i";
        ]
    in
    let path =
      oneofl [ "//x"; "//a/x"; "//x/@k"; "//b"; "(//x, //b)"; "//y" ]
    in
    let pred =
      oneofl
        [
          "1"; "2"; "position() = 2"; "position() le 2"; "last()";
          ". = '2'"; "@k = '2'"; "xs:integer(@k) ge 2"; "true()";
        ]
    in
    let cmp = oneofl [ "eq"; "ne"; "lt"; "le"; "gt"; "ge" ] in
    let gcmp = oneofl [ "="; "!="; "<"; "<="; ">"; ">=" ] in
    oneof
      [
        (* arithmetic and comparisons over closed integers *)
        map3
          (fun a b c -> Printf.sprintf "(%s) * (%s) mod ((%s) * 2 + 1)" a b c)
          closed_int closed_int closed_int;
        map3 (fun a c b -> Printf.sprintf "%s %s %s" a c b) closed_int cmp
          closed_int;
        map3 (fun a c b -> Printf.sprintf "%s %s %s" a c b) closed_int gcmp
          closed_int;
        (* FLWOR over ranges, with and without positional vars *)
        map3
          (fun lo hi body ->
            Printf.sprintf "sum(for $i in %d to %d return %s)" lo hi body)
          (int_range (-2) 3) (int_range 2 8) open_int;
        map2
          (fun hi body ->
            Printf.sprintf
              "string-join(for $i at $p in 1 to %d return string((%s) + $p), \
               ' ')"
              hi body)
          (int_range 0 5) open_int;
        (* FLWOR over paths with where *)
        map2
          (fun p v ->
            Printf.sprintf "for $v in %s where $v = '%s' return $v" p v)
          path
          (oneofl [ "1"; "2"; "7"; "z" ]);
        map2
          (fun p body ->
            Printf.sprintf
              "string-join(for $v in %s return string(%s), '.')" p body)
          path
          (oneofl
             [ "$v"; "$v/@k"; "string-length(string($v))"; "count($v/../x)" ]);
        (* paths and predicates *)
        map2 (fun p f -> Printf.sprintf "count(%s[%s])" p f) path pred;
        map2 (fun p f -> Printf.sprintf "(%s)[%s]" p f) path pred;
        map2 (fun p f -> Printf.sprintf "string-join(%s[%s], '.')" p f) path
          pred;
        (* conditionals, lets, quantifiers, order-by (opaque) *)
        map3
          (fun c a b -> Printf.sprintf "if (%s) then %s else %s" c a b)
          (oneofl [ "//x"; "//y"; "1 = 2"; "true()" ])
          closed_int closed_int;
        map2
          (fun a b -> Printf.sprintf "let $v := %s return ($v + 1) * (%s)" a b)
          closed_int closed_int;
        map2
          (fun p v ->
            Printf.sprintf "some $v in %s satisfies $v = '%s'" p v)
          path
          (oneofl [ "1"; "3"; "z" ]);
        map
          (fun d ->
            Printf.sprintf
              "string-join(for $v in //x order by xs:integer($v/@k) %s \
               return string($v), ' ')"
              d)
          (oneofl [ "ascending"; "descending" ]);
        (* constructors *)
        map2
          (fun a b -> Printf.sprintf "<e k='{%s}'>{%s}</e>" a b)
          closed_int closed_int;
        map (Printf.sprintf "element f { data(//x/@k), %s }") closed_int;
        (* casts that may fail: error codes must agree too *)
        map (Printf.sprintf "xs:integer(string(%s))")
          (oneofl [ "//b"; "(//x)[1]"; "'nope'"; "7" ]);
      ])

(* error-free sources biased toward the streaming consumers: a
   streaming consumer may legally skip an error the eager reference
   raises in an item it never needs, so equivalence is exact only
   without errors *)
let streaming_src_gen =
  Q.Gen.(
    let pred =
      oneofl
        [
          "1"; "2"; "position() = 1"; "position() le 2"; "position() lt 3";
          "last()"; "position() = last()"; ". = '2'"; "@hit = '1'"; "true()";
          "not(position() = 1)";
        ]
    in
    let path = oneofl [ "//x"; "//r/a/x"; "//y"; "(//x, //x)"; "//a/x" ] in
    let small = map string_of_int (int_range (-2) 5) in
    let consumer =
      [
        map2 (Printf.sprintf "exists(%s[%s])") path pred;
        map2 (Printf.sprintf "empty(%s[%s])") path pred;
        map2 (Printf.sprintf "head(%s[%s])") path pred;
        map2 (Printf.sprintf "(%s)[%s]") path pred;
        map2 (Printf.sprintf "boolean(%s[%s])") path pred;
        map3
          (fun p a b -> Printf.sprintf "subsequence(%s, %s, %s)" p a b)
          path small small;
        map3
          (fun p op k -> Printf.sprintf "count(%s) %s %s" p op k)
          path
          (oneofl [ "="; "!="; "<"; "<="; ">"; ">=" ])
          small;
        map3
          (fun k op p -> Printf.sprintf "%s %s count(%s)" k op p)
          small
          (oneofl [ "="; "<"; ">=" ])
          path;
        map2 (fun p v -> Printf.sprintf "%s = '%s'" p v) path
          (oneofl [ "1"; "2"; "3"; "z" ]);
        map2
          (fun p v -> Printf.sprintf "some $v in %s satisfies $v = '%s'" p v)
          path
          (oneofl [ "1"; "3"; "z" ]);
        map2
          (fun p v -> Printf.sprintf "every $v in %s satisfies $v = '%s'" p v)
          path
          (oneofl [ "1"; "3"; "z" ]);
        map2
          (fun p c ->
            Printf.sprintf "if (%s) then count(%s) else 'none'" c p)
          path pred;
        map2
          (fun p v ->
            Printf.sprintf "for $v in %s where $v = '%s' return $v" p v)
          path
          (oneofl [ "1"; "2"; "z" ]);
        map (Printf.sprintf "exists(1 to %s)") small;
        map2 (Printf.sprintf "string-join(%s[%s], '.')") path pred;
      ]
    in
    oneof consumer)

let equivalence_properties =
  [
    (* per-child-list positions differ from merged-descendant ones *)
    qt ~count:400 "compiled evaluation matches the oracle on streaming consumers"
      (Q.make ~print:Fun.id streaming_src_gen)
      (all_configs_agree ~doc:"<r><a><x>1</x><x>2</x></a><a><x>3</x></a></r>");
    qt ~count:400 "compiled evaluation matches the oracle on all configs"
      (Q.make ~print:Fun.id src_gen)
      all_configs_agree;
    (* random documents over names sharing prefixes, queried through
       name tests, index probes and name functions *)
    qt ~count:150 "compiled evaluation matches the oracle on generated names"
      (Q.make
         ~print:(fun (d, q) -> d ^ " |> " ^ q)
         Q.Gen.(pair Test_interning.doc_gen Test_interning.query_gen))
      (fun (doc, src) -> all_configs_agree ~doc src);
  ]

let suite =
  unit_equivalence_tests @ arithmetic_tests @ lowering_tests @ function_tests
  @ browser_tests @ equivalence_properties
