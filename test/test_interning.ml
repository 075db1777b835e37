(* Global name interning: the Sym table is a bijection (round trips,
   symbol equality ⇔ string equality), Qname's symbol-based
   equal/compare agree with the string semantics, the escape fast path
   returns clean strings physically unchanged, and indexes and
   footprints stay correct for names first interned by a runtime
   mutation. The random document/query generator at the end feeds the
   compiled-vs-interpreted matrix of {!Test_compile}. *)

open Xmlb
module I = Xdm_item
module Q = QCheck

let check = Alcotest.check
let t name f = Alcotest.test_case name `Quick f

let qt ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (Q.Test.make ~count ~name gen prop)

(* names nothing else in the process will ever intern *)
let fresh_name =
  let c = ref 0 in
  fun () ->
    incr c;
    Printf.sprintf "zz-never-interned-%d-%d" !c (Hashtbl.hash (ref ()))

let name_gen =
  Q.Gen.(
    let letter = map (fun i -> Char.chr (Char.code 'a' + i)) (int_bound 25) in
    map
      (fun cs -> String.concat "" (List.map (String.make 1) cs))
      (list_size (int_range 1 12) letter))

let sym_tests =
  [
    t "intern round trips" (fun () ->
        let s = fresh_name () in
        check Alcotest.string "name (intern s)" s (Sym.name (Sym.intern s)));
    t "interning is idempotent" (fun () ->
        let s = fresh_name () in
        check Alcotest.bool "same symbol" true
          (Sym.equal (Sym.intern s) (Sym.intern s)));
    t "find_opt does not intern" (fun () ->
        let s = fresh_name () in
        let before = Sym.size () in
        check Alcotest.bool "absent" true (Option.is_none (Sym.find_opt s));
        check Alcotest.int "size unchanged" before (Sym.size ());
        let sym = Sym.intern s in
        check Alcotest.bool "present after intern" true
          (match Sym.find_opt s with
          | Some s' -> Sym.equal s' sym
          | None -> false));
    t "stats counters advance" (fun () ->
        let misses0 = Sym.misses () and bytes0 = Sym.bytes () in
        let s = fresh_name () in
        let _ = Sym.intern s in
        let hits0 = Sym.hits () in
        let _ = Sym.intern s in
        check Alcotest.bool "miss counted" true (Sym.misses () > misses0);
        check Alcotest.bool "hit counted" true (Sym.hits () > hits0);
        check Alcotest.int "bytes counted"
          (bytes0 + String.length s)
          (Sym.bytes ()));
    qt "symbol equality iff string equality"
      Q.(pair (make name_gen) (make name_gen))
      (fun (a, b) ->
        Sym.equal (Sym.intern a) (Sym.intern b) = String.equal a b);
    qt "round trip on arbitrary names" (Q.make name_gen) (fun s ->
        String.equal s (Sym.name (Sym.intern s)));
  ]

(* ------------------------------------------------------------------ *)
(* Qname: symbol-based equality and order agree with the string
   semantics, and equality is consistent with the hash *)

let qname_gen =
  Q.Gen.(
    let uri =
      oneof
        [ return None; map (fun s -> Some ("urn:" ^ s)) name_gen ]
    in
    map2 (fun uri local -> Qname.make ?uri local) uri name_gen)

let qname_tests =
  [
    qt "equal agrees with string equality"
      Q.(pair (make qname_gen) (make qname_gen))
      (fun (a, b) ->
        Qname.equal a b
        = (String.equal a.Qname.local b.Qname.local
          && Option.equal String.equal a.Qname.uri b.Qname.uri));
    qt "compare agrees with string order"
      Q.(pair (make qname_gen) (make qname_gen))
      (fun (a, b) ->
        let sign c = Stdlib.compare c 0 in
        let by_strings =
          match Option.compare String.compare a.Qname.uri b.Qname.uri with
          | 0 -> String.compare a.Qname.local b.Qname.local
          | c -> c
        in
        sign (Qname.compare a b) = sign by_strings)
      ~count:400;
    qt "hash respects equality"
      Q.(pair (make qname_gen) (make qname_gen))
      (fun (a, b) ->
        (not (Qname.equal a b)) || Qname.hash a = Qname.hash b);
    t "with_uri re-interns the uri symbol" (fun () ->
        let qn = Qname.make "local" in
        let qn' = Qname.with_uri qn (Some "urn:t16") in
        check Alcotest.bool "usym updated" true
          (qn'.Qname.usym = (Sym.intern "urn:t16" :> int));
        let qn'' = Qname.with_uri qn' None in
        check Alcotest.bool "usym cleared" true (qn''.Qname.usym = qn.Qname.usym));
  ]

(* ------------------------------------------------------------------ *)
(* Xml_escape: clean strings come back physically unchanged; escaping
   agrees with a per-character oracle *)

let escape_oracle specials s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match List.assoc_opt c specials with
      | Some e -> Buffer.add_string buf e
      | None -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let text_specials = [ ('&', "&amp;"); ('<', "&lt;"); ('>', "&gt;") ]

let attr_specials =
  [ ('&', "&amp;"); ('<', "&lt;"); ('>', "&gt;"); ('"', "&quot;") ]

let escape_gen =
  Q.Gen.(
    let ch =
      frequency
        [
          (12, map (fun i -> Char.chr (Char.code 'a' + i)) (int_bound 25));
          (2, oneofl [ '&'; '<'; '>'; '"'; '\'' ]);
          (1, return ' ');
        ]
    in
    map
      (fun cs -> String.concat "" (List.map (String.make 1) cs))
      (list_size (int_bound 40) ch))

let escape_tests =
  [
    t "clean text is physically unchanged" (fun () ->
        let s = "no specials here at all" in
        check Alcotest.bool "same string" true (Xml_escape.text s == s);
        check Alcotest.bool "attribute too" true (Xml_escape.attribute s == s));
    t "escapes still escape" (fun () ->
        check Alcotest.string "text" "a&amp;b&lt;c&gt;" (Xml_escape.text "a&b<c>");
        check Alcotest.string "attr" "say &quot;hi&quot;"
          (Xml_escape.attribute "say \"hi\""));
    qt "text matches the per-char oracle" (Q.make escape_gen) (fun s ->
        String.equal (Xml_escape.text s) (escape_oracle text_specials s));
    qt "attribute matches the per-char oracle" (Q.make escape_gen) (fun s ->
        String.equal (Xml_escape.attribute s) (escape_oracle attr_specials s));
  ]

(* ------------------------------------------------------------------ *)
(* Names first interned at runtime: index probes and footprint
   intersection must behave identically to ahead-of-time names *)

let runtime_name_tests =
  [
    t "index finds elements renamed to a fresh name" (fun () ->
        let fresh = fresh_name () in
        let doc = Dom.of_string "<root><a>1</a><a>2</a></root>" in
        check Alcotest.int "absent before" 0
          (List.length (Dom.get_elements_by_local_name doc fresh));
        (match Dom.get_elements_by_local_name doc "a" with
        | el :: _ -> Dom.rename el (Qname.make fresh)
        | [] -> Alcotest.fail "no a element");
        check Alcotest.int "found after rename" 1
          (List.length (Dom.get_elements_by_local_name doc fresh)));
    t "updating query creating a fresh name is queryable" (fun () ->
        let fresh = fresh_name () in
        let doc = Dom.of_string "<r><x/></r>" in
        let eval src =
          I.to_display_string
            (Xquery.Engine.eval_string ~context_item:(I.Node doc) src)
        in
        (* snapshot semantics: the insert applies when the first query
           finishes, the count is a second evaluation *)
        let _ = eval (Printf.sprintf "insert node <%s/> into /r" fresh) in
        check Alcotest.string "one inserted" "1"
          (eval (Printf.sprintf "count(//%s)" fresh)));
    t "footprint read of an unseen name catches a later write" (fun () ->
        let fresh = fresh_name () in
        let fp = Footprint.create () in
        let prev = Footprint.start fp in
        Footprint.reading_name ~root:1 ~scope:1 (Sym.intern fresh);
        Footprint.restore prev;
        let w = Footprint.fresh_wrec ~root:1 ~chain:[ 1; 2 ] in
        Footprint.add_wname w (Sym.intern fresh);
        check Alcotest.bool "intersects" true (Footprint.intersects fp [ w ]);
        let w2 = Footprint.fresh_wrec ~root:1 ~chain:[ 1; 2 ] in
        Footprint.add_wname w2 (Sym.intern (fresh_name ()));
        check Alcotest.bool "other name misses" false
          (Footprint.intersects fp [ w2 ]));
    t "value-index probe sees a value set by mutation" (fun () ->
        let doc =
          Dom.of_string
            "<root><item k='a'>1</item><item k='b'>2</item></root>"
        in
        let probe () =
          match
            Dom.elements_by_attr_value_sym doc ~local:(Sym.intern "k") "c"
          with
          | Some els -> List.length els
          | None -> -1
        in
        check Alcotest.int "miss before" 0 (probe ());
        (match Dom.get_elements_by_local_name doc "item" with
        | el :: _ -> Dom.set_attribute el (Qname.make "k") "c"
        | [] -> Alcotest.fail "no item");
        check Alcotest.int "index sees the new value" 1 (probe ()));
  ]

(* ------------------------------------------------------------------ *)
(* Random documents over names sharing prefixes, and queries that test
   those names every way the engine can (name tests, index probes,
   node-name, local-name, order by name) *)

let doc_gen =
  Q.Gen.(
    let name = oneofl [ "alpha"; "beta"; "gamma"; "alphabet" ] in
    let item =
      map2
        (fun n (k, v) -> Printf.sprintf "<%s k='%d'>%d</%s>" n k v n)
        name
        (pair (int_bound 3) (int_bound 9))
    in
    map
      (fun items -> "<root>" ^ String.concat "" items ^ "</root>")
      (list_size (int_range 1 12) item))

let query_gen =
  Q.Gen.(
    oneofl
      [
        "count(//alpha)";
        "count(/root/beta)";
        "string-join(//alpha/@k, ',')";
        "count(//alpha[@k eq '1'])";
        "count(distinct-values(for $x in /root/* return node-name($x)))";
        "string-join(for $x in /root/* order by local-name($x), \
         xs:integer($x/@k) return local-name($x), ' ')";
        "sum(for $x in //alphabet return xs:integer($x))";
        "count(//*[local-name() = 'gamma'])";
      ])

let suite = sym_tests @ qname_tests @ escape_tests @ runtime_name_tests
