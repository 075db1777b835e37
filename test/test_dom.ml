(* DOM: construction, navigation, order, mutation, observers, events. *)

open Xmlb

let check = Alcotest.check
let t name f = Alcotest.test_case name `Quick f
let qn = Qname.make

let sample () =
  Dom.of_string "<root><a id=\"1\">x</a><b id=\"2\"><c/>y</b><a id=\"3\"/></root>"

let root_el doc = List.hd (Dom.children doc)

let construction_tests =
  [
    t "of_string builds a document" (fun () ->
        let doc = sample () in
        check Alcotest.bool "document" true (Dom.kind doc = Dom.Document);
        check Alcotest.int "one root" 1 (List.length (Dom.children doc)));
    t "kinds" (fun () ->
        check Alcotest.bool "el" true (Dom.kind (Dom.create_element (qn "a")) = Dom.Element);
        check Alcotest.bool "text" true (Dom.kind (Dom.create_text "t") = Dom.Text);
        check Alcotest.bool "attr" true (Dom.kind (Dom.create_attribute (qn "a") "v") = Dom.Attribute);
        check Alcotest.bool "comment" true (Dom.kind (Dom.create_comment "c") = Dom.Comment);
        check Alcotest.bool "pi" true (Dom.kind (Dom.create_pi ~target:"t" "d") = Dom.Processing_instruction));
    t "ids are unique and increasing" (fun () ->
        let a = Dom.create_element (qn "a") in
        let b = Dom.create_element (qn "b") in
        check Alcotest.bool "increasing" true (Dom.id b > Dom.id a));
    t "element with attrs" (fun () ->
        let el = Dom.create_element ~attrs:[ (qn "x", "1"); (qn "y", "2") ] (qn "a") in
        check (Alcotest.option Alcotest.string) "x" (Some "1") (Dom.attribute el (qn "x"));
        check Alcotest.int "count" 2 (List.length (Dom.attributes el)));
    t "clone is deep and fresh" (fun () ->
        let doc = sample () in
        let copy = Dom.clone doc in
        check Alcotest.string "same serialization" (Dom.serialize doc) (Dom.serialize copy);
        check Alcotest.bool "different identity" false (Dom.equal doc copy);
        (* mutating the copy leaves the original unchanged *)
        Dom.append_child ~parent:(root_el copy) (Dom.create_text "zzz");
        check Alcotest.bool "original untouched" false
          (String.equal (Dom.serialize doc) (Dom.serialize copy)));
  ]

let navigation_tests =
  [
    t "string_value concatenates descendant text" (fun () ->
        check Alcotest.string "sv" "xy" (Dom.string_value (sample ())));
    t "string_value skips comments and PIs" (fun () ->
        let d = Dom.of_string "<a>1<!--no--><?p no?><b>2</b></a>" in
        check Alcotest.string "sv" "12" (Dom.string_value d));
    t "descendants in document order" (fun () ->
        let doc = sample () in
        let names =
          List.filter_map
            (fun n -> Option.map (fun q -> q.Qname.local) (Dom.name n))
            (Dom.descendants doc)
        in
        check (Alcotest.list Alcotest.string) "order" [ "root"; "a"; "b"; "c"; "a" ] names);
    t "ancestors nearest first" (fun () ->
        let doc = sample () in
        let c = List.hd (Dom.get_elements_by_local_name doc "c") in
        let locals =
          List.map
            (fun n ->
              match Dom.name n with Some q -> q.Qname.local | None -> "#doc")
            (Dom.ancestors c)
        in
        check (Alcotest.list Alcotest.string) "ancestors" [ "b"; "root"; "#doc" ] locals);
    t "siblings" (fun () ->
        let doc = sample () in
        let b = List.hd (Dom.get_elements_by_local_name doc "b") in
        check Alcotest.int "following" 1 (List.length (Dom.following_siblings b));
        check Alcotest.int "preceding" 1 (List.length (Dom.preceding_siblings b)));
    t "compare_order follows document order" (fun () ->
        let doc = sample () in
        match Dom.get_elements_by_local_name doc "a" with
        | [ a1; a3 ] ->
            check Alcotest.bool "a1 < a3" true (Dom.compare_order a1 a3 < 0);
            check Alcotest.bool "a3 > a1" true (Dom.compare_order a3 a1 > 0);
            check Alcotest.int "self" 0 (Dom.compare_order a1 a1)
        | _ -> Alcotest.fail "expected two a elements");
    t "attributes order before children" (fun () ->
        let doc = sample () in
        let a1 = List.hd (Dom.get_elements_by_local_name doc "a") in
        let attr = List.hd (Dom.attributes a1) in
        let text = List.hd (Dom.children a1) in
        check Alcotest.bool "attr < text" true (Dom.compare_order attr text < 0);
        check Alcotest.bool "el < attr" true (Dom.compare_order a1 attr < 0));
    t "is_ancestor" (fun () ->
        let doc = sample () in
        let c = List.hd (Dom.get_elements_by_local_name doc "c") in
        check Alcotest.bool "doc ancestor of c" true (Dom.is_ancestor ~ancestor:doc c);
        check Alcotest.bool "c not ancestor of doc" false (Dom.is_ancestor ~ancestor:c doc));
    t "get_element_by_id" (fun () ->
        let doc = sample () in
        match Dom.get_element_by_id doc "2" with
        | Some el ->
            check Alcotest.string "b" "b" (Option.get (Dom.name el)).Qname.local
        | None -> Alcotest.fail "not found");
    t "root of detached node is itself" (fun () ->
        let el = Dom.create_element (qn "solo") in
        check Alcotest.bool "self" true (Dom.equal el (Dom.root el)));
  ]

let mutation_tests =
  [
    t "append_child sets parent" (fun () ->
        let p = Dom.create_element (qn "p") in
        let c = Dom.create_text "t" in
        Dom.append_child ~parent:p c;
        check Alcotest.bool "parent" true
          (match Dom.parent c with Some x -> Dom.equal x p | None -> false));
    t "insert_first" (fun () ->
        let p = Dom.of_string "<p><a/></p>" in
        let p = root_el p in
        Dom.insert_first ~parent:p (Dom.create_element (qn "z"));
        check Alcotest.string "first" "z"
          (Option.get (Dom.name (List.hd (Dom.children p)))).Qname.local);
    t "insert_before and after" (fun () ->
        let doc = Dom.of_string "<p><mid/></p>" in
        let mid = List.hd (Dom.get_elements_by_local_name doc "mid") in
        Dom.insert_before ~sibling:mid (Dom.create_element (qn "pre"));
        Dom.insert_after ~sibling:mid (Dom.create_element (qn "post"));
        check Alcotest.string "layout" "<p><pre/><mid/><post/></p>"
          (Dom.serialize doc));
    t "remove" (fun () ->
        let doc = sample () in
        let b = List.hd (Dom.get_elements_by_local_name doc "b") in
        Dom.remove b;
        check Alcotest.int "two left" 2 (List.length (Dom.children (root_el doc)));
        check Alcotest.bool "no parent" true (Dom.parent b = None));
    t "re-append moves a node" (fun () ->
        let doc = Dom.of_string "<r><x><m/></x><y/></r>" in
        let m = List.hd (Dom.get_elements_by_local_name doc "m") in
        let y = List.hd (Dom.get_elements_by_local_name doc "y") in
        Dom.append_child ~parent:y m;
        check Alcotest.string "moved" "<r><x/><y><m/></y></r>" (Dom.serialize doc));
    t "replace with several nodes" (fun () ->
        let doc = Dom.of_string "<r><old/></r>" in
        let old = List.hd (Dom.get_elements_by_local_name doc "old") in
        Dom.replace old [ Dom.create_element (qn "n1"); Dom.create_element (qn "n2") ];
        check Alcotest.string "replaced" "<r><n1/><n2/></r>" (Dom.serialize doc));
    t "replace with empty deletes" (fun () ->
        let doc = Dom.of_string "<r><old/></r>" in
        let old = List.hd (Dom.get_elements_by_local_name doc "old") in
        Dom.replace old [];
        check Alcotest.string "gone" "<r/>" (Dom.serialize doc));
    t "set_value on text" (fun () ->
        let txt = Dom.create_text "a" in
        Dom.set_value txt "b";
        check (Alcotest.option Alcotest.string) "b" (Some "b") (Dom.value txt));
    t "set_value on element replaces children (XQUF)" (fun () ->
        let doc = Dom.of_string "<r><a/><b/></r>" in
        Dom.set_value (root_el doc) "flat";
        check Alcotest.string "text only" "<r>flat</r>" (Dom.serialize doc));
    t "rename element and attribute" (fun () ->
        let doc = Dom.of_string "<r x=\"1\"/>" in
        let r = root_el doc in
        Dom.rename r (qn "s");
        let attr = List.hd (Dom.attributes r) in
        Dom.rename attr (qn "y");
        check Alcotest.string "renamed" "<s y=\"1\"/>" (Dom.serialize doc));
    t "rename text fails" (fun () ->
        match Dom.rename (Dom.create_text "t") (qn "x") with
        | exception Dom.Dom_error _ -> ()
        | () -> Alcotest.fail "expected Dom_error");
    t "set_attribute replaces existing" (fun () ->
        let el = Dom.create_element ~attrs:[ (qn "x", "1") ] (qn "a") in
        Dom.set_attribute el (qn "x") "2";
        check (Alcotest.option Alcotest.string) "2" (Some "2") (Dom.attribute el (qn "x"));
        check Alcotest.int "still one" 1 (List.length (Dom.attributes el)));
    t "remove_attribute" (fun () ->
        let el = Dom.create_element ~attrs:[ (qn "x", "1") ] (qn "a") in
        Dom.remove_attribute el (qn "x");
        check Alcotest.int "none" 0 (List.length (Dom.attributes el)));
    t "cannot insert attribute as child" (fun () ->
        let p = Dom.create_element (qn "p") in
        match Dom.append_child ~parent:p (Dom.create_attribute (qn "a") "v") with
        | exception Dom.Dom_error _ -> ()
        | () -> Alcotest.fail "expected Dom_error");
    t "cannot give children to text" (fun () ->
        let txt = Dom.create_text "t" in
        match Dom.append_child ~parent:txt (Dom.create_text "u") with
        | exception Dom.Dom_error _ -> ()
        | () -> Alcotest.fail "expected Dom_error");
  ]

let observer_tests =
  [
    t "children change notifies" (fun () ->
        let doc = sample () in
        let hits = ref 0 in
        let _ = Dom.observe ~root:doc (fun _ -> incr hits) in
        Dom.append_child ~parent:(root_el doc) (Dom.create_text "t");
        check Alcotest.bool "notified" true (!hits > 0));
    t "unobserve stops notifications" (fun () ->
        let doc = sample () in
        let hits = ref 0 in
        let id = Dom.observe ~root:doc (fun _ -> incr hits) in
        Dom.unobserve id;
        Dom.append_child ~parent:(root_el doc) (Dom.create_text "t");
        check Alcotest.int "no hits" 0 !hits);
    t "observer scoped to its tree" (fun () ->
        let doc = sample () in
        let other = Dom.of_string "<other/>" in
        let hits = ref 0 in
        let id = Dom.observe ~root:doc (fun _ -> incr hits) in
        Dom.append_child ~parent:(root_el other) (Dom.create_text "t");
        check Alcotest.int "not notified" 0 !hits;
        Dom.unobserve id);
    t "append_children keeps order with one notification" (fun () ->
        let doc = sample () in
        let parent = root_el doc in
        let before = List.length (Dom.children parent) in
        let hits = ref 0 in
        let id = Dom.observe ~root:doc (fun _ -> incr hits) in
        let kids = List.map Dom.create_text [ "x"; "y"; "z" ] in
        Dom.append_children ~parent kids;
        Dom.append_children ~parent [];
        check Alcotest.int "one notification" 1 !hits;
        check Alcotest.bool "appended in order, parented" true
          (List.for_all2 ( == )
             (List.filteri (fun i _ -> i >= before) (Dom.children parent))
             kids
          && List.for_all
               (fun k ->
                 match Dom.parent k with Some p -> p == parent | None -> false)
               kids);
        Dom.unobserve id);
    t "value change notifies with node" (fun () ->
        let doc = sample () in
        let seen = ref None in
        let id =
          Dom.observe ~root:doc (fun m ->
              match m with Dom.Value_changed n -> seen := Some n | _ -> ())
        in
        let a = List.hd (Dom.get_elements_by_local_name doc "a") in
        Dom.set_value a "changed";
        check Alcotest.bool "saw value change" true (!seen <> None);
        Dom.unobserve id);
  ]

let event_tests =
  let fired = ref [] in
  let record tag = fun _ -> fired := tag :: !fired in
  [
    t "listener fires at target" (fun () ->
        fired := [];
        let doc = Dom.of_string "<r><btn/></r>" in
        let btn = List.hd (Dom.get_elements_by_local_name doc "btn") in
        let _ = Dom_event.add_listener btn ~event_type:"onclick" (record "btn") in
        ignore (Dom_event.fire ~event_type:"onclick" ~target:btn ());
        check (Alcotest.list Alcotest.string) "fired" [ "btn" ] !fired);
    t "bubbling reaches ancestors in order" (fun () ->
        fired := [];
        let doc = Dom.of_string "<r><mid><btn/></mid></r>" in
        let btn = List.hd (Dom.get_elements_by_local_name doc "btn") in
        let mid = List.hd (Dom.get_elements_by_local_name doc "mid") in
        let r = List.hd (Dom.get_elements_by_local_name doc "r") in
        let _ = Dom_event.add_listener r ~event_type:"onclick" (record "r") in
        let _ = Dom_event.add_listener mid ~event_type:"onclick" (record "mid") in
        let _ = Dom_event.add_listener btn ~event_type:"onclick" (record "btn") in
        ignore (Dom_event.fire ~event_type:"onclick" ~target:btn ());
        check (Alcotest.list Alcotest.string) "bubble order" [ "r"; "mid"; "btn" ] !fired);
    t "capture phase runs top-down before target" (fun () ->
        fired := [];
        let doc = Dom.of_string "<r><btn/></r>" in
        let btn = List.hd (Dom.get_elements_by_local_name doc "btn") in
        let r = List.hd (Dom.get_elements_by_local_name doc "r") in
        let _ = Dom_event.add_listener r ~event_type:"ev" ~capture:true (record "r-capture") in
        let _ = Dom_event.add_listener btn ~event_type:"ev" (record "btn") in
        ignore (Dom_event.fire ~event_type:"ev" ~target:btn ());
        check (Alcotest.list Alcotest.string) "order" [ "btn"; "r-capture" ] !fired);
    t "stop_propagation halts bubbling" (fun () ->
        fired := [];
        let doc = Dom.of_string "<r><btn/></r>" in
        let btn = List.hd (Dom.get_elements_by_local_name doc "btn") in
        let r = List.hd (Dom.get_elements_by_local_name doc "r") in
        let _ =
          Dom_event.add_listener btn ~event_type:"ev" (fun e ->
              record "btn" e;
              Dom_event.stop_propagation e)
        in
        let _ = Dom_event.add_listener r ~event_type:"ev" (record "r") in
        ignore (Dom_event.fire ~event_type:"ev" ~target:btn ());
        check (Alcotest.list Alcotest.string) "only btn" [ "btn" ] !fired);
    t "prevent_default reflected in dispatch result" (fun () ->
        let doc = Dom.of_string "<btn/>" in
        let btn = root_el doc in
        let _ =
          Dom_event.add_listener btn ~event_type:"ev" (fun e -> Dom_event.prevent_default e)
        in
        check Alcotest.bool "false" false (Dom_event.fire ~event_type:"ev" ~target:btn ()));
    t "event type filters listeners" (fun () ->
        fired := [];
        let doc = Dom.of_string "<btn/>" in
        let btn = root_el doc in
        let _ = Dom_event.add_listener btn ~event_type:"a" (record "a") in
        let _ = Dom_event.add_listener btn ~event_type:"b" (record "b") in
        ignore (Dom_event.fire ~event_type:"b" ~target:btn ());
        check (Alcotest.list Alcotest.string) "only b" [ "b" ] !fired);
    t "named listener replaces same name" (fun () ->
        let doc = Dom.of_string "<btn/>" in
        let btn = root_el doc in
        let _ = Dom_event.add_listener btn ~event_type:"ev" ~name:"L" (fun _ -> ()) in
        let _ = Dom_event.add_listener btn ~event_type:"ev" ~name:"L" (fun _ -> ()) in
        check Alcotest.int "one listener" 1 (Dom_event.listener_count btn));
    t "remove_named_listener detaches" (fun () ->
        fired := [];
        let doc = Dom.of_string "<btn/>" in
        let btn = root_el doc in
        let _ = Dom_event.add_listener btn ~event_type:"ev" ~name:"L" (record "l") in
        let removed = Dom_event.remove_named_listener btn ~event_type:"ev" ~name:"L" in
        ignore (Dom_event.fire ~event_type:"ev" ~target:btn ());
        check Alcotest.int "one removed" 1 removed;
        check (Alcotest.list Alcotest.string) "no firing" [] !fired);
    t "remove_listener by id" (fun () ->
        fired := [];
        let doc = Dom.of_string "<btn/>" in
        let btn = root_el doc in
        let id = Dom_event.add_listener btn ~event_type:"ev" (record "x") in
        Dom_event.remove_listener btn id;
        ignore (Dom_event.fire ~event_type:"ev" ~target:btn ());
        check (Alcotest.list Alcotest.string) "no firing" [] !fired);
    t "event detail carried" (fun () ->
        let doc = Dom.of_string "<btn/>" in
        let btn = root_el doc in
        let seen = ref None in
        let _ =
          Dom_event.add_listener btn ~event_type:"ev" (fun e ->
              seen := List.assoc_opt "button" e.Dom_event.detail)
        in
        ignore (Dom_event.fire ~detail:[ ("button", "1") ] ~event_type:"ev" ~target:btn ());
        check (Alcotest.option Alcotest.string) "button" (Some "1") !seen);
  ]

let suite = construction_tests @ navigation_tests @ mutation_tests @ observer_tests @ event_tests
