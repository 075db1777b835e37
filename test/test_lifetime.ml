(* Lifetimes: a page's DOM and its browser must become garbage once the
   program drops them, whatever the page registered on the way —
   render observers, XQuery listeners, page state, compiled-query cache
   entries, materialized window views, MiniJS window state. Each test
   loads a page in a non-inlined helper that keeps only weak pointers,
   then checks a full major collection reclaims both. *)

module B = Xqib.Browser
module P = Xqib.Page

let check = Alcotest.check
let t name f = Alcotest.test_case name `Quick f
let () = Minijs.Js_interp.install ()

type probe = { doc : Dom.node Weak.t; browser : B.t Weak.t }

let probe b =
  let doc = Weak.create 1 and browser = Weak.create 1 in
  Weak.set doc 0 (Some (B.document b));
  Weak.set browser 0 (Some b);
  { doc; browser }

(* Load [html] into a fresh browser, run [exercise] on it, and return
   only weak pointers to its document and browser. *)
let[@inline never] load_and_drop ?(exercise = fun _ -> ()) html =
  let b = B.create () in
  P.load b html;
  exercise b;
  probe b

let assert_collected p =
  Gc.full_major ();
  check Alcotest.bool "document collected" false (Weak.check p.doc 0);
  check Alcotest.bool "browser collected" false (Weak.check p.browser 0)

let click_id id b = B.click b (Option.get (Dom.get_element_by_id (B.document b) id))

(* A script source no earlier test compiled: a compile-cache miss. *)
let fresh_source =
  let n = ref 0 in
  fun body ->
    incr n;
    Printf.sprintf "(: lifetime probe %d :) %s" !n body

let xquery_page script =
  Printf.sprintf
    {|<html><head><script type="text/xquery">%s</script></head>
      <body><button id="b">go</button><div id="out"/></body></html>|}
    script

let lifetime_tests =
  [
    t "render observer dies with its page" (fun () ->
        (* set_document observes the document; a mutation must reach it *)
        assert_collected
          (load_and_drop
             ~exercise:(fun b ->
               Dom.append_child
                 ~parent:(Option.get (Dom.get_element_by_id (B.document b) "out"))
                 (Dom.create_text "x");
               check Alcotest.bool "observer fired" true (b.B.render_count > 0))
             {|<html><body><div id="out"/></body></html>|}));
    t "attached XQuery listener dies with its page" (fun () ->
        assert_collected
          (load_and_drop ~exercise:(click_id "b")
             (xquery_page
                {|declare updating function local:l($evt, $obj) {
                    insert node <hit/> into //div[@id="out"] };
                  browser:addEventListener(//button, "onclick", "local:l")|})));
    t "page state dies with its window" (fun () ->
        assert_collected
          (load_and_drop
             ~exercise:(fun b ->
               check Alcotest.bool "page state set" true
                 (Option.is_some (P.xquery_context b.B.top_window)))
             (xquery_page {|declare variable $x := 1; ()|})));
    t "compile-cache miss keeps no page alive" (fun () ->
        let misses () =
          (Xquery.Query_cache.stats Xquery.Engine.query_cache).Xquery.Query_cache.misses
        in
        let before = misses () in
        let p =
          load_and_drop
            (xquery_page
               (fresh_source
                  {|declare function local:f() { browser:alert("hi") }; local:f()|}))
        in
        if !Xquery.Query_cache.enabled then
          check Alcotest.bool "script was a cache miss" true (misses () > before);
        assert_collected p);
    t "browser:top() view dies with its page" (fun () ->
        assert_collected
          (load_and_drop
             ~exercise:(fun b ->
               ignore (P.run_xquery b b.B.top_window {|browser:top()/@name|}))
             (xquery_page {|browser:top()/@name|})));
    t "MiniJS window state dies with its window" (fun () ->
        assert_collected
          (load_and_drop ~exercise:(click_id "b")
             {|<html><head><script type="text/javascript">
                 var n = 0;
                 document.getElementById("b").addEventListener("click",
                   function () { n = n + 1; });
               </script></head><body><button id="b">go</button></body></html>|}));
  ]

let directed_tests =
  [
    t "observers fire only on their current root" (fun () ->
        let doc = Dom.of_string "<r/>" in
        let r = List.hd (Dom.children doc) in
        let el = Dom.create_element (Xmlb.Qname.make "e") in
        let doc_hits = ref 0 and el_hits = ref 0 in
        ignore (Dom.observe ~root:doc (fun _ -> incr doc_hits));
        ignore (Dom.observe ~root:el (fun _ -> incr el_hits));
        let touch () = Dom.set_attribute el (Xmlb.Qname.make "a") "v" in
        touch ();
        check Alcotest.(pair int int) "detached: own root" (0, 1) (!doc_hits, !el_hits);
        Dom.append_child ~parent:r el;
        doc_hits := 0;
        el_hits := 0;
        touch ();
        check Alcotest.(pair int int) "attached: document root" (1, 0)
          (!doc_hits, !el_hits);
        Dom.remove el;
        doc_hits := 0;
        el_hits := 0;
        touch ();
        check Alcotest.(pair int int) "detached again: own root" (0, 1)
          (!doc_hits, !el_hits));
    t "listeners follow their node across detach and re-attach" (fun () ->
        let doc1 = Dom.of_string "<a><btn/></a>" in
        let doc2 = Dom.of_string "<b/>" in
        let btn = List.hd (Dom.get_elements_by_local_name doc1 "btn") in
        let fired = ref [] in
        ignore
          (Dom_event.add_listener btn ~event_type:"ev" (fun _ ->
               fired := "btn" :: !fired));
        ignore
          (Dom_event.add_listener doc2 ~event_type:"ev" (fun _ ->
               fired := "doc2" :: !fired));
        Dom.remove btn;
        ignore (Dom_event.fire ~event_type:"ev" ~target:btn ());
        check Alcotest.(list string) "detached" [ "btn" ] !fired;
        fired := [];
        Dom.append_child ~parent:(List.hd (Dom.children doc2)) btn;
        ignore (Dom_event.fire ~event_type:"ev" ~target:btn ());
        check Alcotest.(list string) "re-attached, bubbles to new document"
          [ "btn"; "doc2" ] (List.rev !fired);
        check Alcotest.int "one listener on the node" 1
          (Dom_event.listener_count btn));
  ]

let suite = lifetime_tests @ directed_tests
