open Js_ast

exception Js_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Js_error m)) fmt

type value =
  | VUndefined
  | VNull
  | VBool of bool
  | VNum of float
  | VStr of string
  | VObj of obj

and obj = { oid : int; props : (string, value) Hashtbl.t; kind : kind }

and kind =
  | Plain
  | Arr of value list ref
  | Node of Dom.node
  | Snapshot of Dom.node array
  | Fun of fn
  | Native of string * (value -> value list -> value)  (** this, args *)
  | Window_obj of Xqib.Windows.t
  | Location_obj of Xqib.Windows.t
  | Style_obj of Dom.node

and fn = { params : string list; body : stmt list; closure : env }

and env = { vars : (string, value ref) Hashtbl.t; parent : env option }

let obj_counter = ref 0

let mk_obj ?(props = []) kind =
  incr obj_counter;
  let table = Hashtbl.create 8 in
  List.iter (fun (k, v) -> Hashtbl.replace table k v) props;
  { oid = !obj_counter; props = table; kind }

let vnode n = VObj (mk_obj (Node n))
let vnative name f = VObj (mk_obj (Native (name, f)))
let varr vs = VObj (mk_obj (Arr (ref vs)))

(* ---------------- conversions ---------------- *)

let num_to_string f =
  if Float.is_nan f then "NaN"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.12g" f

let rec to_string = function
  | VUndefined -> "undefined"
  | VNull -> "null"
  | VBool b -> if b then "true" else "false"
  | VNum f -> num_to_string f
  | VStr s -> s
  | VObj o -> (
      match o.kind with
      | Arr items -> String.concat "," (List.map to_string !items)
      | Node n -> (
          match Dom.kind n with
          | Dom.Text -> Option.value ~default:"" (Dom.value n)
          | _ -> "[object Node]")
      | Fun _ | Native _ -> "[object Function]"
      | Window_obj _ -> "[object Window]"
      | Location_obj w -> w.Xqib.Windows.href
      | Style_obj _ -> "[object CSSStyleDeclaration]"
      | Snapshot _ -> "[object XPathResult]"
      | Plain -> "[object Object]")

let to_display = to_string

let to_number = function
  | VUndefined -> Float.nan
  | VNull -> 0.
  | VBool b -> if b then 1. else 0.
  | VNum f -> f
  | VStr s -> (
      match float_of_string_opt (String.trim s) with
      | Some f -> f
      | None -> if String.trim s = "" then 0. else Float.nan)
  | VObj _ as v -> (
      match float_of_string_opt (to_string v) with
      | Some f -> f
      | None -> Float.nan)

let truthy = function
  | VUndefined | VNull -> false
  | VBool b -> b
  | VNum f -> not (f = 0. || Float.is_nan f)
  | VStr s -> s <> ""
  | VObj _ -> true

let loose_eq a b =
  match (a, b) with
  | VUndefined, (VUndefined | VNull) | VNull, (VUndefined | VNull) -> true
  | VNum x, VNum y -> x = y
  | VStr x, VStr y -> String.equal x y
  | VBool x, VBool y -> x = y
  | VObj x, VObj y -> (
      match (x.kind, y.kind) with
      | Node a, Node b -> Dom.equal a b
      | _ -> x.oid = y.oid)
  | (VNum _ | VStr _ | VBool _), (VNum _ | VStr _ | VBool _) ->
      to_number a = to_number b
  | _ -> false

let strict_eq a b =
  match (a, b) with
  | VUndefined, VUndefined | VNull, VNull -> true
  | VNum x, VNum y -> x = y
  | VStr x, VStr y -> String.equal x y
  | VBool x, VBool y -> x = y
  | VObj x, VObj y -> x.oid = y.oid || loose_eq a b
  | _ -> false

(* ---------------- environments ---------------- *)

let new_env ?parent () = { vars = Hashtbl.create 16; parent }

let rec env_find env name =
  match Hashtbl.find_opt env.vars name with
  | Some r -> Some r
  | None -> ( match env.parent with None -> None | Some p -> env_find p name)

let env_declare env name v = Hashtbl.replace env.vars name (ref v)

let env_set env name v =
  match env_find env name with
  | Some r -> r := v
  | None ->
      (* implicit global, like sloppy-mode JS *)
      let rec top e = match e.parent with None -> e | Some p -> top p in
      env_declare (top env) name v

let env_get env name =
  match env_find env name with
  | Some r -> !r
  | None -> fail "%s is not defined" name

(* ---------------- control flow ---------------- *)

exception Return_exc of value
exception Break_exc
exception Continue_exc
exception Throw_exc of value

(* ---------------- per-window state ---------------- *)

type window_state = {
  genv : env;
  browser : Xqib.Browser.t;
  window : Xqib.Windows.t;
}

(* Keyed weakly on the window: a window's JS state is collected with
   the window, not kept alive by this table. *)
module States = Ephemeron.K1.Make (struct
  type t = Xqib.Windows.t

  let equal = ( == )
  let hash (w : t) = w.Xqib.Windows.wid
end)

let states : window_state States.t = States.create 8
let reset_window w = States.remove states w

(* ---------------- DOM bindings ---------------- *)

let qn = Xmlb.Qname.make

(* properties on elements that live in attributes *)
let attr_backed = [ "id"; "src"; "href"; "name"; "title"; "alt"; "class" ]

let rec node_prop st node name =
  let d = node in
  match name with
  | "nodeName" -> (
      match Dom.name d with
      | Some q -> VStr (String.uppercase_ascii (Xmlb.Qname.to_string q))
      | None -> (
          match Dom.kind d with
          | Dom.Text -> VStr "#text"
          | Dom.Document -> VStr "#document"
          | Dom.Comment -> VStr "#comment"
          | _ -> VStr ""))
  | "nodeType" ->
      VNum
        (match Dom.kind d with
        | Dom.Element -> 1.
        | Dom.Attribute -> 2.
        | Dom.Text -> 3.
        | Dom.Processing_instruction -> 7.
        | Dom.Comment -> 8.
        | Dom.Document -> 9.)
  | "nodeValue" -> (
      match Dom.value d with Some v -> VStr v | None -> VNull)
  | "parentNode" -> (
      match Dom.parent d with Some p -> vnode p | None -> VNull)
  | "firstChild" -> (
      match Dom.children d with c :: _ -> vnode c | [] -> VNull)
  | "lastChild" -> (
      match List.rev (Dom.children d) with c :: _ -> vnode c | [] -> VNull)
  | "nextSibling" -> (
      match Dom.following_siblings d with c :: _ -> vnode c | [] -> VNull)
  | "previousSibling" -> (
      match Dom.preceding_siblings d with c :: _ -> vnode c | [] -> VNull)
  | "childNodes" -> varr (List.map vnode (Dom.children d))
  | "children" ->
      varr
        (List.map vnode
           (List.filter (fun c -> Dom.kind c = Dom.Element) (Dom.children d)))
  | "textContent" | "innerText" -> VStr (Dom.string_value d)
  | "innerHTML" ->
      VStr (String.concat "" (List.map (fun c -> Dom.serialize c) (Dom.children d)))
  | "tagName" -> (
      match Dom.name d with
      | Some q -> VStr (String.uppercase_ascii q.Xmlb.Qname.local)
      | None -> VUndefined)
  | "style" -> VObj (mk_obj (Style_obj d))
  | "ownerDocument" -> vnode (Dom.root d)
  | "documentElement" -> (
      match Dom.children d with c :: _ -> vnode c | [] -> VNull)
  | "body" -> (
      match Dom.get_elements_by_local_name d "body" with
      | b :: _ -> vnode b
      | [] -> VNull)
  | "length" -> VNum (float_of_int (List.length (Dom.children d)))
  | "value" | "checked" -> (
      match Dom.attribute_local d name with Some v -> VStr v | None -> VStr "")
  | _ when List.mem name attr_backed -> (
      match Dom.attribute_local d name with Some v -> VStr v | None -> VStr "")
  | _ -> node_method st node name

and node_method st node name =
  let native f = vnative name f in
  let arg n args = try List.nth args n with _ -> VUndefined in
  let as_node v =
    match v with
    | VObj { kind = Node n; _ } -> n
    | _ -> fail "%s: expected a DOM node argument" name
  in
  match name with
  | "appendChild" ->
      native (fun _ args ->
          let child = as_node (arg 0 args) in
          Dom.append_child ~parent:node child;
          vnode child)
  | "insertBefore" ->
      native (fun _ args ->
          let child = as_node (arg 0 args) in
          (match arg 1 args with
          | VNull | VUndefined -> Dom.append_child ~parent:node child
          | v -> Dom.insert_before ~sibling:(as_node v) child);
          vnode child)
  | "removeChild" ->
      native (fun _ args ->
          let child = as_node (arg 0 args) in
          Dom.remove child;
          vnode child)
  | "replaceChild" ->
      native (fun _ args ->
          let newc = as_node (arg 0 args) and oldc = as_node (arg 1 args) in
          Dom.replace oldc [ newc ];
          vnode oldc)
  | "cloneNode" -> native (fun _ _ -> vnode (Dom.clone node))
  | "setAttribute" ->
      native (fun _ args ->
          Dom.set_attribute node (qn (to_string (arg 0 args))) (to_string (arg 1 args));
          VUndefined)
  | "getAttribute" ->
      native (fun _ args ->
          match Dom.attribute_local node (to_string (arg 0 args)) with
          | Some v -> VStr v
          | None -> VNull)
  | "removeAttribute" ->
      native (fun _ args ->
          Dom.remove_attribute node (qn (to_string (arg 0 args)));
          VUndefined)
  | "hasChildNodes" -> native (fun _ _ -> VBool (Dom.children node <> []))
  | "getElementById" ->
      native (fun _ args ->
          match Dom.get_element_by_id node (to_string (arg 0 args)) with
          | Some el -> vnode el
          | None -> VNull)
  | "getElementsByTagName" ->
      native (fun _ args ->
          let tag = String.lowercase_ascii (to_string (arg 0 args)) in
          let all = Dom.descendants node in
          let hit n =
            Dom.kind n = Dom.Element
            && (tag = "*"
               ||
               match Dom.name n with
               | Some q -> String.lowercase_ascii q.Xmlb.Qname.local = tag
               | None -> false)
          in
          varr (List.map vnode (List.filter hit all)))
  | "createElement" ->
      native (fun _ args -> vnode (Dom.create_element (qn (to_string (arg 0 args)))))
  | "createTextNode" ->
      native (fun _ args -> vnode (Dom.create_text (to_string (arg 0 args))))
  | "createComment" ->
      native (fun _ args -> vnode (Dom.create_comment (to_string (arg 0 args))))
  | "write" | "writeln" ->
      native (fun _ args ->
          let text = String.concat "" (List.map to_string args) in
          let target =
            match Dom.get_elements_by_local_name node "body" with
            | b :: _ -> b
            | [] -> node
          in
          (* document.write of markup: parse it so written tags become
             elements, like a real browser *)
          (match Xmlb.Xml_parser.parse text with
          | trees ->
              List.iter
                (fun t ->
                  Dom.append_child ~parent:target
                    (match t with
                    | Xmlb.Xml_parser.Text s -> Dom.create_text s
                    | t -> (
                        let tmp = Dom.of_tree [ t ] in
                        match Dom.children tmp with
                        | [ c ] ->
                            Dom.remove c;
                            c
                        | _ -> Dom.create_text text)))
                trees
          | exception _ -> Dom.append_child ~parent:target (Dom.create_text text));
          VUndefined)
  | "addEventListener" ->
      native (fun _ args ->
          let event_type = to_string (arg 0 args) in
          let listener = arg 1 args in
          let capture = truthy (arg 2 args) in
          ignore
            (Dom_event.add_listener node ~event_type ~capture (fun e ->
                 let evt = event_object e in
                 ignore (call_value st listener VUndefined [ evt ])));
          VUndefined)
  | "dispatchEvent" ->
      native (fun _ args ->
          let event_type = to_string (arg 0 args) in
          Xqib.Browser.dispatch st.browser ~target:node event_type;
          VBool true)
  | "evaluate" ->
      (* document.evaluate(xpath, context, nsResolver, type, result) —
         the §2.2 embedding; XPath runs on the XQuery engine *)
      native (fun _ args ->
          let xpath = to_string (arg 0 args) in
          let ctx_node =
            match arg 1 args with
            | VObj { kind = Node n; _ } -> n
            | _ -> node
          in
          let sctx = Xquery.Engine.default_static () in
          let expr = Xquery.Parser.parse_expression sctx xpath in
          let dctx = Xquery.Dynamic_context.create sctx in
          let dctx =
            Xquery.Dynamic_context.with_focus dctx (Xdm_item.Node ctx_node)
              ~position:1 ~size:1
          in
          let result = Xquery.Eval.eval dctx expr in
          let nodes =
            List.filter_map
              (function Xdm_item.Node n -> Some n | Xdm_item.Atomic _ -> None)
              result
          in
          VObj (mk_obj (Snapshot (Array.of_list nodes))))
  | _ -> VUndefined

and event_object (e : Dom_event.event) =
  let props =
    [ ("type", VStr e.Dom_event.event_type); ("target", vnode e.Dom_event.target) ]
    @ List.map
        (fun (k, v) ->
          ( k,
            match float_of_string_opt v with
            | Some f -> VNum f
            | None -> if v = "true" then VBool true else if v = "false" then VBool false else VStr v ))
        e.Dom_event.detail
  in
  let o = mk_obj ~props Plain in
  Hashtbl.replace o.props "preventDefault"
    (vnative "preventDefault" (fun _ _ ->
         Dom_event.prevent_default e;
         VUndefined));
  Hashtbl.replace o.props "stopPropagation"
    (vnative "stopPropagation" (fun _ _ ->
         Dom_event.stop_propagation e;
         VUndefined));
  VObj o

(* ---------------- property access ---------------- *)

and get_prop st target name =
  match target with
  | VStr s -> (
      match name with
      | "length" -> VNum (float_of_int (String.length s))
      | "toUpperCase" -> vnative name (fun _ _ -> VStr (String.uppercase_ascii s))
      | "toLowerCase" -> vnative name (fun _ _ -> VStr (String.lowercase_ascii s))
      | "charAt" ->
          vnative name (fun _ args ->
              let i = int_of_float (to_number (List.nth args 0)) in
              if i >= 0 && i < String.length s then VStr (String.make 1 s.[i])
              else VStr "")
      | "indexOf" ->
          vnative name (fun _ args ->
              let sub = to_string (List.nth args 0) in
              let n = String.length s and m = String.length sub in
              let rec scan i =
                if i + m > n then -1
                else if String.sub s i m = sub then i
                else scan (i + 1)
              in
              VNum (float_of_int (scan 0)))
      | "substring" ->
          vnative name (fun _ args ->
              let a = max 0 (int_of_float (to_number (List.nth args 0))) in
              let b =
                match args with
                | _ :: x :: _ -> min (String.length s) (int_of_float (to_number x))
                | _ -> String.length s
              in
              let lo = min a b and hi = max a b in
              VStr (String.sub s lo (hi - lo)))
      | "split" ->
          vnative name (fun _ args ->
              let sep = to_string (List.nth args 0) in
              let parts =
                if sep = "" then List.map (String.make 1) (List.init (String.length s) (String.get s))
                else Str.split_delim (Str.regexp_string sep) s
              in
              varr (List.map (fun p -> VStr p) parts))
      | "replace" ->
          vnative name (fun _ args ->
              let pat = to_string (List.nth args 0) in
              let rep = to_string (List.nth args 1) in
              VStr (Str.replace_first (Str.regexp_string pat) rep s))
      | "trim" -> vnative name (fun _ _ -> VStr (String.trim s))
      | _ -> VUndefined)
  | VObj o -> (
      match Hashtbl.find_opt o.props name with
      | Some v -> v
      | None -> (
          match o.kind with
          | Node n -> node_prop st n name
          | Snapshot nodes -> (
              match name with
              | "snapshotLength" -> VNum (float_of_int (Array.length nodes))
              | "snapshotItem" ->
                  vnative name (fun _ args ->
                      let i = int_of_float (to_number (List.nth args 0)) in
                      if i >= 0 && i < Array.length nodes then vnode nodes.(i)
                      else VNull)
              | _ -> VUndefined)
          | Arr items -> (
              match name with
              | "length" -> VNum (float_of_int (List.length !items))
              | "push" ->
                  vnative name (fun _ args ->
                      items := !items @ args;
                      VNum (float_of_int (List.length !items)))
              | "pop" ->
                  vnative name (fun _ _ ->
                      match List.rev !items with
                      | [] -> VUndefined
                      | last :: rest ->
                          items := List.rev rest;
                          last)
              | "join" ->
                  vnative name (fun _ args ->
                      let sep =
                        match args with [] -> "," | s :: _ -> to_string s
                      in
                      VStr (String.concat sep (List.map to_string !items)))
              | "indexOf" ->
                  vnative name (fun _ args ->
                      let target = List.nth args 0 in
                      let rec scan i = function
                        | [] -> -1
                        | x :: rest -> if loose_eq x target then i else scan (i + 1) rest
                      in
                      VNum (float_of_int (scan 0 !items)))
              | _ -> VUndefined)
          | Window_obj w -> (
              match name with
              | "status" -> VStr w.Xqib.Windows.status
              | "name" -> VStr w.Xqib.Windows.wname
              | "location" -> VObj (mk_obj (Location_obj w))
              | "document" -> vnode w.Xqib.Windows.document
              | "top" -> VObj (mk_obj (Window_obj (Xqib.Windows.top w)))
              | "self" | "window" -> target
              | "parent" -> (
                  match w.Xqib.Windows.parent with
                  | Some p -> VObj (mk_obj (Window_obj p))
                  | None -> target)
              | "frames" ->
                  varr
                    (List.map
                       (fun f -> VObj (mk_obj (Window_obj f)))
                       w.Xqib.Windows.frames)
              | "alert" ->
                  vnative name (fun _ args ->
                      st.browser.Xqib.Browser.alerts <-
                        to_string (List.nth args 0)
                        :: st.browser.Xqib.Browser.alerts;
                      VUndefined)
              | "setTimeout" ->
                  vnative name (fun _ args ->
                      let f = List.nth args 0 in
                      let delay = try to_number (List.nth args 1) /. 1000. with _ -> 0. in
                      Virtual_clock.schedule st.browser.Xqib.Browser.clock ~delay
                        (fun () -> ignore (call_value st f VUndefined []));
                      VNum 0.)
              | _ -> VUndefined)
          | Location_obj w -> (
              match name with
              | "href" -> VStr w.Xqib.Windows.href
              | "host" -> (
                  match Http_sim.split_uri w.Xqib.Windows.href with
                  | Some (h, _) -> VStr h
                  | None -> VStr "")
              | _ -> VUndefined)
          | Style_obj node -> (
              match Xquery.Style_util.get_on_node node (css_name name) with
              | Some v -> VStr v
              | None -> VStr "")
          | Plain | Fun _ | Native _ -> VUndefined))
  | VNum _ | VBool _ | VNull | VUndefined ->
      fail "cannot read property %S of %s" name (to_string target)

(* JS camelCase style property -> CSS dashed name *)
and css_name s =
  let buf = Buffer.create (String.length s + 4) in
  String.iter
    (fun c ->
      if c >= 'A' && c <= 'Z' then begin
        Buffer.add_char buf '-';
        Buffer.add_char buf (Char.lowercase_ascii c)
      end
      else Buffer.add_char buf c)
    s;
  Buffer.contents buf

and set_prop st target name v =
  match target with
  | VObj o -> (
      match o.kind with
      | Node node -> (
          match name with
          | "nodeValue" | "textContent" | "innerText" -> Dom.set_value node (to_string v)
          | "innerHTML" -> (
              List.iter Dom.remove (Dom.children node);
              match Xmlb.Xml_parser.parse (to_string v) with
              | trees ->
                  let tmp = Dom.of_tree trees in
                  List.iter
                    (fun c ->
                      Dom.remove c;
                      Dom.append_child ~parent:node c)
                    (Dom.children tmp)
              | exception _ ->
                  Dom.append_child ~parent:node (Dom.create_text (to_string v)))
          | "value" | "checked" -> Dom.set_attribute node (qn name) (to_string v)
          | _ when List.mem name attr_backed ->
              Dom.set_attribute node (qn name) (to_string v)
          | _ -> Hashtbl.replace o.props name v)
      | Window_obj w -> (
          match name with
          | "status" -> w.Xqib.Windows.status <- to_string v
          | "name" -> w.Xqib.Windows.wname <- to_string v
          | "location" ->
              Xqib.Windows.navigate w (to_string v);
              st.browser.Xqib.Browser.on_navigate w (to_string v)
          | _ -> Hashtbl.replace o.props name v)
      | Location_obj w -> (
          match name with
          | "href" ->
              Xqib.Windows.navigate w (to_string v);
              st.browser.Xqib.Browser.on_navigate w (to_string v)
          | _ -> Hashtbl.replace o.props name v)
      | Style_obj node ->
          Xquery.Style_util.set_on_node node (css_name name) (to_string v)
      | _ -> Hashtbl.replace o.props name v)
  | _ -> fail "cannot set property %S on %s" name (to_string target)

(* ---------------- calls ---------------- *)

and call_value st callee this args =
  match callee with
  | VObj { kind = Native (_, f); _ } -> f this args
  | VObj { kind = Fun { params; body; closure }; _ } ->
      let env = new_env ~parent:closure () in
      env_declare env "this" this;
      env_declare env "arguments" (varr args);
      List.iteri
        (fun i p ->
          env_declare env p (try List.nth args i with _ -> VUndefined))
        params;
      (try
         exec_stmts st env body;
         VUndefined
       with Return_exc v -> v)
  | v -> fail "%s is not a function" (to_string v)

(* ---------------- expression evaluation ---------------- *)

and eval_expr st env (e : expr) : value =
  match e with
  | Num f -> VNum f
  | Str s -> VStr s
  | Bool b -> VBool b
  | Null -> VNull
  | Undefined -> VUndefined
  | This -> ( match env_find env "this" with Some r -> !r | None -> VUndefined)
  | Var name -> env_get env name
  | Array_lit es -> varr (List.map (eval_expr st env) es)
  | Object_lit fields ->
      VObj
        (mk_obj ~props:(List.map (fun (k, e) -> (k, eval_expr st env e)) fields) Plain)
  | Func (name, params, body) ->
      let f = VObj (mk_obj (Fun { params; body; closure = env })) in
      (match name with Some n -> env_declare env n f | None -> ());
      f
  | Unop (op, e) -> (
      match op with
      | "!" -> VBool (not (truthy (eval_expr st env e)))
      | "-" -> VNum (-.to_number (eval_expr st env e))
      | "+" -> VNum (to_number (eval_expr st env e))
      | "typeof" -> (
          match eval_expr st env e with
          | VUndefined -> VStr "undefined"
          | VNull -> VStr "object"
          | VBool _ -> VStr "boolean"
          | VNum _ -> VStr "number"
          | VStr _ -> VStr "string"
          | VObj { kind = Fun _ | Native _; _ } -> VStr "function"
          | VObj _ -> VStr "object")
      | "++" | "--" ->
          let delta = if op = "++" then 1. else -1. in
          let v = VNum (to_number (eval_expr st env e) +. delta) in
          assign_to st env e v;
          v
      | op -> fail "unsupported unary operator %s" op)
  | Postop (op, e) ->
      let old = to_number (eval_expr st env e) in
      let delta = if op = "++" then 1. else -1. in
      assign_to st env e (VNum (old +. delta));
      VNum old
  | Binop (",", a, b) ->
      ignore (eval_expr st env a);
      eval_expr st env b
  | Binop (op, a, b) -> (
      let va = eval_expr st env a and vb = eval_expr st env b in
      match op with
      | "+" -> (
          match (va, vb) with
          | VStr _, _ | _, VStr _ -> VStr (to_string va ^ to_string vb)
          | _ -> VNum (to_number va +. to_number vb))
      | "-" -> VNum (to_number va -. to_number vb)
      | "*" -> VNum (to_number va *. to_number vb)
      | "/" -> VNum (to_number va /. to_number vb)
      | "%" -> VNum (Float.rem (to_number va) (to_number vb))
      | "==" -> VBool (loose_eq va vb)
      | "!=" -> VBool (not (loose_eq va vb))
      | "===" -> VBool (strict_eq va vb)
      | "!==" -> VBool (not (strict_eq va vb))
      | "<" | "<=" | ">" | ">=" -> (
          let cmp =
            match (va, vb) with
            | VStr x, VStr y -> compare x y
            | _ -> compare (to_number va) (to_number vb)
          in
          VBool
            (match op with
            | "<" -> cmp < 0
            | "<=" -> cmp <= 0
            | ">" -> cmp > 0
            | _ -> cmp >= 0))
      | op -> fail "unsupported operator %s" op)
  | Logical ("&&", a, b) ->
      let va = eval_expr st env a in
      if truthy va then eval_expr st env b else va
  | Logical ("||", a, b) ->
      let va = eval_expr st env a in
      if truthy va then va else eval_expr st env b
  | Logical (op, _, _) -> fail "unsupported logical operator %s" op
  | Ternary (c, t, f) ->
      if truthy (eval_expr st env c) then eval_expr st env t
      else eval_expr st env f
  | Assign ("=", lhs, rhs) ->
      let v = eval_expr st env rhs in
      assign_to st env lhs v;
      v
  | Assign (op, lhs, rhs) ->
      let current = eval_expr st env lhs in
      let rv = eval_expr st env rhs in
      let v =
        match op with
        | "+=" -> (
            match (current, rv) with
            | VStr _, _ | _, VStr _ -> VStr (to_string current ^ to_string rv)
            | _ -> VNum (to_number current +. to_number rv))
        | "-=" -> VNum (to_number current -. to_number rv)
        | "*=" -> VNum (to_number current *. to_number rv)
        | "/=" -> VNum (to_number current /. to_number rv)
        | "%=" -> VNum (Float.rem (to_number current) (to_number rv))
        | op -> fail "unsupported assignment %s" op
      in
      assign_to st env lhs v;
      v
  | Call (Member (obj_e, name), args) ->
      let this = eval_expr st env obj_e in
      let callee = get_prop st this name in
      call_value st callee this (List.map (eval_expr st env) args)
  | Call (f, args) ->
      let callee = eval_expr st env f in
      call_value st callee VUndefined (List.map (eval_expr st env) args)
  | New_expr (callee, args) ->
      (* minimal: new X(...) behaves like calling X with a fresh this *)
      let this = VObj (mk_obj Plain) in
      let c = eval_expr st env callee in
      ignore (call_value st c this (List.map (eval_expr st env) args));
      this
  | Member (e, name) -> get_prop st (eval_expr st env e) name
  | Index (e, idx) -> (
      let target = eval_expr st env e in
      let i = eval_expr st env idx in
      match (target, i) with
      | VObj { kind = Arr items; _ }, VNum f ->
          let n = int_of_float f in
          if n >= 0 && n < List.length !items then List.nth !items n
          else VUndefined
      | VStr s, VNum f ->
          let n = int_of_float f in
          if n >= 0 && n < String.length s then VStr (String.make 1 s.[n])
          else VUndefined
      | t, i -> get_prop st t (to_string i))

and assign_to st env lhs v =
  match lhs with
  | Var name -> env_set env name v
  | Member (e, name) -> set_prop st (eval_expr st env e) name v
  | Index (e, idx) -> (
      let target = eval_expr st env e in
      let i = eval_expr st env idx in
      match (target, i) with
      | VObj { kind = Arr items; _ }, VNum f ->
          let n = int_of_float f in
          let len = List.length !items in
          if n >= 0 && n < len then
            items := List.mapi (fun j x -> if j = n then v else x) !items
          else if n = len then items := !items @ [ v ]
          else ()
      | t, i -> set_prop st t (to_string i) v)
  | _ -> fail "invalid assignment target"

(* ---------------- statements ---------------- *)

and exec_stmt st env = function
  | Expr_stmt e -> ignore (eval_expr st env e)
  | Var_decl decls ->
      List.iter
        (fun (name, init) ->
          let v = match init with Some e -> eval_expr st env e | None -> VUndefined in
          env_declare env name v)
        decls
  | If (c, t, f) ->
      if truthy (eval_expr st env c) then exec_stmts st env t
      else exec_stmts st env f
  | While (c, body) ->
      let budget = ref 10_000_000 in
      (try
         while truthy (eval_expr st env c) do
           decr budget;
           if !budget <= 0 then fail "while loop budget exhausted";
           try exec_stmts st env body with Continue_exc -> ()
         done
       with Break_exc -> ())
  | For (init, cond, step, body) ->
      (match init with Some s -> exec_stmt st env s | None -> ());
      let budget = ref 10_000_000 in
      (try
         while
           match cond with Some c -> truthy (eval_expr st env c) | None -> true
         do
           decr budget;
           if !budget <= 0 then fail "for loop budget exhausted";
           (try exec_stmts st env body with Continue_exc -> ());
           match step with Some s -> ignore (eval_expr st env s) | None -> ()
         done
       with Break_exc -> ())
  | For_in (name, src, body) ->
      let keys =
        match eval_expr st env src with
        | VObj { kind = Arr items; _ } ->
            List.mapi (fun i _ -> VNum (float_of_int i)) !items
        | VObj o -> Hashtbl.fold (fun k _ acc -> VStr k :: acc) o.props []
        | _ -> []
      in
      if not (Hashtbl.mem env.vars name) then env_declare env name VUndefined;
      (try
         List.iter
           (fun k ->
             env_set env name k;
             try exec_stmts st env body with Continue_exc -> ())
           keys
       with Break_exc -> ())
  | Throw e -> raise (Throw_exc (eval_expr st env e))
  | Try (body, catch, finally) ->
      Fun.protect
        ~finally:(fun () -> exec_stmts st env finally)
        (fun () ->
          try exec_stmts st env body
          with
          | Throw_exc v -> (
              match catch with
              | Some (name, handler) ->
                  let cenv = new_env ~parent:env () in
                  env_declare cenv name v;
                  exec_stmts st cenv handler
              | None -> raise (Throw_exc v))
          | Js_error m -> (
              (* host errors are catchable too, like DOM exceptions *)
              match catch with
              | Some (name, handler) ->
                  let cenv = new_env ~parent:env () in
                  env_declare cenv name (VStr m);
                  exec_stmts st cenv handler
              | None -> raise (Js_error m)))
  | Switch (scrutinee, cases) ->
      let v = eval_expr st env scrutinee in
      (* find the matching case (or default), then fall through *)
      let rec find = function
        | [] -> []
        | (Some c, _) :: rest when not (strict_eq (eval_expr st env c) v) ->
            find rest
        | hit -> hit
      in
      let selected =
        match find cases with
        | [] -> (
            (* no case matched: run from default if present *)
            let rec from_default = function
              | [] -> []
              | (None, _) :: _ as hit -> hit
              | _ :: rest -> from_default rest
            in
            from_default cases)
        | hit -> hit
      in
      (try List.iter (fun (_, stmts) -> exec_stmts st env stmts) selected
       with Break_exc -> ())
  | Do_while (body, cond) ->
      let budget = ref 10_000_000 in
      (try
         let continue_loop = ref true in
         while !continue_loop do
           decr budget;
           if !budget <= 0 then fail "do-while budget exhausted";
           (try exec_stmts st env body with Continue_exc -> ());
           continue_loop := truthy (eval_expr st env cond)
         done
       with Break_exc -> ())
  | Return e ->
      raise (Return_exc (match e with Some e -> eval_expr st env e | None -> VUndefined))
  | Break -> raise Break_exc
  | Continue -> raise Continue_exc
  | Func_decl (name, params, body) ->
      env_declare env name (VObj (mk_obj (Fun { params; body; closure = env })))
  | Block stmts -> exec_stmts st env stmts

and exec_stmts st env stmts = List.iter (exec_stmt st env) stmts

(* ---------------- globals ---------------- *)

let math_object () =
  let unary name f =
    (name, vnative name (fun _ args -> VNum (f (to_number (List.nth args 0)))))
  in
  (* deterministic pseudo-random: a seeded LCG, reproducible runs *)
  let seed = ref 42 in
  let props =
    [
      unary "floor" Float.floor;
      unary "ceil" Float.ceil;
      unary "abs" Float.abs;
      unary "sqrt" Float.sqrt;
      unary "round" (fun x -> Float.floor (x +. 0.5));
      ( "max",
        vnative "max" (fun _ args ->
            VNum (List.fold_left (fun a v -> Float.max a (to_number v)) Float.neg_infinity args)) );
      ( "min",
        vnative "min" (fun _ args ->
            VNum (List.fold_left (fun a v -> Float.min a (to_number v)) Float.infinity args)) );
      ( "random",
        vnative "random" (fun _ _ ->
            seed := ((!seed * 1103515245) + 12345) land 0x3FFFFFFF;
            VNum (float_of_int !seed /. float_of_int 0x40000000)) );
      ("PI", VNum Float.pi);
    ]
  in
  VObj (mk_obj ~props Plain)

let xpath_result_object () =
  let props =
    [
      ("ANY_TYPE", VNum 0.);
      ("NUMBER_TYPE", VNum 1.);
      ("STRING_TYPE", VNum 2.);
      ("BOOLEAN_TYPE", VNum 3.);
      ("UNORDERED_NODE_ITERATOR_TYPE", VNum 4.);
      ("ORDERED_NODE_ITERATOR_TYPE", VNum 5.);
      ("UNORDERED_NODE_SNAPSHOT_TYPE", VNum 6.);
      ("ORDERED_NODE_SNAPSHOT_TYPE", VNum 7.);
      ("ANY_UNORDERED_NODE_TYPE", VNum 8.);
      ("FIRST_ORDERED_NODE_TYPE", VNum 9.);
    ]
  in
  VObj (mk_obj ~props Plain)

let state_for browser window =
  match States.find_opt states window with
  | Some st when st.window.Xqib.Windows.document == window.Xqib.Windows.document ->
      st
  | _ ->
      let genv = new_env () in
      let st = { genv; browser; window } in
      let win_obj = VObj (mk_obj (Window_obj window)) in
      env_declare genv "window" win_obj;
      env_declare genv "self" win_obj;
      env_declare genv "top" (VObj (mk_obj (Window_obj (Xqib.Windows.top window))));
      env_declare genv "document" (vnode window.Xqib.Windows.document);
      env_declare genv "location" (VObj (mk_obj (Location_obj window)));
      env_declare genv "navigator"
        (VObj
           (mk_obj
              ~props:
                [
                  ("appName", VStr browser.Xqib.Browser.navigator.Xqib.Bom.app_name);
                  ("userAgent", VStr browser.Xqib.Browser.navigator.Xqib.Bom.user_agent);
                ]
              Plain));
      env_declare genv "screen"
        (VObj
           (mk_obj
              ~props:
                [
                  ("width", VNum (float_of_int browser.Xqib.Browser.screen.Xqib.Bom.width));
                  ("height", VNum (float_of_int browser.Xqib.Browser.screen.Xqib.Bom.height));
                ]
              Plain));
      env_declare genv "alert"
        (vnative "alert" (fun _ args ->
             browser.Xqib.Browser.alerts <-
               to_string (List.nth args 0) :: browser.Xqib.Browser.alerts;
             VUndefined));
      env_declare genv "setTimeout"
        (vnative "setTimeout" (fun _ args ->
             let f = List.nth args 0 in
             let delay = try to_number (List.nth args 1) /. 1000. with _ -> 0. in
             Virtual_clock.schedule browser.Xqib.Browser.clock ~delay (fun () ->
                 ignore (call_value st f VUndefined []));
             VNum 0.));
      env_declare genv "parseInt"
        (vnative "parseInt" (fun _ args ->
             VNum (Float.trunc (to_number (List.nth args 0)))));
      env_declare genv "parseFloat"
        (vnative "parseFloat" (fun _ args -> VNum (to_number (List.nth args 0))));
      env_declare genv "isNaN"
        (vnative "isNaN" (fun _ args -> VBool (Float.is_nan (to_number (List.nth args 0)))));
      env_declare genv "String"
        (vnative "String" (fun _ args ->
             VStr (match args with [] -> "" | v :: _ -> to_string v)));
      env_declare genv "Number"
        (vnative "Number" (fun _ args ->
             VNum (match args with [] -> 0. | v :: _ -> to_number v)));
      env_declare genv "Math" (math_object ());
      env_declare genv "XPathResult" (xpath_result_object ());
      env_declare genv "console"
        (VObj
           (mk_obj
              ~props:
                [
                  ( "log",
                    vnative "log" (fun _ args ->
                        Logs.info (fun m ->
                            m "console.log: %s"
                              (String.concat " " (List.map to_string args)));
                        VUndefined) );
                ]
              Plain));
      States.replace states window st;
      st

let run_script browser window source =
  let st = state_for browser window in
  let prog = Js_parser.parse_program source in
  exec_stmts st st.genv prog

let eval_in_window browser window source =
  let st = state_for browser window in
  eval_expr st st.genv (Js_parser.parse_expression source)

(* inline handler provider: handles on* attributes when the page has a
   JS state and the source does not look like an XQuery QName call *)
let handle_inline _browser window ~element ~event_type ~source =
  if String.contains source ':' then false
  else
    match States.find_opt states window with
    | None -> false
    | Some st -> (
        match Js_parser.parse_expression source with
        | expr ->
            ignore
              (Dom_event.add_listener element ~event_type
                 ~name:("js-inline:" ^ string_of_int (Dom.id element) ^ ":" ^ event_type)
                 (fun e ->
                   let env = new_env ~parent:st.genv () in
                   env_declare env "event" (event_object e);
                   env_declare env "this" (vnode element);
                   ignore (eval_expr st env expr)));
            true
        | exception _ -> false)

let installed = ref false

let install () =
  if not !installed then begin
    installed := true;
    Xqib.Page.register_script_engine ~script_type:"text/javascript"
      (fun browser window ~script_element:_ ~source ->
        run_script browser window source);
    Xqib.Page.register_script_engine ~script_type:"application/javascript"
      (fun browser window ~script_element:_ ~source ->
        run_script browser window source);
    Xqib.Page.register_inline_handler_provider (fun browser window ~element ~event_type ~source ->
        handle_inline browser window ~element ~event_type ~source)
  end

(* ---------------- host embedding helpers ---------------- *)

let vstr s = VStr s
let vnum f = VNum f
let vbool b = VBool b
let vplain props = VObj (mk_obj ~props Plain)
let varray vs = varr vs

let define_global browser window name v =
  let st = state_for browser window in
  env_declare st.genv name v

let call browser window f args =
  let st = state_for browser window in
  call_value st f VUndefined args
