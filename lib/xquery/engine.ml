open Xmlb

type compiled = {
  prog : Ast.prog;
  static : Static_context.t;
  code : Compile.prog_code option;
      (* closure-compiled body + function table; None when compiled
         evaluation was off at compile time *)
}

let set_compiled_eval = Compile.set_compiled_eval
let compiled_eval_enabled = Compile.enabled

let default_static () = Static_context.create ()

(* Tie the knot: module imports encountered by the parser load and
   register library modules through the static context's resolver. *)
let load_module sctx ~uri ~locations =
  if Static_context.is_imported sctx uri then ()
  else begin
    Static_context.mark_imported sctx uri;
    match Static_context.resolve_module sctx ~uri ~locations with
    | Static_context.Module_source src ->
        let prog = Parser.parse_program sctx src in
        (match prog.Ast.library_module with
        | Some m when not (String.equal m.Ast.mod_uri uri) ->
            Xq_error.raise_error "XQST0059"
              "module at %S declares namespace %S, expected %S"
              (String.concat "," locations) m.Ast.mod_uri uri
        | _ -> ())
    | Static_context.Module_external fns ->
        List.iter
          (fun (qn, arity, impl) ->
            Static_context.register_external sctx qn ~arity impl)
          fns
    | Static_context.Module_not_found ->
        Xq_error.raise_error "XQST0059" "cannot locate module %S" uri
  end

let () = Parser.module_loader := load_module

let compile ?(optimize = true) ?static source =
  let traced name f =
    if !Obs.Trace.enabled then Obs.Trace.with_span name f else f ()
  in
  traced "engine.compile" @@ fun () ->
  let static = match static with Some s -> s | None -> default_static () in
  let prog =
    traced "engine.parse" (fun () -> Parser.parse_program static source)
  in
  let prog =
    if optimize then traced "engine.optimize" (fun () -> Optimizer.optimize prog)
    else prog
  in
  (* Re-register optimized prolog declarations: the parser stored the
     un-optimized function bodies and variable initializers in the
     static context as it read them, so both must be swapped for their
     optimized forms (variables in place, to keep evaluation order). *)
  if optimize then
    List.iter
      (function
        | Ast.P_function f -> Static_context.declare_function static f
        | Ast.P_variable (qn, st, e) ->
            Static_context.redeclare_variable static qn st e
        | _ -> ())
      prog.Ast.prolog;
  if !Obs.Metrics.enabled then
    Obs.Metrics.incr ~by:(String.length source) "engine.source-bytes";
  let code =
    if Compile.enabled () then
      Some
        (traced "engine.compile-closures" (fun () ->
             Compile.compile_prog static prog))
    else None
  in
  { prog; static; code }

(* ------------------------------------------------------------------ *)
(* compiled-query cache                                                *)

(* An entry keeps only what is independent of the page that compiled
   it: a hit replays the prolog into the caller's own static context,
   so the compiling page's context (and, through its externals, its
   browser and DOM) is not retained. *)
type cached = { cached_prog : Ast.prog; cached_code : Compile.prog_code option }

let query_cache : cached Query_cache.t =
  Query_cache.create ~name:"query-cache" ~capacity:256 ()

(* Replay a cached compilation's prolog into [static], reproducing
   every side effect the parser + [compile] would have had: namespace
   and default declarations, (optimized) function and variable
   registrations, options and module imports. After this, [static] can
   evaluate the cached program exactly as if it had compiled the source
   itself — but with {e its own} external-function implementations and
   module resolver, which is why entries carry no static context. *)
let replay prog static =
  List.iter
    (function
      | Ast.P_namespace (prefix, uri) ->
          Static_context.declare_namespace static ~prefix ~uri
      | Ast.P_default_element_ns uri ->
          Static_context.declare_default_element_ns static uri
      | Ast.P_default_function_ns uri ->
          Static_context.declare_default_function_ns static uri
      | Ast.P_boundary_space_preserve b ->
          Static_context.set_boundary_space_preserve static b
      | Ast.P_variable (qn, st, e) ->
          Static_context.redeclare_variable static qn st e
      | Ast.P_function f -> Static_context.declare_function static f
      | Ast.P_option (qn, v) -> Static_context.set_option static qn v
      | Ast.P_module_import { prefix; uri; locations } ->
          (match prefix with
          | Some prefix -> Static_context.declare_namespace static ~prefix ~uri
          | None -> ());
          load_module static ~uri ~locations)
    prog.Ast.prolog

let cache_key ~optimize fingerprint source =
  (* the join-planning switch changes what [optimize] produces, so it
     must key the cache too or toggling it would serve stale plans *)
  (if optimize then "O1|" else "O0|")
  ^ (if Optimizer.join_planning_enabled () then "J1|" else "J0|")
  ^ (if Compile.enabled () then "C1|" else "C0|")
  ^ fingerprint ^ "|" ^ source

let compile_cached ?(optimize = true) ?static source =
  if not !Query_cache.enabled then compile ~optimize ?static source
  else begin
    let traced name f =
      if !Obs.Trace.enabled then Obs.Trace.with_span name f else f ()
    in
    let static = match static with Some s -> s | None -> default_static () in
    (* fingerprint before parsing: the key captures the context the
       source is compiled *against*, not the one it produces *)
    let fp =
      traced "engine.fingerprint" (fun () -> Static_context.fingerprint static)
    in
    let key = cache_key ~optimize fp source in
    match Query_cache.find query_cache key with
    | Some { cached_prog = prog; cached_code = code } ->
        traced "engine.cache-replay" (fun () -> replay prog static);
        { prog; static; code }
    | None ->
        let c = compile ~optimize ~static source in
        Query_cache.add query_cache key ~cost:(String.length source)
          { cached_prog = c.prog; cached_code = c.code };
        c
  end

let install ?(bindings = []) ctx compiled =
  (* compiled function bodies go in before anything can call them
     (global-variable initializers may) *)
  (match compiled.code with
  | Some code when Compile.enabled () ->
      List.iter
        (fun (key, impl) ->
          Hashtbl.replace ctx.Dynamic_context.compiled_fns key impl)
        code.Compile.fns
  | _ -> ());
  List.iter (fun (qn, v) -> Dynamic_context.bind_global ctx qn v) bindings;
  (* evaluate global variable declarations in order *)
  List.iter
    (fun (qn, st, init) ->
      let v =
        match init with
        | Some e -> Eval.protect (fun () -> Eval.eval ctx e)
        | None -> (
            (* external variable: the caller must supply a value, which
               is checked against the declared type (XQuery §2.2.3.2) *)
            match List.find_opt (fun (b, _) -> Qname.equal b qn) bindings with
            | Some (_, v) -> v
            | None ->
                Xq_error.raise_error "XPDY0002"
                  "external variable $%s has no value" (Qname.to_string qn))
      in
      Dynamic_context.bind_global ctx qn (Eval.coerce_binding qn st v))
    (Static_context.global_variables compiled.static)

let context_for ?host ?context_item ?bindings compiled =
  let ctx = Dynamic_context.create ?host compiled.static in
  let ctx =
    match context_item with
    | Some item -> Dynamic_context.with_focus ctx item ~position:1 ~size:1
    | None -> ctx
  in
  install ?bindings ctx compiled;
  ctx

let eval_body ctx compiled =
  match (compiled.code, compiled.prog.Ast.body) with
  | Some { Compile.body = Some f; _ }, _ when Compile.enabled () ->
      Eval.run_body (fun () -> f ctx)
  | _, Some body -> Eval.run_body (fun () -> Eval.eval ctx body)
  | _, None -> []

let run ?host ?context_item ?bindings compiled =
  let traced name f =
    if !Obs.Trace.enabled then Obs.Trace.with_span name f else f ()
  in
  traced "engine.run" @@ fun () ->
  let ctx =
    traced "engine.context" (fun () ->
        context_for ?host ?context_item ?bindings compiled)
  in
  let result = traced "engine.eval" (fun () -> eval_body ctx compiled) in
  Pul.apply ctx.Dynamic_context.pul;
  result

let eval_string ?optimize ?static ?host ?context_item ?bindings source =
  run ?host ?context_item ?bindings (compile_cached ?optimize ?static source)

let call ctx qn args = Eval.protect (fun () -> Eval.call_function ctx qn args)
