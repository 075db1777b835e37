type phase = Dom.phase = Capturing | At_target | Bubbling

type event = Dom.event = {
  event_type : string;
  target : Dom.node;
  mutable current_target : Dom.node option;
  mutable phase : phase;
  mutable propagation_stopped : bool;
  mutable default_prevented : bool;
  detail : (string * string) list;
  payload : Dom.node option;
}

let make_event ?(detail = []) ?payload ~event_type ~target () =
  {
    event_type;
    target;
    current_target = None;
    phase = At_target;
    propagation_stopped = false;
    default_prevented = false;
    detail;
    payload;
  }

let stop_propagation e = e.propagation_stopped <- true
let prevent_default e = e.default_prevented <- true

type listener_id = int

let listener_counter = ref 0
let invocations = ref 0

(* Invoked with every listener id dropped from its node — explicit
   removal or same-name replacement — so dependent state keyed by
   listener id (the reactive layer's memos) is discarded with it. *)
let drop_hook : (int -> unit) ref = ref (fun _ -> ())

let add_listener node ~event_type ?(capture = false) ?name callback =
  incr listener_counter;
  let l =
    {
      Dom.lid = !listener_counter;
      ltype = event_type;
      capture;
      lname = name;
      lcallback = callback;
    }
  in
  let existing = Dom.listeners node in
  let existing =
    match name with
    | None -> existing
    | Some n ->
        let keep, replaced =
          List.partition
            (fun (o : Dom.listener) ->
              not
                (o.lname = Some n
                && String.equal o.ltype event_type
                && o.capture = capture))
            existing
        in
        List.iter (fun (o : Dom.listener) -> !drop_hook o.lid) replaced;
        keep
  in
  Dom.set_listeners node (existing @ [ l ]);
  l.lid

let remove_listener node lid =
  let ls = Dom.listeners node in
  if List.exists (fun (l : Dom.listener) -> l.lid = lid) ls then begin
    !drop_hook lid;
    Dom.set_listeners node
      (List.filter (fun (l : Dom.listener) -> l.lid <> lid) ls)
  end

let remove_named_listener node ~event_type ~name =
  let keep, drop =
    List.partition
      (fun (l : Dom.listener) ->
        not (l.lname = Some name && String.equal l.ltype event_type))
      (Dom.listeners node)
  in
  Dom.set_listeners node keep;
  List.iter (fun (l : Dom.listener) -> !drop_hook l.lid) drop;
  List.length drop

let listener_count node = List.length (Dom.listeners node)

let invoke_phase event node =
  event.current_target <- Some node;
  let matching =
    List.filter
      (fun (l : Dom.listener) ->
        String.equal l.ltype event.event_type
        &&
        match event.phase with
        | Capturing -> l.capture
        | At_target -> true
        | Bubbling -> not l.capture)
      (Dom.listeners node)
  in
  List.iter
    (fun (l : Dom.listener) ->
      if not event.propagation_stopped then begin
        incr invocations;
        l.lcallback event
      end)
    matching

let dispatch event =
  let chain = Dom.ancestors event.target in
  (* nearest-first per Dom.ancestors; capture goes root -> target *)
  let top_down = List.rev chain in
  event.phase <- Capturing;
  List.iter
    (fun n -> if not event.propagation_stopped then invoke_phase event n)
    top_down;
  if not event.propagation_stopped then begin
    event.phase <- At_target;
    invoke_phase event event.target
  end;
  event.phase <- Bubbling;
  List.iter
    (fun n -> if not event.propagation_stopped then invoke_phase event n)
    chain;
  not event.default_prevented

let fire ?detail ?payload ~event_type ~target () =
  dispatch (make_event ?detail ?payload ~event_type ~target ())

let invocation_count () = !invocations
