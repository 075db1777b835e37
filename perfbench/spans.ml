(* Wall-clock span recorder for the benchmark's own calls into each
   layer. A span has a name, a start, an end, a parent span and the op
   it belongs to. Spans stay in memory and are written out when the run
   ends; a layer's self time is its spans' duration minus the part that
   their child spans cover. The program's own Obs.Trace spans are
   stamped with the virtual clock, so they read 0 s for CPU work; the
   benchmark uses them only as counts. *)

type span = {
  id : int;
  name : string;
  op : int;  (** the op this span belongs to *)
  parent : int;  (** -1 for a root span *)
  start : float;
  mutable stop : float;
}

let spans : span list ref = ref []
let next_id = ref 0
let stack : span list ref = ref []
let current_op = ref (-1)

(** Record a finished span. Without [parent] it is a child of the
    innermost open span, or a root span outside any. *)
let record ?parent ?(op = !current_op) name ~start ~stop =
  let parent =
    match (parent, !stack) with
    | Some p, _ -> p.id
    | None, p :: _ -> p.id
    | None, [] -> -1
  in
  let s = { id = !next_id; name; op; parent; start; stop } in
  incr next_id;
  spans := s :: !spans;
  s

(** Run [f] inside a span named [name]; returns the result and the span. *)
let span name f =
  let s = record name ~start:(Unix.gettimeofday ()) ~stop:0. in
  stack := s :: !stack;
  Fun.protect
    (fun () -> (f (), s))
    ~finally:(fun () ->
      s.stop <- Unix.gettimeofday ();
      stack := List.tl !stack)

let with_span name f = fst (span name f)

(** Run [f] as op [op]: a root span named ["op"] whose children are the
    layer spans recorded inside it. Returns [f]'s result and the op's
    duration in seconds. *)
let with_op op f =
  current_op := op;
  Fun.protect
    (fun () ->
      let r, s = span "op" f in
      (r, s.stop -. s.start))
    ~finally:(fun () -> current_op := -1)

let duration s = s.stop -. s.start

(** Self seconds per span name, over the spans that descend from an
    ["op"] span (probes outside ops are excluded). *)
let self_times () =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) !spans;
  let rec in_op s =
    s.name = "op"
    || (s.parent >= 0
       && match Hashtbl.find_opt by_id s.parent with Some p -> in_op p | None -> false)
  in
  let covered = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let c = Option.value ~default:0. (Hashtbl.find_opt covered s.parent) in
        Hashtbl.replace covered s.parent (c +. duration s))
    !spans;
  let totals = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if in_op s then begin
        let child = Option.value ~default:0. (Hashtbl.find_opt covered s.id) in
        let self = Float.max 0. (duration s -. child) in
        let t = Option.value ~default:0. (Hashtbl.find_opt totals s.name) in
        Hashtbl.replace totals s.name (t +. self)
      end)
    !spans;
  totals

(** Durations in seconds of the spans named [name], oldest first. *)
let durations name =
  List.rev
    (List.filter_map (fun s -> if s.name = name then Some (duration s) else None) !spans)

(** Self time of the ["op"] spans' descendants over the ops' total: how
    much of an op's wall time the layer spans account for. *)
let layer_share () =
  let self = self_times () in
  let op_self = Option.value ~default:0. (Hashtbl.find_opt self "op") in
  let ops = List.fold_left ( +. ) 0. (durations "op") in
  if ops = 0. then 0. else (ops -. op_self) /. ops

(** Write every span as one JSON object per line. *)
let write file =
  let oc = open_out file in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":\"%s\",\"op\":%d,\"parent\":%d,\"start\":%.9f,\"end\":%.9f}\n"
        s.id s.name s.op s.parent s.start s.stop)
    (List.rev !spans);
  close_out oc
