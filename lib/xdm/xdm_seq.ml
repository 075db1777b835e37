(* Lazy pull-cursor over XDM sequences. A cursor wraps an [item Seq.t]
   together with static flags the evaluator derives from the expression
   shape: [sorted] (the items are distinct nodes in document order, so
   a consumer can skip the document_order sort) and [at_most_one] (the
   producer statically yields zero or one item). Cursors are
   single-shot: combinators consume the underlying Seq once. *)

module I = Xdm_item

type t = { items : I.item Seq.t; sorted : bool; at_most_one : bool }

let pulls_metric = "xdm.seq.pulls"
let materialize_metric = "xdm.seq.materializations"

let tick () = if !Obs.Metrics.enabled then Obs.Metrics.incr pulls_metric

(* count each item delivered by a cold producer; combinators do not
   re-wrap, so a pipeline counts every source item exactly once *)
let counted s = Seq.map (fun x -> tick (); x) s

let make ?(sorted = false) ?(at_most_one = false) items =
  { items; sorted; at_most_one }

let of_seq ?sorted ?at_most_one s = make ?sorted ?at_most_one (counted s)

let of_node_seq ?sorted s =
  of_seq ?sorted (Seq.map (fun n -> I.Node n) s)

let of_list ?(sorted = false) l =
  {
    items = List.to_seq l;
    sorted;
    at_most_one = (match l with [] | [ _ ] -> true | _ -> false);
  }

let empty = { items = Seq.empty; sorted = true; at_most_one = true }
let singleton it = { items = Seq.return it; sorted = false; at_most_one = true }
let items t = t.items
let sorted t = t.sorted
let at_most_one t = t.at_most_one

let to_list t =
  if !Obs.Metrics.enabled then Obs.Metrics.incr materialize_metric;
  List.of_seq t.items

let uncons t = Seq.uncons t.items
let head t = Option.map fst (Seq.uncons t.items)
let is_empty t = Option.is_none (Seq.uncons t.items)

let take n t =
  if n <= 0 then { empty with sorted = t.sorted }
  else { t with items = Seq.take n t.items; at_most_one = t.at_most_one || n = 1 }

(* 1-based item access; pulls at most [k] items *)
let nth k t =
  if k < 1 then None
  else Option.map fst (Seq.uncons (Seq.drop (k - 1) t.items))

(* a subsequence keeps order and distinctness *)
let filter f t = { t with items = Seq.filter f t.items }
let filteri f t =
  let indexed =
    Seq.filter (fun (i, x) -> f i x) (Seq.mapi (fun i x -> (i, x)) t.items)
  in
  { t with items = Seq.map snd indexed }
let map f t = { items = Seq.map f t.items; sorted = false; at_most_one = t.at_most_one }

let concat_map f t =
  { items = Seq.concat_map (fun x -> (f x).items) t.items;
    sorted = false; at_most_one = false }

(* effective boolean value with a bounded pull: the answer is decided
   by the first two items, matching {!Xdm_item.effective_boolean}
   (including its error on multi-item atomic-first sequences) *)
let effective_boolean t =
  match Seq.uncons t.items with
  | None -> false
  | Some (I.Node _, _) -> true
  | Some ((I.Atomic _ as a), rest) -> (
      match Seq.uncons rest with
      | None -> I.effective_boolean [ a ]
      | Some (b, _) -> I.effective_boolean [ a; b ])
