type t = { months : int; seconds : float }

exception Overflow of string

let zero = { months = 0; seconds = 0. }

let overflow () = raise (Overflow "duration out of range")

(* a component that no longer fits the (int months, float seconds)
   value space is an overflow, never a wrapped or infinite value *)
let months_of_float f =
  if Float.is_nan f || Float.abs f >= 0x1p62 then overflow ()
  else int_of_float f

let add_months a b =
  let r = a + b in
  if (a lxor r) land (b lxor r) < 0 then overflow () else r

let finite_seconds s = if Float.is_finite s then s else overflow ()
let make ?(months = 0) ?(seconds = 0.) () = { months; seconds }

let of_string s =
  let fail () = failwith (Printf.sprintf "invalid duration literal %S" s) in
  let n = String.length s in
  if n = 0 then fail ();
  let negative = s.[0] = '-' in
  let i = if negative then 1 else 0 in
  if i >= n || s.[i] <> 'P' then fail ();
  let i = ref (i + 1) in
  let months = ref 0 and seconds = ref 0. in
  let in_time = ref false in
  let saw_component = ref false in
  while !i < n do
    if s.[!i] = 'T' then begin
      in_time := true;
      incr i
    end
    else begin
      let start = !i in
      while !i < n && (s.[!i] >= '0' && s.[!i] <= '9' || s.[!i] = '.') do
        incr i
      done;
      if !i = start || !i >= n then fail ();
      let num = float_of_string (String.sub s start (!i - start)) in
      let designator = s.[!i] in
      incr i;
      saw_component := true;
      match (designator, !in_time) with
      | 'Y', false ->
          months := add_months !months (months_of_float (Float.trunc num *. 12.))
      | 'M', false -> months := add_months !months (months_of_float num)
      | 'D', false -> seconds := !seconds +. (num *. 86400.)
      | 'W', false -> seconds := !seconds +. (num *. 7. *. 86400.)
      | 'H', true -> seconds := !seconds +. (num *. 3600.)
      | 'M', true -> seconds := !seconds +. (num *. 60.)
      | 'S', true -> seconds := !seconds +. num
      | _ -> fail ()
    end
  done;
  if not !saw_component then fail ();
  ignore (finite_seconds !seconds);
  if negative then { months = - !months; seconds = -. !seconds }
  else { months = !months; seconds = !seconds }

let to_string { months; seconds } =
  if months = 0 && seconds = 0. then "PT0S"
  else begin
    let negative = months < 0 || (months = 0 && seconds < 0.) in
    let months = abs months and seconds = Float.abs seconds in
    let buf = Buffer.create 16 in
    if negative then Buffer.add_char buf '-';
    Buffer.add_char buf 'P';
    let years = months / 12 and rem_months = months mod 12 in
    if years > 0 then Buffer.add_string buf (string_of_int years ^ "Y");
    if rem_months > 0 then Buffer.add_string buf (string_of_int rem_months ^ "M");
    let days = int_of_float (seconds /. 86400.) in
    let rem = seconds -. (float_of_int days *. 86400.) in
    if days > 0 then Buffer.add_string buf (string_of_int days ^ "D");
    if rem > 0. then begin
      Buffer.add_char buf 'T';
      let hours = int_of_float (rem /. 3600.) in
      let rem = rem -. (float_of_int hours *. 3600.) in
      let minutes = int_of_float (rem /. 60.) in
      let secs = rem -. (float_of_int minutes *. 60.) in
      if hours > 0 then Buffer.add_string buf (string_of_int hours ^ "H");
      if minutes > 0 then Buffer.add_string buf (string_of_int minutes ^ "M");
      if secs > 0. then
        if Float.is_integer secs then
          Buffer.add_string buf (string_of_int (int_of_float secs) ^ "S")
        else Buffer.add_string buf (Printf.sprintf "%gS" secs)
    end;
    Buffer.contents buf
  end

let equal a b = a.months = b.months && a.seconds = b.seconds

let compare a b =
  match Int.compare a.months b.months with
  | 0 -> Float.compare a.seconds b.seconds
  | c -> c

let add a b =
  {
    months = add_months a.months b.months;
    seconds = finite_seconds (a.seconds +. b.seconds);
  }
let negate a = { months = -a.months; seconds = -.a.seconds }

let scale a f =
  {
    months = months_of_float (Float.round (float_of_int a.months *. f));
    seconds = finite_seconds (a.seconds *. f);
  }

let is_year_month a = a.seconds = 0.
let is_day_time a = a.months = 0
let pp ppf a = Format.pp_print_string ppf (to_string a)
