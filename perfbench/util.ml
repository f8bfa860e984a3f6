(** Helpers of the benchmark itself: seeded sampling, order statistics,
    metric-name rules and the result line.  Kept free of the program's
    libraries so the unit tests exercise them alone. *)

(* ------------------------------------------------------------------ *)
(* Seeded Zipf sampler                                                 *)
(* ------------------------------------------------------------------ *)

module Zipf = struct
  type t = { cdf : float array }

  (** Ranks [0 .. n-1], rank [k] drawn with weight [1 / (k+1)^s]. *)
  let make ~n ~s : t =
    if n < 1 then invalid_arg "Zipf.make: n < 1";
    let w = Array.init n (fun k -> 1. /. (float_of_int (k + 1) ** s)) in
    let total = Array.fold_left ( +. ) 0. w in
    let acc = ref 0. in
    { cdf = Array.map (fun x -> acc := !acc +. (x /. total); !acc) w }

  let sample (t : t) (rng : Random.State.t) : int =
    let u = Random.State.float rng 1. in
    (* first rank whose cumulative weight exceeds u *)
    let lo = ref 0 and hi = ref (Array.length t.cdf - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.cdf.(mid) > u then hi := mid else lo := mid + 1
    done;
    !lo
end

(** A seeded permutation of [0 .. n-1] (Fisher-Yates). *)
let permutation (rng : Random.State.t) (n : int) : int array =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* ------------------------------------------------------------------ *)
(* Order statistics                                                    *)
(* ------------------------------------------------------------------ *)

let sorted (xs : float list) : float array =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(** Nearest-rank [p]-th percentile, or [None] when fewer than ten
    samples lie beyond it: a tail percentile resting on a handful of
    samples is one outlier, not a measurement. *)
let percentile ~(p : float) (xs : float list) : float option =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 || p <= 0. || p > 100. then None
  else
    let k = max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int n))) in
    if n - k < 10 then None else Some a.(k - 1)

(** Median by linear interpolation (the usual definition, not gated). *)
let median (xs : float list) : float =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean (xs : float list) : float =
  match xs with [] -> nan | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* ------------------------------------------------------------------ *)
(* Metric names and the result line                                    *)
(* ------------------------------------------------------------------ *)

let valid_name (s : string) : bool =
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

let valid_unit (s : string) : bool =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true | _ -> false)
       s

type metric = { name : string; value : float; unit_ : string }

let json_string (s : string) : string =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(** A JSON number with all its digits; non-finite values are refused
    here rather than printed as invalid JSON. *)
let json_number (x : float) : string =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else invalid_arg "json_number: not finite"

let result_line ~correct ~attempted ~failed (ms : metric list) : string =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
              (json_number m.value) (json_string m.unit_))
          ms))
