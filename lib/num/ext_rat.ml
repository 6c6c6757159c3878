type t = Fin of Rat.t | Inf

let zero = Fin Rat.zero
let one = Fin Rat.one
let inf = Inf
let of_rat r = Fin r
let of_int i = Fin (Rat.of_int i)
let of_ints a b = Fin (Rat.of_ints a b)

let is_inf = function Inf -> true | Fin _ -> false
let is_finite = function Inf -> false | Fin _ -> true

let fin_exn = function
  | Fin r -> r
  | Inf -> invalid_arg "Ext_rat.fin_exn: infinite"

let equal a b =
  match (a, b) with
  | Inf, Inf -> true
  | Fin x, Fin y -> Rat.equal x y
  | Inf, Fin _ | Fin _, Inf -> false

let compare a b =
  match (a, b) with
  | Inf, Inf -> 0
  | Inf, Fin _ -> 1
  | Fin _, Inf -> -1
  | Fin x, Fin y -> Rat.compare x y

let add a b =
  match (a, b) with
  | Inf, _ | _, Inf -> Inf
  | Fin x, Fin y -> Fin (Rat.add x y)

let mul a b =
  match (a, b) with
  | Fin x, Fin y -> Fin (Rat.mul x y)
  | Inf, Fin x | Fin x, Inf ->
    if Rat.is_zero x then invalid_arg "Ext_rat.mul: 0 * oo" else Inf
  | Inf, Inf -> Inf

let inv = function
  | Inf -> Fin Rat.zero
  | Fin x -> Fin (Rat.inv x)

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "inf" | "+inf" | "oo" | "infinity" -> Inf
  | other -> Fin (Rat.of_string other)

(* A value that starts and ends with a digit has nothing to trim and is
   no spelling of [inf]; case only matters to letters, which Rat rejects
   the same way in either case. *)
let is_digit c = match c with '0' .. '9' -> true | _ -> false

(* [Fin] of each of Rat's shared small values, built once *)
let shared_fin = Array.init (64 * 64) (fun k -> Fin (Rat.shared k))

let of_substring s pos len =
  if len > 0 && is_digit s.[pos] && is_digit s.[pos + len - 1] then begin
    let r = Rat.of_substring s pos len in
    let k = Rat.shared_index r in
    if k < 0 then Fin r else shared_fin.(k)
  end
  else of_string (String.sub s pos len)

let to_string = function Inf -> "inf" | Fin r -> Rat.to_string r
let pp ppf t = Format.pp_print_string ppf (to_string t)
