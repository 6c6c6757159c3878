(* Normalised rationals with a tagged small-integer fast path.

   Representation invariant (canonical form):
   - [S (n, d)]: den [d > 0], [gcd (|n|, d) = 1], zero is [S (0, 1)], and
     both components lie in [(min_int, max_int]] — [min_int] is excluded so
     that negation and [abs] can never overflow.
   - [Big b]: same normalisation ([b.den > 0], coprime), used if and only
     if the value does NOT satisfy the [S] constraints.

   Because the representation is canonical — every rational value has
   exactly one representation — structural equality of the representation
   coincides with numeric equality, exactly as in the all-bignum seed.

   The small path does plain native-int arithmetic with zarith-style
   overflow checks; any overflow falls back to the [Bigint] path, whose
   result is re-canonicalised (and so may shrink back to [S]).  LP
   coefficients in the steady-state models are overwhelmingly tiny, so
   simplex pivots stay on the int path and stop allocating limb arrays. *)

module B = Bigint

type t =
  | S of int * int
  | Big of { num : B.t; den : B.t }

exception Overflow

(* --- overflow-checked native-int helpers --------------------------------
   All operands obey the [S] range invariant (never [min_int]); every
   helper also guarantees its result is not [min_int]. *)

let add_chk a b =
  let s = a + b in
  if (a lxor s) land (b lxor s) < 0 || s = min_int then raise_notrace Overflow;
  s

let mul_chk a b =
  if a = 0 || b = 0 then 0
  else begin
    let p = a * b in
    (* [p / b = a] certifies the product: operands are never [min_int], and
       a wrapped product differs from the true one by 2^63, which shifts
       the quotient by >= 2 — truncation cannot mask it. *)
    if p = min_int || p / b <> a then raise_notrace Overflow;
    p
  end

(* gcd on non-negative ints *)
let rec gcd_int a b = if b = 0 then a else gcd_int b (a mod b)

(* --- constructors ------------------------------------------------------- *)

let zero = S (0, 1)
let one = S (1, 1)
let two = S (2, 1)
let minus_one = S (-1, 1)

(* [n/d] with [d > 0], both in range; reduces to lowest terms. *)
let make_small n d =
  if n = 0 then zero
  else begin
    let g = gcd_int (abs n) d in
    if g = 1 then S (n, d) else S (n / g, d / g)
  end

(* Canonicalise a normalised bigint pair ([den > 0], coprime). *)
let of_big num den =
  match (B.to_int_opt num, B.to_int_opt den) with
  | Some n, Some d when n <> min_int && d <> min_int -> S (n, d)
  | _ -> Big { num; den }

let make num den =
  if B.is_zero den then raise Division_by_zero
  else if B.is_zero num then zero
  else begin
    let num, den =
      if B.is_negative den then (B.neg num, B.neg den) else (num, den)
    in
    let g = B.gcd num den in
    if B.is_one g then of_big num den
    else of_big (B.div num g) (B.div den g)
  end

let of_bigint n =
  match B.to_int_opt n with
  | Some i when i <> min_int -> S (i, 1)
  | _ -> Big { num = n; den = B.one }

let of_int i = if i = min_int then Big { num = B.of_int i; den = B.one } else S (i, 1)

let of_ints a b =
  if b = 0 then raise Division_by_zero
  else if a = min_int || b = min_int then make (B.of_int a) (B.of_int b)
  else begin
    let a, b = if b < 0 then (-a, -b) else (a, b) in
    make_small a b
  end

(* Widen to a bigint pair (num, den) regardless of representation. *)
let big_num = function S (n, _) -> B.of_int n | Big b -> b.num
let big_den = function S (_, d) -> B.of_int d | Big b -> b.den

let num = big_num
let den = big_den

let fits_small = function S _ -> true | Big _ -> false

let to_ints = function S (n, d) -> Some (n, d) | Big _ -> None

(* --- tests and comparisons ---------------------------------------------- *)

let sign = function
  | S (n, _) -> Stdlib.compare n 0
  | Big b -> B.sign b.num

let is_zero = function S (0, _) -> true | S _ | Big _ -> false

let is_integer = function
  | S (_, d) -> d = 1
  | Big b -> B.is_one b.den

let equal a b =
  match (a, b) with
  | S (n1, d1), S (n2, d2) -> n1 = n2 && d1 = d2
  | Big x, Big y -> B.equal x.num y.num && B.equal x.den y.den
  | S _, Big _ | Big _, S _ -> false (* canonical: never numerically equal *)

let compare_big a b =
  (* a.num/a.den ? b.num/b.den  <=>  a.num*b.den ? b.num*a.den
     (both denominators are positive) *)
  B.compare (B.mul (big_num a) (big_den b)) (B.mul (big_num b) (big_den a))

let compare a b =
  match (a, b) with
  | S (n1, d1), S (n2, d2) ->
    if d1 = d2 then Stdlib.compare n1 n2 (* common denominator: no products *)
    else begin
      let s1 = Stdlib.compare n1 0 and s2 = Stdlib.compare n2 0 in
      if s1 <> s2 then Stdlib.compare s1 s2 (* opposite signs: no products *)
      else begin
        match Stdlib.compare (mul_chk n1 d2) (mul_chk n2 d1) with
        | c -> c
        | exception Overflow -> compare_big a b
      end
    end
  | _ ->
    let s1 = sign a and s2 = sign b in
    if s1 <> s2 then Stdlib.compare s1 s2 else compare_big a b

let hash = function
  | S (n, d) -> (n * 65599) lxor d
  | Big b -> (B.hash b.num * 65599) lxor B.hash b.den

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

(* --- arithmetic --------------------------------------------------------- *)

let neg = function
  | S (n, d) -> S (-n, d)
  | Big b -> Big { b with num = B.neg b.num }

let abs = function
  | S (n, d) -> if n < 0 then S (-n, d) else S (n, d)
  | Big b -> if B.is_negative b.num then Big { b with num = B.neg b.num } else Big b

let inv t =
  match t with
  | S (0, _) -> raise Division_by_zero
  | S (n, d) -> if n < 0 then S (-d, -n) else S (d, n)
  | Big b ->
    if B.is_zero b.num then raise Division_by_zero
    else if B.is_negative b.num then of_big (B.neg b.den) (B.neg b.num)
    else of_big b.den b.num

let add_big a b =
  let an = big_num a and ad = big_den a in
  let bn = big_num b and bd = big_den b in
  if B.equal ad bd then make (B.add an bn) ad
  else make (B.add (B.mul an bd) (B.mul bn ad)) (B.mul ad bd)

(* small + small, Knuth-style: with g = gcd(d1,d2) the candidate numerator
   is t = n1*(d2/g) + n2*(d1/g) over d1*(d2/g), and the only common factor
   left to remove is gcd(t, g). *)
let add_small n1 d1 n2 d2 =
  if d1 = d2 then begin
    if d1 = 1 then S (add_chk n1 n2, 1) (* integers: nothing to reduce *)
    else make_small (add_chk n1 n2) d1
  end
  else begin
    let g = gcd_int d1 d2 in
    if g = 1 then
      (* coprime denominators: the result is already in lowest terms *)
      S (add_chk (mul_chk n1 d2) (mul_chk n2 d1), mul_chk d1 d2)
    else begin
      let t = add_chk (mul_chk n1 (d2 / g)) (mul_chk n2 (d1 / g)) in
      if t = 0 then zero
      else begin
        let g2 = gcd_int (Stdlib.abs t) g in
        S (t / g2, mul_chk (d1 / g2) (d2 / g))
      end
    end
  end

let add a b =
  match (a, b) with
  | S (0, _), _ -> b
  | _, S (0, _) -> a
  | S (n1, d1), S (n2, d2) -> (
    try add_small n1 d1 n2 d2 with Overflow -> add_big a b)
  | _ -> add_big a b

let sub a b = if is_zero b then a else add a (neg b)

let mul_big a b =
  let an = big_num a and ad = big_den a in
  let bn = big_num b and bd = big_den b in
  (* cross-reduce before multiplying to keep intermediates small *)
  let g1 = B.gcd an bd and g2 = B.gcd bn ad in
  let g1 = if B.is_zero g1 then B.one else g1 in
  let g2 = if B.is_zero g2 then B.one else g2 in
  let n = B.mul (B.div an g1) (B.div bn g2) in
  let d = B.mul (B.div ad g2) (B.div bd g1) in
  make n d

let mul a b =
  match (a, b) with
  | S (0, _), _ | _, S (0, _) -> zero
  | S (1, 1), _ -> b
  | _, S (1, 1) -> a
  | S (n1, d1), S (n2, d2) -> (
    try
      (* cross-reduce: gcd(n1,d2) and gcd(n2,d1) strip every common factor,
         so the products below are already in lowest terms *)
      let g1 = gcd_int (Stdlib.abs n1) d2 and g2 = gcd_int (Stdlib.abs n2) d1 in
      S (mul_chk (n1 / g1) (n2 / g2), mul_chk (d1 / g2) (d2 / g1))
    with Overflow -> mul_big a b)
  | _ -> mul_big a b

let div a b = mul a (inv b)

(* Fused [a - b*c], the elimination row operation of exact LU/eta solves.
   On the small path the product is cross-reduced and handed straight to
   the fraction addition, so the intermediate [b*c] value is never
   materialised (one canonicalisation instead of two, no constructor
   allocation for the product). *)
let submul a b c =
  match (a, b, c) with
  | _, S (0, _), _ | _, _, S (0, _) -> a
  | S (0, _), _, _ -> neg (mul b c)
  | S (an, ad), S (bn, bd), S (cn, cd) -> (
    try
      (* cross-reduce b*c as in [mul]: the product pn/pd is in lowest
         terms, which [add_small] requires of its operands *)
      let g1 = gcd_int (Stdlib.abs bn) cd
      and g2 = gcd_int (Stdlib.abs cn) bd in
      let pn = mul_chk (bn / g1) (cn / g2)
      and pd = mul_chk (bd / g2) (cd / g1) in
      (* [mul_chk] never returns [min_int], so [-pn] cannot overflow *)
      add_small an ad (-pn) pd
    with Overflow -> sub a (mul b c))
  | _ -> sub a (mul b c)

let mul_int t i = mul t (of_int i)
let div_int t i = div t (of_int i)

let floor = function
  | S (n, d) ->
    if n >= 0 then B.of_int (n / d)
    else begin
      let q = n / d in
      B.of_int (if n mod d = 0 then q else q - 1)
    end
  | Big b ->
    (* Bigint.divmod is Euclidean (0 <= r < den), so q is already the
       floor. *)
    fst (B.divmod b.num b.den)

let ceil = function
  | S (n, d) ->
    if n <= 0 then B.of_int (n / d)
    else begin
      let q = n / d in
      B.of_int (if n mod d = 0 then q else q + 1)
    end
  | Big b ->
    let q, r = B.divmod b.num b.den in
    if B.is_zero r then q else B.succ q

let to_float = function
  | S (n, d) -> float_of_int n /. float_of_int d
  | Big b -> B.to_float b.num /. B.to_float b.den

let to_int_exn = function
  | S (n, 1) -> n
  | Big b when B.is_one b.den -> B.to_int b.num
  | S _ | Big _ -> failwith "Rat.to_int_exn: not an integer"

let to_string = function
  | S (n, 1) -> string_of_int n
  | S (n, d) -> string_of_int n ^ "/" ^ string_of_int d
  | Big b ->
    if B.is_one b.den then B.to_string b.num
    else B.to_string b.num ^ "/" ^ B.to_string b.den

let pp ppf t = Format.pp_print_string ppf (to_string t)

let of_string_big s =
  match String.index_opt s '/' with
  | Some i ->
    let n = B.of_string (String.sub s 0 i) in
    let d = B.of_string (String.sub s (i + 1) (String.length s - i - 1)) in
    if B.is_zero d then invalid_arg "Rat.of_string: zero denominator";
    make n d
  | None ->
    match String.index_opt s '.' with
    | None -> of_bigint (B.of_string s)
    | Some i ->
      let whole = String.sub s 0 i in
      let frac = String.sub s (i + 1) (String.length s - i - 1) in
      if frac = "" then invalid_arg "Rat.of_string: trailing dot"
      else if frac.[0] = '-' || frac.[0] = '+' then
        invalid_arg "Rat.of_string: signed fraction digits"
      else begin
        let negative = String.length whole > 0 && whole.[0] = '-' in
        let wpart = if whole = "" || whole = "-" || whole = "+" then B.zero
          else B.of_string whole in
        let scale = B.pow (B.of_int 10) (String.length frac) in
        let fpart = make (B.of_string frac) scale in
        let fpart = if negative then neg fpart else fpart in
        add (of_bigint wpart) fpart
      end

(* [s.[i .. stop-1]] appended to the digits [acc], or -1 on a
   non-digit *)
let rec digits_from s i stop acc =
  if i = stop then acc
  else
    match s.[i] with
    | '0' .. '9' as c -> digits_from s (i + 1) stop ((10 * acc) + Char.code c - 48)
    | _ -> -1

(* [s.[pos .. pos+len-1]] as a native int when it is 1 to 18 decimal
   digits (so below 10^18 < max_int), else -1. *)
let small_digits s pos len =
  if len < 1 || len > 18 then -1 else digits_from s pos (pos + len) 0

let rec pow10 k = if k = 0 then 1 else 10 * pow10 (k - 1)

(* the first '/' or '.' of [s.[i .. stop-1]], or [stop] *)
let rec sep_index s stop i =
  if i = stop then stop
  else match s.[i] with '/' | '.' -> i | _ -> sep_index s stop (i + 1)

let big_of_substring s pos len = of_string_big (String.sub s pos len)
let signed negative r = if negative then neg r else r

(* The shared small numbers: [shared_table.(n * 64 + d)] is the one
   canonical value of n/d for 0 <= n, d < 64 and d <> 0 (unreduced
   pairs share their reduced value), so the common values a parser
   reads allocate nothing.  Built once; reading one costs a range test. *)
let shared_table =
  let a = Array.make (64 * 64) zero in
  for n = 1 to 63 do
    for d = 1 to 63 do
      let g = gcd_int n d in
      (* a reduced pair with g > 1 lies in an earlier row *)
      a.((n * 64) + d) <- (if g = 1 then S (n, d) else a.((n / g * 64) + (d / g)))
    done
  done;
  a

let shared k = shared_table.(k)

let shared_index = function
  | S (n, d) when n >= 0 && n lor d < 64 -> (n * 64) + d
  | S _ | Big _ -> -1

(* n/d for 0 <= n and 1 <= d: from the table when both are below 64 *)
let small_ratio n d =
  if n lor d < 64 then shared_table.((n * 64) + d) else make_small n d

(* Native-int path for [[+-]a], [[+-]a/b] and [[+-]a.b] with at most 18
   digits per part and [b <> 0]; every other string, malformed ones
   included, takes [of_string_big], which owns the error messages.  The
   representation is canonical, so both paths build the same value.
   Top-level helpers only: a number costs no closure. *)
let of_substring s pos len =
  let stop = pos + len in
  let negative = len > 0 && s.[pos] = '-' in
  let start = if len > 0 && (negative || s.[pos] = '+') then pos + 1 else pos in
  let k = sep_index s stop start in
  let whole = small_digits s start (k - start) in
  if whole < 0 then big_of_substring s pos len
  else if k = stop then signed negative (small_ratio whole 1)
  else begin
    let flen = stop - k - 1 in
    let frac = small_digits s (k + 1) flen in
    if frac < 0 then big_of_substring s pos len
    else if s.[k] = '.' then begin
      let r = add (S (whole, 1)) (make_small frac (pow10 flen)) in
      let i = shared_index r in
      signed negative (if i < 0 then r else shared_table.(i))
    end
    else if frac = 0 then big_of_substring s pos len
    else signed negative (small_ratio whole frac)
  end

let of_string s = of_substring s 0 (String.length s)

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( ~- ) = neg
  let ( = ) = equal
  let ( <> ) a b = not (equal a b)
  let ( < ) a b = compare a b < 0
  let ( <= ) a b = compare a b <= 0
  let ( > ) a b = compare a b > 0
  let ( >= ) a b = compare a b >= 0
end

let sum l = List.fold_left add zero l

(* integers (zero included) leave the lcm alone: skip them *)
let lcm_denominators l =
  List.fold_left
    (fun acc r -> if is_integer r then acc else B.lcm acc (big_den r))
    B.one l
