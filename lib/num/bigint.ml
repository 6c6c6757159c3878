(* Sign-magnitude bignum in base 2^30.  All magnitude arrays are
   little-endian and normalised (no most-significant zero limb); the
   invariant [sign = 0 <=> mag = [||]] holds everywhere.  Base 2^30 keeps
   every intermediate product [limb * limb + limb + carry] strictly below
   2^62, hence inside OCaml's native 63-bit int. *)

let base_bits = 30
let base = 1 lsl base_bits
let mask = base - 1

type t = { sign : int; mag : int array }

let zero = { sign = 0; mag = [||] }

(* Strip most-significant zero limbs; fix the sign of a zero result. *)
let normalize sign mag =
  let n = Array.length mag in
  let rec top i = if i > 0 && mag.(i - 1) = 0 then top (i - 1) else i in
  let k = top n in
  if k = 0 then zero
  else if k = n then { sign; mag }
  else { sign; mag = Array.sub mag 0 k }

let of_int i =
  if i = 0 then zero
  else begin
    let sign = if i > 0 then 1 else -1 in
    (* min_int has no positive counterpart: split off one limb first. *)
    let rec limbs acc v =
      if v = 0 then List.rev acc
      else limbs ((v land mask) :: acc) (v lsr base_bits)
    in
    let v = if i = min_int then min_int else Stdlib.abs i in
    let v = if v < 0 then v land max_int else v in
    (* for min_int, [v land max_int] drops the sign bit: we add it back as
       an extra high limb below. *)
    let ls = limbs [] v in
    let mag = Array.of_list ls in
    if i = min_int then begin
      (* min_int = -(2^62); 62 = 2*30 + 2, so bit 62 lives in limb 2. *)
      let needed = 63 / base_bits + 1 in
      let m = Array.make needed 0 in
      Array.blit mag 0 m 0 (Array.length mag);
      m.(62 / base_bits) <- m.(62 / base_bits) lor (1 lsl (62 mod base_bits));
      normalize sign m
    end
    else { sign; mag }
  end

let one = of_int 1
let two = of_int 2
let minus_one = of_int (-1)

let sign t = t.sign
let is_zero t = t.sign = 0
let is_negative t = t.sign < 0

let compare_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let compare a b =
  if a.sign <> b.sign then Stdlib.compare a.sign b.sign
  else if a.sign >= 0 then compare_mag a.mag b.mag
  else compare_mag b.mag a.mag

let equal a b = compare a b = 0

let hash t =
  Array.fold_left (fun acc limb -> (acc * 1000003) lxor limb) t.sign t.mag

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let is_one t = t.sign = 1 && Array.length t.mag = 1 && t.mag.(0) = 1

(* --- magnitude arithmetic --- *)

let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let lr = Stdlib.max la lb + 1 in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 2 do
    let s =
      (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry
    in
    r.(i) <- s land mask;
    carry := s lsr base_bits
  done;
  r.(lr - 1) <- !carry;
  r

(* precondition: a >= b *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let s = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if s < 0 then begin
      r.(i) <- s + base;
      borrow := 1
    end
    else begin
      r.(i) <- s;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  r

let mul_mag_school a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make (la + lb) 0 in
  for i = 0 to la - 1 do
    let carry = ref 0 in
    let ai = a.(i) in
    for j = 0 to lb - 1 do
      let acc = r.(i + j) + (ai * b.(j)) + !carry in
      r.(i + j) <- acc land mask;
      carry := acc lsr base_bits
    done;
    r.(i + lb) <- r.(i + lb) + !carry
  done;
  r

(* Karatsuba above this limb count (~960 bits): split at m limbs,
   a = a1*B^m + a0, b = b1*B^m + b0, and
   a*b = z2*B^2m + (z1 - z2 - z0)*B^m + z0
   with z0 = a0*b0, z2 = a1*b1, z1 = (a0+a1)(b0+b1). *)
let karatsuba_threshold = 32

(* r[off..] += x, in place; r is large enough that the carry dies inside *)
let add_into r off x =
  let lx = Array.length x in
  let carry = ref 0 in
  let i = ref 0 in
  while !i < lx || !carry > 0 do
    let s = r.(off + !i) + (if !i < lx then x.(!i) else 0) + !carry in
    r.(off + !i) <- s land mask;
    carry := s lsr base_bits;
    incr i
  done

(* r[off..] -= x, in place; precondition: no global borrow escapes *)
let sub_into r off x =
  let lx = Array.length x in
  let borrow = ref 0 in
  let i = ref 0 in
  while !i < lx || !borrow > 0 do
    let s = r.(off + !i) - (if !i < lx then x.(!i) else 0) - !borrow in
    if s < 0 then begin
      r.(off + !i) <- s + base;
      borrow := 1
    end
    else begin
      r.(off + !i) <- s;
      borrow := 0
    end;
    incr i
  done

let rec mul_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else if Stdlib.min la lb <= karatsuba_threshold then mul_mag_school a b
  else begin
    let m = (Stdlib.max la lb + 1) / 2 in
    let lo x = Array.sub x 0 (Stdlib.min m (Array.length x)) in
    let hi x =
      if Array.length x <= m then [||]
      else Array.sub x m (Array.length x - m)
    in
    let a0 = lo a and a1 = hi a and b0 = lo b and b1 = hi b in
    let z0 = mul_mag a0 b0 in
    let z2 = mul_mag a1 b1 in
    let z1 = mul_mag (add_mag a0 a1) (add_mag b0 b1) in
    (* z1 carries the zero-padding of the operand sums, so the scratch
       array must cover m + |z1| (plus carry room) even when that
       exceeds the la+lb limbs of the true product *)
    let size =
      Stdlib.max (la + lb)
        (Stdlib.max (m + Array.length z1) ((2 * m) + Array.length z2))
      + 2
    in
    let r = Array.make size 0 in
    add_into r 0 z0;
    add_into r (2 * m) z2;
    add_into r m z1;
    sub_into r m z0;
    sub_into r m z2;
    (* everything above la+lb limbs has cancelled to zero *)
    Array.sub r 0 (la + lb)
  end

let neg t = if t.sign = 0 then t else { t with sign = -t.sign }
let abs t = if t.sign < 0 then { t with sign = 1 } else t

let rec add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then normalize a.sign (add_mag a.mag b.mag)
  else begin
    (* opposite signs: subtract the smaller magnitude from the larger *)
    let c = compare_mag a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then normalize a.sign (sub_mag a.mag b.mag)
    else normalize b.sign (sub_mag b.mag a.mag)
  end

and sub a b = add a (neg b)

let succ t = add t one

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero
  else normalize (a.sign * b.sign) (mul_mag a.mag b.mag)

let mul_schoolbook a b =
  if a.sign = 0 || b.sign = 0 then zero
  else normalize (a.sign * b.sign) (mul_mag_school a.mag b.mag)

(* --- division --- *)

(* Shift a magnitude left by [s] bits, 0 <= s < base_bits. *)
let shift_left_mag a s =
  if s = 0 then Array.copy a
  else begin
    let la = Array.length a in
    let r = Array.make (la + 1) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let v = (a.(i) lsl s) lor !carry in
      r.(i) <- v land mask;
      carry := v lsr base_bits
    done;
    r.(la) <- !carry;
    r
  end

(* Shift a magnitude right by [s] bits, 0 <= s < base_bits. *)
let shift_right_mag a s =
  if s = 0 then Array.copy a
  else begin
    let la = Array.length a in
    let r = Array.make la 0 in
    let carry = ref 0 in
    for i = la - 1 downto 0 do
      r.(i) <- (a.(i) lsr s) lor (!carry lsl (base_bits - s));
      carry := a.(i) land ((1 lsl s) - 1)
    done;
    r
  end

(* Divide a magnitude by one limb; returns (quotient, remainder limb). *)
let divmod_mag_1 a d =
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r lsl base_bits) lor a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (q, !r)

(* Knuth algorithm D on magnitudes; returns (quotient, remainder).
   Precondition: b <> 0. *)
let divmod_mag a b =
  let lb = Array.length b in
  if compare_mag a b < 0 then ([||], Array.copy a)
  else if lb = 1 then begin
    let q, r = divmod_mag_1 a b.(0) in
    (q, [| r |])
  end
  else begin
    (* Normalise so the top limb of the divisor is >= base/2. *)
    let rec nlz v s = if v land (base lsr 1) <> 0 then s else nlz (v lsl 1) (s + 1) in
    let s = nlz b.(lb - 1) 0 in
    let v = shift_left_mag b s in
    let v = if v.(Array.length v - 1) = 0 then Array.sub v 0 lb else v in
    let u = shift_left_mag a s in
    (* ensure u has an extra top limb *)
    let u =
      if u.(Array.length u - 1) = 0 then u
      else begin
        let u' = Array.make (Array.length u + 1) 0 in
        Array.blit u 0 u' 0 (Array.length u);
        u'
      end
    in
    let n = lb in
    let m = Array.length u - n - 1 in
    let q = Array.make (m + 1) 0 in
    let vtop = v.(n - 1) and vsnd = v.(n - 2) in
    for j = m downto 0 do
      let num = (u.(j + n) lsl base_bits) lor u.(j + n - 1) in
      let qhat = ref (num / vtop) and rhat = ref (num mod vtop) in
      let continue = ref true in
      while
        !continue
        && (!qhat >= base
            || !qhat * vsnd > (!rhat lsl base_bits) lor u.(j + n - 2))
      do
        decr qhat;
        rhat := !rhat + vtop;
        if !rhat >= base then continue := false
      done;
      (* multiply and subtract *)
      let carry = ref 0 and borrow = ref 0 in
      for i = 0 to n - 1 do
        let p = (!qhat * v.(i)) + !carry in
        carry := p lsr base_bits;
        let sb = u.(i + j) - (p land mask) - !borrow in
        if sb < 0 then begin
          u.(i + j) <- sb + base;
          borrow := 1
        end
        else begin
          u.(i + j) <- sb;
          borrow := 0
        end
      done;
      let top = u.(j + n) - !carry - !borrow in
      if top < 0 then begin
        (* add back: qhat was one too large *)
        decr qhat;
        let c = ref 0 in
        for i = 0 to n - 1 do
          let sum = u.(i + j) + v.(i) + !c in
          u.(i + j) <- sum land mask;
          c := sum lsr base_bits
        done;
        u.(j + n) <- (top + !c) land mask
      end
      else u.(j + n) <- top;
      q.(j) <- !qhat
    done;
    let r = shift_right_mag (Array.sub u 0 n) s in
    (q, r)
  end

let divmod a b =
  if b.sign = 0 then raise Division_by_zero
  else if a.sign = 0 then (zero, zero)
  else begin
    let qm, rm = divmod_mag a.mag b.mag in
    let q0 = normalize 1 qm and r0 = normalize 1 rm in
    (* Euclidean convention: 0 <= r < |b| *)
    match (a.sign > 0, b.sign > 0) with
    | true, true -> (q0, r0)
    | true, false -> (neg q0, r0)
    | false, true ->
      if is_zero r0 then (neg q0, zero)
      else (neg (succ q0), sub (abs b) r0)
    | false, false ->
      if is_zero r0 then (q0, zero) else (succ q0, sub (abs b) r0)
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let mul_int t i = mul t (of_int i)
let add_int t i = add t (of_int i)

let pow b e =
  if e < 0 then invalid_arg "Bigint.pow: negative exponent";
  let rec go acc b e =
    if e = 0 then acc
    else begin
      let acc = if e land 1 = 1 then mul acc b else acc in
      go acc (mul b b) (e lsr 1)
    end
  in
  go one b e

let gcd a b =
  let rec go a b = if is_zero b then a else go b (rem a b) in
  go (abs a) (abs b)

let lcm a b =
  if is_zero a || is_zero b then zero
  else begin
    let g = gcd a b in
    abs (mul (div a g) b)
  end

(* --- conversions --- *)

let min_int_big = of_int min_int

let to_int_opt t =
  (* At most 3 limbs (90 bits) could overflow; rebuild and verify. *)
  if equal t min_int_big then Some min_int
  else if Array.length t.mag > 3 then None
  else begin
    let v =
      Array.fold_right
        (fun limb acc ->
          if acc > (max_int - limb) lsr base_bits then raise Exit
          else (acc lsl base_bits) lor limb)
        t.mag 0
    in
    Some (t.sign * v)
  end

let to_int_opt t = try to_int_opt t with Exit -> None

let to_int t =
  match to_int_opt t with
  | Some v -> v
  | None -> failwith "Bigint.to_int: overflow"

let to_float t =
  let m =
    Array.fold_right
      (fun limb acc -> (acc *. float_of_int base) +. float_of_int limb)
      t.mag 0.
  in
  float_of_int t.sign *. m

let chunk_base = 1_000_000_000 (* 10^9 < 2^30 *)

let to_string t =
  if t.sign = 0 then "0"
  else begin
    let rec chunks acc mag =
      if Array.length mag = 0 then acc
      else begin
        let q, r = divmod_mag_1 mag chunk_base in
        let q = (normalize 1 q).mag in
        chunks (r :: acc) q
      end
    in
    match chunks [] t.mag with
    | [] -> "0"
    | first :: rest ->
      let buf = Buffer.create 16 in
      if t.sign < 0 then Buffer.add_char buf '-';
      Buffer.add_string buf (string_of_int first);
      List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest;
      Buffer.contents buf
  end

let pp ppf t = Format.pp_print_string ppf (to_string t)

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Bigint.of_string: empty string";
  let sign, start =
    match s.[0] with
    | '-' -> (-1, 1)
    | '+' -> (1, 1)
    | _ -> (1, 0)
  in
  if start >= len then invalid_arg "Bigint.of_string: no digits";
  String.iter
    (fun c -> if not (c >= '0' && c <= '9') then
        invalid_arg "Bigint.of_string: invalid character")
    (String.sub s start (len - start));
  let digits = len - start in
  let first = digits mod 9 in
  let acc = ref zero in
  let push chunk = acc := add (mul_int !acc chunk_base) (of_int chunk) in
  if first > 0 then push (int_of_string (String.sub s start first));
  let pos = ref (start + first) in
  while !pos < len do
    push (int_of_string (String.sub s !pos 9));
    pos := !pos + 9
  done;
  if sign < 0 then neg !acc else !acc

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( mod ) = rem
  let ( ~- ) = neg
  let ( = ) = equal
  let ( < ) a b = compare a b < 0
  let ( <= ) a b = compare a b <= 0
  let ( > ) a b = compare a b > 0
  let ( >= ) a b = compare a b >= 0
end
