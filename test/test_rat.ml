(* Tests for exact rationals and extended rationals. *)

module R = Rat
module B = Bigint
module E = Ext_rat

let r = R.of_ints
let ri = R.of_int

let rat = Alcotest.testable R.pp R.equal

let test_normalisation () =
  Alcotest.check rat "6/4 = 3/2" (r 3 2) (r 6 4);
  Alcotest.check rat "-6/4 = -3/2" (r (-3) 2) (r 6 (-4));
  Alcotest.check rat "0/5 = 0" R.zero (r 0 5);
  Alcotest.(check string) "den positive" "1/2" (R.to_string (r (-1) (-2)));
  Alcotest.(check string) "num carries sign" "-1/2" (R.to_string (r 1 (-2)))

let test_make_zero_den () =
  Alcotest.check_raises "0 denominator" Division_by_zero (fun () ->
      ignore (R.make B.one B.zero))

let test_arith () =
  Alcotest.check rat "1/2+1/3" (r 5 6) (R.add (r 1 2) (r 1 3));
  Alcotest.check rat "1/2-1/3" (r 1 6) (R.sub (r 1 2) (r 1 3));
  Alcotest.check rat "2/3*3/4" (r 1 2) (R.mul (r 2 3) (r 3 4));
  Alcotest.check rat "(1/2)/(1/4)" (ri 2) (R.div (r 1 2) (r 1 4));
  Alcotest.check rat "neg" (r (-1) 2) (R.neg (r 1 2));
  Alcotest.check rat "abs" (r 1 2) (R.abs (r (-1) 2));
  Alcotest.check rat "inv" (r 3 2) (R.inv (r 2 3));
  Alcotest.check rat "inv neg" (r (-3) 2) (R.inv (r (-2) 3));
  Alcotest.check rat "mul_int" (r 3 2) (R.mul_int (r 1 2) 3);
  Alcotest.check rat "div_int" (r 1 6) (R.div_int (r 1 2) 3)

let test_inv_zero () =
  Alcotest.check_raises "inv 0" Division_by_zero (fun () ->
      ignore (R.inv R.zero));
  Alcotest.check_raises "div by 0" Division_by_zero (fun () ->
      ignore (R.div R.one R.zero))

let test_floor_ceil () =
  let check_fc name x f c =
    Alcotest.(check string) (name ^ " floor") f (B.to_string (R.floor x));
    Alcotest.(check string) (name ^ " ceil") c (B.to_string (R.ceil x))
  in
  check_fc "7/2" (r 7 2) "3" "4";
  check_fc "-7/2" (r (-7) 2) "-4" "-3";
  check_fc "4/2" (ri 2) "2" "2";
  check_fc "-2" (ri (-2)) "-2" "-2";
  check_fc "0" R.zero "0" "0"

let test_compare () =
  Alcotest.(check bool) "1/3 < 1/2" true R.Infix.(r 1 3 < r 1 2);
  Alcotest.(check bool) "-1/2 < 1/3" true R.Infix.(r (-1) 2 < r 1 3);
  Alcotest.(check bool) "2/4 = 1/2" true R.Infix.(r 2 4 = r 1 2);
  Alcotest.check rat "min" (r 1 3) (R.min (r 1 3) (r 1 2));
  Alcotest.check rat "max" (r 1 2) (R.max (r 1 3) (r 1 2))

let test_of_string () =
  Alcotest.check rat "plain" (ri 5) (R.of_string "5");
  Alcotest.check rat "fraction" (r 3 4) (R.of_string "3/4");
  Alcotest.check rat "decimal" (r 5 2) (R.of_string "2.5");
  Alcotest.check rat "neg decimal" (r (-5) 2) (R.of_string "-2.5");
  Alcotest.check rat "neg frac below 1" (r (-1) 4) (R.of_string "-0.25");
  Alcotest.check rat "neg fraction" (r (-3) 4) (R.of_string "-3/4");
  List.iter
    (fun bad ->
      match R.of_string bad with
      | v -> Alcotest.failf "%S parsed as %s" bad (R.to_string v)
      | exception Invalid_argument _ -> ())
    [ "1/0"; "0/0"; "-7/000"; "1.-5"; "1.+5"; "1." ]

(* [Rat.of_string] through Bigint alone: the reading the native-int
   path must reproduce, value and error message alike *)
let big_of_string s =
  match String.index_opt s '/' with
  | Some i ->
    let n = B.of_string (String.sub s 0 i) in
    let d = B.of_string (String.sub s (i + 1) (String.length s - i - 1)) in
    if B.is_zero d then invalid_arg "Rat.of_string: zero denominator";
    R.make n d
  | None -> (
    match String.index_opt s '.' with
    | None -> R.of_bigint (B.of_string s)
    | Some i ->
      let whole = String.sub s 0 i in
      let frac = String.sub s (i + 1) (String.length s - i - 1) in
      if frac = "" then invalid_arg "Rat.of_string: trailing dot"
      else if frac.[0] = '-' || frac.[0] = '+' then
        invalid_arg "Rat.of_string: signed fraction digits"
      else begin
        let negative = String.length whole > 0 && whole.[0] = '-' in
        let wpart =
          if whole = "" || whole = "-" || whole = "+" then B.zero
          else B.of_string whole
        in
        let fpart =
          R.make (B.of_string frac) (B.pow (B.of_int 10) (String.length frac))
        in
        R.add (R.of_bigint wpart) (if negative then R.neg fpart else fpart)
      end)

let outcome f s =
  match f s with v -> Ok v | exception Invalid_argument m -> Error m

let same_outcome a b =
  match (a, b) with
  | Ok x, Ok y -> R.equal x y
  | Error m, Error m' -> m = m'
  | Ok _, Error _ | Error _, Ok _ -> false

let show = function Ok v -> R.to_string v | Error m -> "error: " ^ m

(* boundary cases of the native-int path (18 digits per part) and seeded
   random strings over the number alphabet; [of_substring] is checked
   inside a longer string *)
let test_of_string_native_path () =
  let check s =
    let want = outcome big_of_string s in
    let embedded t =
      R.of_substring ("x/" ^ t ^ ".9") 2 (String.length t)
    in
    List.iter
      (fun (what, f) ->
        let got = outcome f s in
        if not (same_outcome want got) then
          Alcotest.failf "%s %S: %s, Bigint path: %s" what s (show got)
            (show want))
      [ ("of_string", R.of_string); ("of_substring", embedded) ]
  in
  List.iter check
    [ "999999999999999999"; "-999999999999999999"; "1000000000000000000";
      "-1000000000000000000"; "4611686018427387903"; "4611686018427387904";
      "4611686018427387902"; "-4611686018427387904"; "-4611686018427387905";
      "+3"; "-0"; "+0"; "007"; "-007"; "0/5"; "-0/5"; "1/0"; "0/0"; "-1/0";
      "1/-0"; "1/999999999999999999"; "999999999999999999/999999999999999998";
      "1/1000000000000000000"; "4611686018427387903/4611686018427387903";
      "2.5"; "-2.5"; "+2.5"; "0.5"; "-0.5"; "-0.0"; "0.000000000000000001";
      "0.0000000000000000001"; "999999999999999999.999999999999999999";
      "999999999999999999.9999999999999999999"; "1.50"; "007.070"; ".5";
      "-.5"; "+.5"; "5."; "1.-5"; "1.+5"; "1/-2"; "-1/-2"; "1/+2"; "+1/2";
      "1/2/3"; "1.5.5"; "1/2.5"; "2.5/2"; ""; "+"; "-"; "/"; "."; "/2"; "2/";
      "1e5"; "inf"; " 1"; "1 "; "1\r"; "\r1"; "+-1"; "--1"; "0x10" ];
  let g = Faults.generator ~seed:19 in
  let alphabet = "0123456789000999/.-+ x" in
  for _ = 1 to 20_000 do
    let len = Faults.rand_int g 24 in
    check
      (String.init len (fun _ ->
           alphabet.[Faults.rand_int g (String.length alphabet)]))
  done;
  (* Ext_rat reads in place only what it would not trim or call [inf] *)
  List.iter
    (fun s ->
      let want = match E.of_string s with v -> Ok v | exception Invalid_argument m -> Error m in
      let got =
        match E.of_substring ("x" ^ s ^ "y") 1 (String.length s) with
        | v -> Ok v
        | exception Invalid_argument m -> Error m
      in
      let ok =
        match (want, got) with
        | Ok a, Ok b -> E.equal a b
        | Error m, Error m' -> m = m'
        | Ok _, Error _ | Error _, Ok _ -> false
      in
      if not ok then Alcotest.failf "Ext_rat.of_substring %S" s)
    [ "2"; "inf"; "INF"; "+inf"; "oo"; "2\012"; " 2"; "1E5"; "1e5"; "3/4";
      "-3"; "0"; "1/0"; "9999999999999999999"; "" ]

let test_to_string () =
  Alcotest.(check string) "int" "5" (R.to_string (ri 5));
  Alcotest.(check string) "frac" "3/4" (R.to_string (r 3 4));
  Alcotest.(check string) "neg" "-3/4" (R.to_string (r (-3) 4))

let test_sum_lcm () =
  Alcotest.check rat "sum" (r 11 6) (R.sum [ r 1 2; r 1 3; ri 1 ]);
  Alcotest.check rat "sum empty" R.zero (R.sum []);
  Alcotest.(check string) "lcm dens" "12"
    (B.to_string (R.lcm_denominators [ r 1 4; r 1 6; ri 2 ]));
  Alcotest.(check string) "lcm empty" "1" (B.to_string (R.lcm_denominators []))

let test_to_float_int () =
  Alcotest.(check (float 1e-12)) "3/4" 0.75 (R.to_float (r 3 4));
  Alcotest.(check int) "int exn" 7 (R.to_int_exn (ri 7));
  Alcotest.(check bool) "not int" true
    (try ignore (R.to_int_exn (r 1 2)); false with Failure _ -> true)

(* --- Ext_rat --- *)

let test_ext_basic () =
  Alcotest.(check bool) "inf is inf" true (E.is_inf E.inf);
  Alcotest.(check bool) "fin not inf" true (E.is_finite (E.of_int 3));
  Alcotest.(check bool) "inf > all" true (E.compare E.inf (E.of_int max_int) > 0);
  Alcotest.(check bool) "inf = inf" true (E.equal E.inf E.inf);
  Alcotest.(check string) "x+inf" "inf" (E.to_string (E.add (E.of_int 1) E.inf));
  Alcotest.(check string) "inv inf = 0" "0" (E.to_string (E.inv E.inf));
  Alcotest.(check string) "3*inf" "inf" (E.to_string (E.mul (E.of_int 3) E.inf));
  Alcotest.(check bool) "0*inf raises" true
    (try ignore (E.mul E.zero E.inf); false with Invalid_argument _ -> true);
  Alcotest.(check string) "parse inf" "inf" (E.to_string (E.of_string "inf"));
  Alcotest.(check string) "parse 3/4" "3/4" (E.to_string (E.of_string "3/4"));
  Alcotest.(check bool) "fin_exn raises" true
    (try ignore (E.fin_exn E.inf); false with Invalid_argument _ -> true)

(* --- properties --- *)

let gen_rat =
  QCheck.Gen.(
    map2
      (fun n d -> R.of_ints n (if d = 0 then 1 else d))
      (int_range (-10000) 10000)
      (int_range 1 10000))

let arb_rat = QCheck.make ~print:R.to_string gen_rat

let prop_add_comm =
  QCheck.Test.make ~name:"rat add commutative" ~count:500
    (QCheck.pair arb_rat arb_rat) (fun (x, y) ->
      R.equal (R.add x y) (R.add y x))

let prop_field =
  QCheck.Test.make ~name:"x * inv x = 1" ~count:500 arb_rat (fun x ->
      QCheck.assume (not (R.is_zero x));
      R.equal R.one (R.mul x (R.inv x)))

let prop_add_sub_inverse =
  QCheck.Test.make ~name:"(x+y)-y = x" ~count:500
    (QCheck.pair arb_rat arb_rat) (fun (x, y) ->
      R.equal x (R.sub (R.add x y) y))

let prop_distrib =
  QCheck.Test.make ~name:"distributivity" ~count:300
    (QCheck.triple arb_rat arb_rat arb_rat) (fun (x, y, z) ->
      R.equal (R.mul x (R.add y z)) (R.add (R.mul x y) (R.mul x z)))

let prop_normalised =
  QCheck.Test.make ~name:"results are normalised" ~count:500
    (QCheck.pair arb_rat arb_rat) (fun (x, y) ->
      let z = R.add (R.mul x y) (R.sub x y) in
      B.is_one (B.gcd (R.num z) (R.den z)) || R.is_zero z)

let prop_floor_le =
  QCheck.Test.make ~name:"floor <= x < floor+1" ~count:500 arb_rat (fun x ->
      let f = R.of_bigint (R.floor x) in
      R.Infix.(f <= x) && R.Infix.(x < R.add f R.one))

let prop_string_roundtrip =
  QCheck.Test.make ~name:"rat of_string ∘ to_string" ~count:500 arb_rat
    (fun x -> R.equal x (R.of_string (R.to_string x)))

let prop_lcm_clears =
  QCheck.Test.make ~name:"lcm of denominators clears fractions" ~count:200
    (QCheck.list_of_size (QCheck.Gen.int_range 1 8) arb_rat) (fun l ->
      let m = R.lcm_denominators l in
      List.for_all (fun x -> R.is_integer (R.mul x (R.of_bigint m))) l)

(* --- small-int fast path vs Bigint ground truth ---

   [Rat.t] carries small-int rationals on a tagged native-int fast path
   with overflow-checked arithmetic and a Bigint fallback.  These
   properties recompute every operation through [Bigint] cross products
   (no fast path involved: [R.make] reduces a raw bigint pair) and
   demand identical results, on operands whose components are drawn
   right up to [max_int] so the overflow certification and the fallback
   both get exercised. *)

let ref_add x y =
  R.make
    (B.add (B.mul (R.num x) (R.den y)) (B.mul (R.num y) (R.den x)))
    (B.mul (R.den x) (R.den y))

let ref_sub x y =
  R.make
    (B.sub (B.mul (R.num x) (R.den y)) (B.mul (R.num y) (R.den x)))
    (B.mul (R.den x) (R.den y))

let ref_mul x y =
  R.make (B.mul (R.num x) (R.num y)) (B.mul (R.den x) (R.den y))

let ref_div x y =
  R.make (B.mul (R.num x) (R.den y)) (B.mul (R.den x) (R.num y))

let ref_compare x y =
  B.compare (B.mul (R.num x) (R.den y)) (B.mul (R.num y) (R.den x))

(* ints spanning the whole native range, weighted toward the overflow
   boundaries: tiny values, values within a few units of +-max_int,
   square-root-of-max_int magnitudes (the multiply boundary), and
   uniform bits *)
let gen_boundary_int =
  QCheck.Gen.(
    oneof
      [
        int_range (-100) 100;
        map (fun k -> max_int - k) (int_range 0 3);
        map (fun k -> -max_int + k) (int_range 0 3);
        (let sq = 1 lsl 31 in
         map2 (fun s k -> if s then sq + k else -sq - k) bool
           (int_range (-50) 50));
        map (fun b -> b lor 1) (int_bound max_int);
        map (fun b -> -(b lor 1)) (int_bound max_int);
      ])

let gen_rat_wide =
  QCheck.Gen.(
    map2
      (fun n d -> R.of_ints n (if d = 0 then 1 else d))
      gen_boundary_int gen_boundary_int)

let arb_rat_wide = QCheck.make ~print:R.to_string gen_rat_wide

let prop_wide_ops_match_bigint =
  QCheck.Test.make ~name:"small path = Bigint ground truth (ops)" ~count:1000
    (QCheck.pair arb_rat_wide arb_rat_wide) (fun (x, y) ->
      R.equal (R.add x y) (ref_add x y)
      && R.equal (R.sub x y) (ref_sub x y)
      && R.equal (R.mul x y) (ref_mul x y)
      && (R.is_zero y || R.equal (R.div x y) (ref_div x y)))

(* the fused multiply-subtract behind the LU/eta row operations: must
   equal its two-step spelling on every path (small, overflow, Big) *)
let prop_submul_fused =
  QCheck.Test.make ~name:"submul a b c = a - b*c (incl. wide operands)"
    ~count:1000
    (QCheck.triple arb_rat_wide arb_rat_wide arb_rat_wide) (fun (a, b, c) ->
      R.equal (R.submul a b c) (R.sub a (R.mul b c)))

let prop_wide_compare_matches_bigint =
  QCheck.Test.make ~name:"small path = Bigint ground truth (compare)"
    ~count:1000
    (QCheck.pair arb_rat_wide arb_rat_wide) (fun (x, y) ->
      R.compare x y = ref_compare x y
      && R.equal x y = (ref_compare x y = 0))

(* same-denominator and opposite-sign pairs hit the dedicated compare
   fast paths; the ground truth must not notice *)
let prop_compare_fast_paths =
  QCheck.Test.make ~name:"compare fast paths (equal den, opposite sign)"
    ~count:1000
    (QCheck.triple (QCheck.make gen_boundary_int) (QCheck.make gen_boundary_int)
       (QCheck.make QCheck.Gen.(int_range 1 1000)))
    (fun (n1, n2, d) ->
      let x = R.of_ints n1 d and y = R.of_ints n2 d in
      R.compare x y = ref_compare x y
      && R.compare (R.neg (R.abs x)) (R.abs y)
         = ref_compare (R.neg (R.abs x)) (R.abs y))

(* every result must be canonical: small representation whenever both
   reduced components fit a native int (min_int excluded), so that
   structural equality keeps coinciding with numeric equality *)
let prop_canonical_representation =
  QCheck.Test.make ~name:"results canonically small" ~count:1000
    (QCheck.pair arb_rat_wide arb_rat_wide) (fun (x, y) ->
      let canonical z =
        let small_possible =
          match (B.to_int_opt (R.num z), B.to_int_opt (R.den z)) with
          | Some n, Some d -> n <> min_int && d <> min_int
          | _ -> false
        in
        R.fits_small z = small_possible
      in
      canonical (R.add x y) && canonical (R.mul x y) && canonical (R.sub x y))

let test_overflow_boundaries () =
  let big = ri max_int in
  (* additions that overflow native ints take the Bigint path... *)
  let s = R.add big R.one in
  Alcotest.(check bool) "max_int+1 overflows to Big" false (R.fits_small s);
  Alcotest.(check string) "max_int+1 value" "4611686018427387904"
    (R.to_string s);
  (* ...and shrink back to the small representation when they cancel *)
  let back = R.sub s R.one in
  Alcotest.(check bool) "back to small" true (R.fits_small back);
  Alcotest.check rat "round trip" big back;
  Alcotest.check rat "big/big = 1" R.one (R.div s s);
  (* min_int never inhabits the small arm: its negation/abs would
     overflow *)
  let m = R.of_ints min_int 1 in
  Alcotest.(check bool) "min_int is Big" false (R.fits_small m);
  Alcotest.check rat "neg min_int" (R.neg m) (R.add big R.one);
  Alcotest.check rat "min_int via make" m (R.make (B.of_int min_int) B.one);
  (* multiply across the 62-bit boundary (max_int = 2^62 - 1) *)
  Alcotest.(check bool) "2^30 * 2^30 stays small" true
    (R.fits_small (R.mul (ri (1 lsl 30)) (ri (1 lsl 30))));
  let sq = ri (1 lsl 31) in
  Alcotest.(check bool) "2^31 * 2^31 overflows" false
    (R.fits_small (R.mul sq sq));
  Alcotest.check rat "overflowed product exact"
    (R.make (B.mul (B.of_int (1 lsl 31)) (B.of_int (1 lsl 31))) B.one)
    (R.mul sq sq)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  ( "rat",
    [
      Alcotest.test_case "normalisation" `Quick test_normalisation;
      Alcotest.test_case "zero denominator" `Quick test_make_zero_den;
      Alcotest.test_case "arithmetic" `Quick test_arith;
      Alcotest.test_case "inv zero" `Quick test_inv_zero;
      Alcotest.test_case "floor/ceil" `Quick test_floor_ceil;
      Alcotest.test_case "compare" `Quick test_compare;
      Alcotest.test_case "of_string" `Quick test_of_string;
      Alcotest.test_case "of_string native path" `Quick
        test_of_string_native_path;
      Alcotest.test_case "to_string" `Quick test_to_string;
      Alcotest.test_case "sum/lcm" `Quick test_sum_lcm;
      Alcotest.test_case "to_float/int" `Quick test_to_float_int;
      Alcotest.test_case "ext_rat" `Quick test_ext_basic;
      q prop_add_comm;
      q prop_field;
      q prop_add_sub_inverse;
      q prop_distrib;
      q prop_normalised;
      q prop_floor_le;
      q prop_string_roundtrip;
      q prop_lcm_clears;
      Alcotest.test_case "overflow boundaries" `Quick test_overflow_boundaries;
      q prop_wide_ops_match_bigint;
      q prop_submul_fused;
      q prop_wide_compare_matches_bigint;
      q prop_compare_fast_paths;
      q prop_canonical_representation;
    ] )
