(* Exact-optimum regression tests for the simplex kernel against the
   seed kernels.

   [Simplex_dense_reference] and [Revised_dense_reference] are verbatim
   snapshots of the seed kernels.  The current kernel starts from a
   crash basis instead of the seed's all-artificial one, so it may land
   on a different optimal vertex; what must hold on every instance is
   the same exact objective as both snapshots, and an optimality
   certificate for the answer: [Lp.certify] on the model-level solve,
   and on the kernel's own standard-form output primal feasibility,
   dual feasibility and strong duality.  We replay the exact
   standard-form instances ([Lp.standard_form]) that the paper's
   Figure 1-3 LPs and some random general graphs produce. *)

module R = Rat
module P = Platform

let rat = Alcotest.testable R.pp R.equal

(* (display name, current-kernel rule, seed-snapshot rule) *)
let rules =
  [
    ("bland", Simplex.Bland, Simplex_dense_reference.Bland);
    ("dantzig", Simplex.Dantzig, Simplex_dense_reference.Dantzig);
  ]

(* (name, model, expected exact optimum if it is a paper value) *)
let instances () =
  let fig1 = Platform_gen.figure1 () in
  let fig2, src, tgts = Platform_gen.multicast_fig2 () in
  let everyone = List.filter (fun i -> i <> src) (P.nodes fig2) in
  let ms p = fst (Master_slave.solve_lp_only p ~master:0) in
  [
    ("fig1 master-slave", ms fig1, Some (R.of_ints 4 3));
    ( "fig2 scatter sum-LP",
      Collective.model Collective.Sum fig2 ~source:src ~targets:tgts,
      Some (R.of_ints 1 2) );
    ( "fig2 multicast max-LP",
      Collective.model Collective.Max fig2 ~source:src ~targets:tgts,
      Some R.one );
    ( "fig2 broadcast max-LP",
      Collective.model Collective.Max fig2 ~source:src ~targets:everyone,
      Some (R.of_ints 1 2) );
    ( "random graph (seed 13)",
      ms (Platform_gen.random_graph ~seed:13 ~nodes:8 ~extra_edges:5 ()),
      None );
    ( "random graph (seed 99)",
      ms (Platform_gen.random_graph ~seed:99 ~nodes:10 ~extra_edges:8 ()),
      None );
  ]

(* x >= 0, a x = b, c - a^T y >= 0 and c . x = b . y, exactly *)
let std_certified a b c values duals =
  let dot u v =
    let acc = ref R.zero in
    Array.iteri (fun i x -> acc := R.add !acc (R.mul x v.(i))) u;
    !acc
  in
  Array.for_all (fun x -> R.sign x >= 0) values
  && Array.for_all2 (fun row bi -> R.equal (dot row values) bi) a b
  && Array.for_all
       (fun j ->
         let ay = ref R.zero in
         Array.iteri (fun i row -> ay := R.add !ay (R.mul row.(j) duals.(i))) a;
         R.sign (R.sub c.(j) !ay) >= 0)
       (Array.init (Array.length c) Fun.id)
  && R.equal (dot c values) (dot b duals)

let check_tableau name m =
  let rows, b, c = Lp.standard_form m in
  let a = Dense_std.densify ~n:(Array.length c) rows in
  List.iter
    (fun (rname, rule, seed_rule) ->
      let label what = Printf.sprintf "%s/%s tableau %s" name rname what in
      match
        ( Simplex_dense_reference.minimize ~rule:seed_rule ~a ~b ~c (),
          Simplex.minimize ~rule ~rows ~b ~c () )
      with
      | ( Simplex_dense_reference.Optimal r,
          Simplex.Optimal { values; objective; duals; _ } ) ->
        Alcotest.check rat (label "objective") r.objective objective;
        Alcotest.(check bool) (label "certified") true
          (std_certified a b c values duals)
      | _ -> Alcotest.fail (label "both Optimal"))
    rules

let check_revised name m =
  let rows, b, c = Lp.standard_form m in
  let a = Dense_std.densify ~n:(Array.length c) rows in
  List.iter
    (fun (rname, rule, _) ->
      let label what = Printf.sprintf "%s/%s revised %s" name rname what in
      match
        ( Revised_dense_reference.minimize ~rule ~a ~b ~c (),
          Simplex.minimize ~rule ~rows ~b ~c () )
      with
      | ( Revised_dense_reference.Optimal r,
          Simplex.Optimal { objective; _ } ) ->
        Alcotest.check rat (label "objective") r.objective objective
      | _ -> Alcotest.fail (label "both Optimal"))
    rules

(* the model-level optimum is the paper's exact rational — the seed's
   golden values must survive the optimisations unchanged *)
let check_optimum name m expected =
  match expected with
  | None -> ()
  | Some v -> (
    match Lp.solve m with
    | Lp.Optimal sol ->
      Alcotest.check rat (name ^ " optimum") v sol.Lp.objective
    | _ -> Alcotest.fail (name ^ ": not optimal"))

let check_certified name m =
  match Lp.solve m with
  | Lp.Optimal sol -> (
    match Lp.certify m sol with
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s: certificate rejected: %s" name e)
  | _ -> Alcotest.fail (name ^ ": not optimal")

let test_bit_identical () =
  List.iter
    (fun (name, m, expected) ->
      check_tableau name m;
      check_revised name m;
      check_optimum name m expected;
      check_certified name m)
    (instances ())

(* --- the packed tableau against the boxed one ---

   [Simplex.minimize] runs the packed tableau and restarts on the boxed
   one when a value leaves the packed range.  Both hold canonical
   values, so they must agree on everything: the outcome, and for an
   optimum the values, objective, duals and pivot count. *)

let same_outcome a b =
  match (a, b) with
  | Simplex.Optimal x, Simplex.Optimal y ->
    Array.for_all2 R.equal x.values y.values
    && R.equal x.objective y.objective
    && Array.for_all2 R.equal x.duals y.duals
    && x.pivots = y.pivots
  | Simplex.Infeasible, Simplex.Infeasible | Simplex.Unbounded, Simplex.Unbounded
    ->
    true
  | _ -> false

type std = { rows : Simplex.row array; b : R.t array; c : R.t array }

let print_std { rows; b; c } =
  let rats a = String.concat " " (Array.to_list (Array.map R.to_string a)) in
  String.concat "\n"
    (Array.to_list
       (Array.mapi
          (fun i (cols, vals) ->
            Printf.sprintf "row %d: cols [%s] vals [%s] = %s" i
              (String.concat " " (Array.to_list (Array.map string_of_int cols)))
              (rats vals) (R.to_string b.(i)))
          rows)
    @ [ "c: " ^ rats c ])

(* A random sparse standard form: 1-6 rows of 1-4 nonzero small
   rationals over 1-7 columns, and half the time a column of its own per
   row (a crash candidate when its coefficient is positive).  [b] is
   [A x0] for a sparse [x0 >= 0] two times in three — feasible, and
   degenerate where [x0] has zeros — and random otherwise, which is
   often infeasible; costs of both signs make some instances
   unbounded. *)
let gen_std : std QCheck.Gen.t =
 fun st ->
  let int lo hi = lo + Random.State.int st (hi - lo + 1) in
  let nonzero () = match int (-6) 5 with 0 -> 6 | k -> k in
  let small () = R.of_ints (nonzero ()) (int 1 4) in
  let m = int 1 6 and n0 = int 1 7 in
  let own = Random.State.bool st in
  let n = if own then n0 + m else n0 in
  let rows =
    Array.init m (fun i ->
        let cols =
          List.sort_uniq compare (List.init (int 1 (min 4 n0)) (fun _ -> int 0 (n0 - 1)))
        in
        let cols = Array.of_list (if own then cols @ [ n0 + i ] else cols) in
        (cols, Array.map (fun _ -> small ()) cols))
  in
  let b =
    if int 0 2 = 0 then Array.init m (fun _ -> R.of_ints (int (-5) 5) (int 1 3))
    else begin
      let x0 =
        Array.init n (fun _ ->
            if Random.State.bool st then R.zero else R.of_ints (int 1 5) (int 1 3))
      in
      Array.map
        (fun (cols, vals) ->
          let acc = ref R.zero in
          Array.iteri (fun k j -> acc := R.add !acc (R.mul vals.(k) x0.(j))) cols;
          !acc)
        rows
    end
  in
  { rows; b; c = Array.init n (fun _ -> R.of_ints (int (-4) 6) (int 1 3)) }

(* The two tableaux share one driver, so a driver bug would show on
   both alike; the seed kernel is the independent third side.  The
   outcome must match its status and objective, and an optimum must
   carry its certificate. *)
let agrees_with_seed rule { rows; b; c } outcome =
  let a = Dense_std.densify ~n:(Array.length c) rows in
  let rule =
    match rule with
    | Simplex.Bland -> Simplex_dense_reference.Bland
    | Simplex.Dantzig -> Simplex_dense_reference.Dantzig
  in
  match (Simplex_dense_reference.minimize ~rule ~a ~b ~c (), outcome) with
  | Simplex_dense_reference.Optimal r, Simplex.Optimal { values; objective; duals; _ } ->
    R.equal r.objective objective && std_certified a b c values duals
  | Simplex_dense_reference.Infeasible, Simplex.Infeasible
  | Simplex_dense_reference.Unbounded, Simplex.Unbounded ->
    true
  | _ -> false

let packed_eq_boxed rule ({ rows; b; c } as inst) =
  let boxed = Simplex.minimize_boxed ~rule ~rows ~b ~c () in
  agrees_with_seed rule inst boxed
  && same_outcome (Simplex.minimize_packed ~rule ~rows ~b ~c ()) boxed
  && same_outcome (Simplex.minimize ~rule ~rows ~b ~c ()) boxed

let prop_packed_eq_boxed =
  QCheck.Test.make ~name:"packed tableau = boxed tableau (random sparse LPs)"
    ~count:1000 (QCheck.make ~print:print_std gen_std) (fun inst ->
      packed_eq_boxed Simplex.Dantzig inst && packed_eq_boxed Simplex.Bland inst)

(* the generator reaches every outcome *)
let test_generator_covers_outcomes () =
  let st = Random.State.make [| 28 |] in
  let optimal = ref 0 and infeasible = ref 0 and unbounded = ref 0 in
  for _ = 1 to 400 do
    let { rows; b; c } = gen_std st in
    match Simplex.minimize_boxed ~rows ~b ~c () with
    | Simplex.Optimal _ -> incr optimal
    | Simplex.Infeasible -> incr infeasible
    | Simplex.Unbounded -> incr unbounded
  done;
  List.iter
    (fun (what, k) -> Alcotest.(check bool) (what ^ " instances drawn") true (k > 20))
    [ ("optimal", !optimal); ("infeasible", !infeasible); ("unbounded", !unbounded) ]

(* Beale's cycling example from its slack basis (columns 4-6), with
   its rows scaled by [scale] (slacks included: the crash basis divides
   the factor out again) and its columns 0-3 permuted by [perm].  Plain
   Dantzig cycles on it, so the kernel's stall detection must switch to
   Bland: a Dantzig solve takes more pivots than [rows + columns], the
   stall limit. *)
let beale ~perm ~scale =
  let r = R.of_ints and ri = R.of_int in
  let coefs =
    [|
      [ (0, r 1 4); (1, ri (-60)); (2, r (-1) 25); (3, ri 9) ];
      [ (0, r 1 2); (1, ri (-90)); (2, r (-1) 50); (3, ri 3) ];
      [ (2, R.one) ];
    |]
  in
  let rows =
    Array.mapi
      (fun i entries ->
        let entries =
          List.sort compare
            ((4 + i, R.one) :: List.map (fun (k, v) -> (perm.(k), v)) entries)
        in
        ( Array.of_list (List.map fst entries),
          Array.of_list (List.map (fun (_, v) -> R.mul scale.(i) v) entries) ))
      coefs
  in
  let c = Array.make 7 R.zero in
  List.iter
    (fun (k, v) -> c.(perm.(k)) <- v)
    [ (0, r (-3) 4); (1, ri 150); (2, r (-1) 50); (3, ri 6) ];
  { rows; b = [| R.zero; R.zero; scale.(2) |]; c }

let test_degenerate_bland_switch () =
  let st = Random.State.make [| 5 |] in
  let variants =
    (Array.init 4 Fun.id, Array.make 3 R.one)
    :: List.init 30 (fun _ ->
           let perm = Array.init 4 Fun.id in
           for i = 3 downto 1 do
             let j = Random.State.int st (i + 1) in
             let t = perm.(i) in
             perm.(i) <- perm.(j);
             perm.(j) <- t
           done;
           ( perm,
             Array.init 3 (fun _ ->
                 R.of_ints (1 + Random.State.int st 9) (1 + Random.State.int st 9)) ))
  in
  List.iteri
    (fun k (perm, scale) ->
      let ({ rows; b; c } as inst) = beale ~perm ~scale in
      Alcotest.(check bool) (Printf.sprintf "variant %d: packed = boxed" k) true
        (packed_eq_boxed Simplex.Dantzig inst && packed_eq_boxed Simplex.Bland inst);
      match Simplex.minimize ~rows ~b ~c () with
      | Simplex.Optimal { objective; pivots; _ } ->
        Alcotest.check rat (Printf.sprintf "variant %d: optimum" k)
          (R.of_ints (-1) 20) objective;
        if k = 0 then
          Alcotest.(check bool) "Dantzig stalled into Bland" true (pivots > 3 + 7)
      | Simplex.Infeasible | Simplex.Unbounded -> Alcotest.fail "Beale: not optimal")
    variants

(* Five equality rows of rank two over columns 0-2, none owning a crash
   column: row 2 is row 0 times [k], row 3 the sum of rows 0 and 1, and
   row 4 row 1 twice.  Phase 1 leaves three artificials basic on rows
   with no structural nonzero, and the drive-out drops them.  Beale's
   rows ride along on columns 3-9: a kept redundant row changes no cell
   of the answer, only the stall limit [rows + columns] of Dantzig's
   switch to Bland, which Beale's cycling reaches, so the pinned pivot
   count sees the drop (33 pivots with the three rows kept). *)
let redundant k =
  let r = R.of_int in
  let block =
    [
      (([| 0; 1 |], [| r 1; r 1 |]), r 1);
      (([| 1; 2 |], [| r 1; r 1 |]), r 1);
      (([| 0; 1 |], [| k; k |]), k);
      (([| 0; 1; 2 |], [| r 1; r 2; r 1 |]), r 2);
      (([| 1; 2 |], [| r 2; r 2 |]), r 2);
    ]
  in
  let bl = beale ~perm:(Array.init 4 Fun.id) ~scale:(Array.make 3 R.one) in
  {
    rows =
      Array.append
        (Array.of_list (List.map fst block))
        (Array.map (fun (cols, vals) -> (Array.map (( + ) 3) cols, vals)) bl.rows);
    b = Array.append (Array.of_list (List.map snd block)) bl.b;
    c = Array.append [| r 1; r 2; R.zero |] bl.c;
  }

let test_redundant_rows_dropped () =
  let vertex =
    Array.map R.of_string [| "1"; "0"; "1"; "1/25"; "0"; "1"; "0"; "3/100"; "0"; "0" |]
  in
  List.iter
    (fun (name, k, restart, pivots) ->
      let ({ rows; b; c } as inst) = redundant k in
      let a = Dense_std.densify ~n:(Array.length c) rows in
      Alcotest.(check bool) (name ^ ": restarts") restart
        (match Simplex.minimize_packed ~rows ~b ~c () with
        | _ -> false
        | exception Simplex.Packed.Range -> true);
      Alcotest.(check bool) (name ^ ": packed = boxed = seed") true
        (restart || packed_eq_boxed Simplex.Dantzig inst);
      List.iter
        (fun (side, solve) ->
          match solve () with
          | Simplex.Optimal { values; objective; duals; pivots = p } ->
            let label what = Printf.sprintf "%s, %s: %s" name side what in
            Alcotest.(check int) (label "pivots") pivots p;
            Alcotest.(check (array rat)) (label "vertex") vertex values;
            Alcotest.check rat (label "objective") (R.of_ints 19 20) objective;
            Alcotest.(check int) (label "a dual per row") (Array.length b)
              (Array.length duals);
            Alcotest.(check bool) (label "certified") true
              (std_certified a b c values duals)
          | Simplex.Infeasible | Simplex.Unbounded ->
            Alcotest.failf "%s, %s: not optimal" name side)
        ((if restart then []
          else [ ("packed", fun () -> Simplex.minimize_packed ~rows ~b ~c ()) ])
        @ [
            ("boxed", fun () -> Simplex.minimize_boxed ~rows ~b ~c ());
            ("minimize", fun () -> Simplex.minimize ~rows ~b ~c ());
          ]))
    [ ("in range", R.of_int 3, false, 27); ("2^31", R.of_int (1 lsl 31), true, 27) ]

(* --- the restart rule --- *)

let limit = 1 lsl 30

let std_of_lists rows b c =
  {
    rows = Array.of_list (List.map (fun (cols, vals) -> (Array.of_list cols, Array.of_list vals)) rows);
    b = Array.of_list b;
    c = Array.of_list c;
  }

(* [min -x] subject to [a x + s = a] (so x <= 1), for a coefficient
   [a > 0], and [min a x] subject to [x + s = 1] for any [a]: both have
   their optimum at x = 1 *)
let row_instance a =
  std_of_lists [ ([ 0; 1 ], [ a; R.one ]) ] [ a ] [ R.minus_one; R.zero ]

let cost_instance a = std_of_lists [ ([ 0; 1 ], [ R.one; R.one ]) ] [ R.one ] [ a; R.zero ]

(* inputs in range, but the pivot on row 0 (x <= 3) sets row 1's
   slack to [3 * 2^29 + 1] *)
let growth_instance =
  let big = R.of_int (1 lsl 29) in
  std_of_lists
    [ ([ 0; 1 ], [ R.one; R.one ]); ([ 0; 2 ], [ R.neg big; R.one ]) ]
    [ R.of_int 3; R.one ]
    [ R.minus_one; R.zero; R.zero ]

(* a ratio test whose unreduced ratios [(rn * ad) / (rd * an)] have
   parts between 2^31 and 2^32: row 0 bounds x by exactly 1, row 1 by
   65240/65235, and multiplying those parts out natively would wrap
   past max_int and pick row 1; every value of the solve is in range *)
let wide_ratio_instance =
  let a0 = R.of_ints 61225 62587 in
  std_of_lists
    [ ([ 0; 1 ], [ a0; R.one ]); ([ 0; 2 ], [ R.of_ints 65235 55343; R.one ]) ]
    [ a0; R.of_ints 65240 55343 ]
    [ R.minus_one; R.zero; R.zero ]

let restarts { rows; b; c } =
  match Simplex.minimize_packed ~rows ~b ~c () with
  | _ -> false
  | exception Simplex.Packed.Range -> true

let test_restart_straddles_range () =
  let check name inst ~restart =
    let { rows; b; c } = inst in
    Alcotest.(check bool) (name ^ ": restarts") restart (restarts inst);
    let answer = Simplex.minimize ~rows ~b ~c () in
    Alcotest.(check bool) (name ^ ": the boxed answer") true
      (same_outcome answer (Simplex.minimize_boxed ~rows ~b ~c ()));
    match answer with
    | Simplex.Optimal { objective; _ } -> objective
    | Simplex.Infeasible | Simplex.Unbounded -> Alcotest.failf "%s: not optimal" name
  in
  List.iter
    (fun (name, a, restart) ->
      Alcotest.check rat (name ^ " in a row: optimum") R.minus_one
        (check (name ^ " in a row") (row_instance a) ~restart);
      Alcotest.check rat (name ^ " as a cost: optimum") (R.min a R.zero)
        (check (name ^ " as a cost") (cost_instance a) ~restart))
    [
      ("2^30 - 1", R.of_int (limit - 1), false);
      ("2^30", R.of_int limit, true);
      ("1/(2^30 - 1)", R.of_ints 1 (limit - 1), false);
      ("1/2^30", R.of_ints 1 limit, true);
      ("(2^30 - 1)/(2^30 - 2)", R.of_ints (limit - 1) (limit - 2), false);
      ("(2^30 + 1)/(2^30 - 1)", R.of_ints (limit + 1) (limit - 1), true);
      ("2^62", R.of_bigint (Bigint.pow Bigint.two 62), true);
    ];
  List.iter
    (fun (name, a, restart) ->
      Alcotest.check rat (name ^ " as a cost: optimum") a
        (check (name ^ " as a cost") (cost_instance a) ~restart))
    [
      ("-(2^30 - 1)", R.of_int (1 - limit), false);
      ("-2^30", R.of_int (-limit), true);
      ("-1/(2^30 - 1)", R.of_ints (-1) (limit - 1), false);
    ];
  Alcotest.check rat "wide ratios: optimum" R.minus_one
    (check "wide ratios" wide_ratio_instance ~restart:false);
  Alcotest.check rat "growth: optimum" (R.of_int (-3))
    (check "growth" growth_instance ~restart:true);
  match Simplex.minimize_boxed ~rows:growth_instance.rows ~b:growth_instance.b
          ~c:growth_instance.c () with
  | Simplex.Optimal { values; _ } ->
    Alcotest.check rat "growth: the slack past the range" (R.of_int ((3 lsl 29) + 1)) values.(2)
  | _ -> Alcotest.fail "growth: not optimal"

(* --- packed arithmetic against Rat --- *)

(* numerators and denominators on both sides of the 2^30 bound, and
   small ones *)
let gen_part st =
  match Random.State.int st 4 with
  | 0 -> Random.State.int st 70
  | 1 -> limit - 3 + Random.State.int st 7
  | 2 -> Random.State.full_int st (1 lsl 31)
  | _ -> 1 + Random.State.int st 3000

let gen_rat st =
  let n = gen_part st and d = 1 + gen_part st in
  R.of_ints (if Random.State.bool st then -n else n) d

let fits r =
  match R.to_ints r with
  | Some (n, d) -> abs n < limit && d < limit
  | None -> false

(* [op] on packed operands returns [expected]'s canonical value, or
   raises [Range] exactly when that value does not fit *)
let agrees expected op =
  match op () with
  | v -> fits expected && R.equal (Simplex.Packed.to_rat v) expected
  | exception Simplex.Packed.Range -> not (fits expected)

let prop_packed_arithmetic =
  QCheck.Test.make ~name:"packed arithmetic = Rat, or Range" ~count:20000
    (QCheck.make
       ~print:(fun (a, b, c) -> String.concat ", " (List.map R.to_string [ a; b; c ]))
       (fun st -> (gen_rat st, gen_rat st, gen_rat st)))
    (fun (a, b, c) ->
      let module P = Simplex.Packed in
      match (P.of_rat a, P.of_rat b, P.of_rat c) with
      | exception P.Range -> not (fits a && fits b && fits c)
      | pa, pb, pc ->
        fits a && fits b && fits c
        && R.equal (P.to_rat pa) a
        && agrees (R.submul a b c) (fun () -> P.submul pa pb pc)
        && agrees (R.mul a b) (fun () -> P.mul pa pb)
        && (R.is_zero a || agrees (R.inv a) (fun () -> P.inv pa))
        && P.compare pa pb = R.compare a b
        && P.compare pb pa = R.compare b a
        && P.compare pa pa = 0)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  ( "kernels",
    [
      Alcotest.test_case "sparse kernels bit-identical to seed" `Quick
        test_bit_identical;
      q prop_packed_eq_boxed;
      Alcotest.test_case "random LPs cover every outcome" `Quick
        test_generator_covers_outcomes;
      Alcotest.test_case "degenerate LPs switch to Bland alike" `Quick
        test_degenerate_bland_switch;
      Alcotest.test_case "redundant rows dropped on both tableaux" `Quick
        test_redundant_rows_dropped;
      Alcotest.test_case "restart across the 2^30 bound" `Quick
        test_restart_straddles_range;
      q prop_packed_arithmetic;
    ] )
