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

let suite =
  ( "kernels",
    [
      Alcotest.test_case "sparse kernels bit-identical to seed" `Quick
        test_bit_identical;
    ] )
