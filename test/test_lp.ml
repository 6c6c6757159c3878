(* Tests for the exact-rational LP layer: textbook instances with known
   optima, degenerate/cycling-prone instances, and randomised
   cross-checks (feasibility certificates, Bland vs Dantzig agreement,
   and agreement with the independent revised-simplex reference kernel
   kept in [Revised_dense_reference]). *)

module R = Rat

let r = R.of_ints
let ri = R.of_int
let rat = Alcotest.testable R.pp R.equal

let solve_get m =
  match Lp.solve m with
  | Lp.Optimal s -> s
  | Lp.Infeasible -> Alcotest.fail "unexpected infeasible"
  | Lp.Unbounded -> Alcotest.fail "unexpected unbounded"

let certified name m s =
  match Lp.certify m s with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: certificate rejected: %s" name e

(* the duals under their rows' names, for readable expectations *)
let named_duals m s = List.combine (Lp.row_names m) (Array.to_list (Lp.duals s))

(* [Lp.solve] always prices with Dantzig; the Bland path is driven
   directly on the very standard form [Lp.solve] hands the kernel.
   Standard-form objective: the model's for [Minimize], negated for
   [Maximize]. *)
let kernel_solve rule m =
  let rows, b, c = Lp.standard_form m in
  Simplex.minimize ~rule ~rows ~b ~c ()

(* the independent second-opinion kernel on the same standard form *)
let reference_solve m =
  let a, b, c = Dense_std.standard_form m in
  Revised_dense_reference.minimize ~a ~b ~c ()

(* a x = b, x >= 0, exactly *)
let std_feasible m values =
  let a, b, _ = Dense_std.standard_form m in
  Array.for_all (fun v -> R.sign v >= 0) values
  && Array.for_all2
       (fun row bi ->
         let lhs = ref R.zero in
         Array.iteri
           (fun j aij -> lhs := R.add !lhs (R.mul aij values.(j)))
           row;
         R.equal !lhs bi)
       a b

(* max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18; opt = 36 at (2,6) *)
let test_textbook_max () =
  let m = Lp.create () in
  let x = Lp.add_var m "x" and y = Lp.add_var m "y" in
  Lp.add_constraint m (Lp.var x) Lp.Le (ri 4);
  Lp.add_constraint m (Lp.term (ri 2) y) Lp.Le (ri 12);
  Lp.add_constraint m (Lp.of_terms [ (ri 3, x); (ri 2, y) ]) Lp.Le (ri 18);
  Lp.set_objective m Lp.Maximize (Lp.of_terms [ (ri 3, x); (ri 5, y) ]);
  let s = solve_get m in
  Alcotest.check rat "objective" (ri 36) s.objective;
  Alcotest.check rat "x" (ri 2) (Lp.value s x);
  Alcotest.check rat "y" (ri 6) (Lp.value s y)

(* min x + y st x + 2y >= 4, 3x + y >= 6; opt at intersection (8/5, 6/5) -> 14/5 *)
let test_textbook_min () =
  let m = Lp.create () in
  let x = Lp.add_var m "x" and y = Lp.add_var m "y" in
  Lp.add_constraint m (Lp.of_terms [ (ri 1, x); (ri 2, y) ]) Lp.Ge (ri 4);
  Lp.add_constraint m (Lp.of_terms [ (ri 3, x); (ri 1, y) ]) Lp.Ge (ri 6);
  Lp.set_objective m Lp.Minimize (Lp.add (Lp.var x) (Lp.var y));
  let s = solve_get m in
  Alcotest.check rat "objective" (r 14 5) s.objective;
  Alcotest.check rat "x" (r 8 5) (Lp.value s x);
  Alcotest.check rat "y" (r 6 5) (Lp.value s y)

let test_equality_constraint () =
  (* max x st x + y = 5, y >= 2  ->  x = 3 *)
  let m = Lp.create () in
  let x = Lp.add_var m "x" in
  let y = Lp.add_var m "y" in
  Lp.add_constraint m (Lp.add (Lp.var x) (Lp.var y)) Lp.Eq (ri 5);
  Lp.add_constraint m (Lp.var y) Lp.Ge (ri 2);
  Lp.set_objective m Lp.Maximize (Lp.var x);
  let s = solve_get m in
  Alcotest.check rat "objective" (ri 3) s.objective;
  Alcotest.check rat "y on its row" (ri 2) (Lp.value s y);
  (* the Eq row's dual is free in sign: here it is 1, and the Ge row's
     is -1 *)
  Alcotest.(check (list (pair string rat))) "duals"
    [ ("c0", ri 1); ("c1", ri (-1)) ]
    (named_duals m s);
  certified "equality" m s

let test_upper_bounds () =
  (* max x + y with x <= 3/2 (bound), x + y <= 2 *)
  let m = Lp.create () in
  let x = Lp.add_var ~ub:(Some (r 3 2)) m "x" in
  let y = Lp.add_var ~ub:(Some (r 1 4)) m "y" in
  Lp.add_constraint m (Lp.add (Lp.var x) (Lp.var y)) Lp.Le (ri 2);
  Lp.set_objective m Lp.Maximize (Lp.add (Lp.var x) (Lp.var y));
  let s = solve_get m in
  Alcotest.check rat "objective" (r 7 4) s.objective;
  (* every variable is >= 0, so a negative upper bound is rejected *)
  Alcotest.(check bool) "negative ub rejected" true
    (try ignore (Lp.add_var ~ub:(Some (r (-1) 2)) m "z"); false
     with Invalid_argument _ -> true)

let test_infeasible () =
  let m = Lp.create () in
  let x = Lp.add_var m "x" in
  Lp.add_constraint m (Lp.var x) Lp.Ge (ri 3);
  Lp.add_constraint m (Lp.var x) Lp.Le (ri 2);
  Lp.set_objective m Lp.Maximize (Lp.var x);
  (match Lp.solve m with
  | Lp.Infeasible -> ()
  | Lp.Optimal _ | Lp.Unbounded -> Alcotest.fail "expected infeasible")

let test_unbounded () =
  let m = Lp.create () in
  let x = Lp.add_var m "x" in
  Lp.set_objective m Lp.Maximize (Lp.var x);
  (match Lp.solve m with
  | Lp.Unbounded -> ()
  | Lp.Optimal _ | Lp.Infeasible -> Alcotest.fail "expected unbounded")

let test_degenerate_beale () =
  (* Beale's cycling example: Dantzig without safeguards cycles forever.
     min -3/4 x4 + 150 x5 - 1/50 x6 + 6 x7
     st  1/4 x4 - 60 x5 - 1/25 x6 + 9 x7 <= 0
         1/2 x4 - 90 x5 - 1/50 x6 + 3 x7 <= 0
         x6 <= 1
     optimum: -1/20 *)
  let m = Lp.create () in
  let x4 = Lp.add_var m "x4" and x5 = Lp.add_var m "x5" in
  let x6 = Lp.add_var m "x6" and x7 = Lp.add_var m "x7" in
  Lp.add_constraint m
    (Lp.of_terms [ (r 1 4, x4); (ri (-60), x5); (r (-1) 25, x6); (ri 9, x7) ])
    Lp.Le R.zero;
  Lp.add_constraint m
    (Lp.of_terms [ (r 1 2, x4); (ri (-90), x5); (r (-1) 50, x6); (ri 3, x7) ])
    Lp.Le R.zero;
  Lp.add_constraint m (Lp.var x6) Lp.Le (ri 1);
  Lp.set_objective m Lp.Minimize
    (Lp.of_terms [ (r (-3) 4, x4); (ri 150, x5); (r (-1) 50, x6); (ri 6, x7) ]);
  Alcotest.check rat "beale optimum" (r (-1) 20) (solve_get m).objective;
  List.iter
    (fun rule ->
      match kernel_solve rule m with
      | Simplex.Optimal s ->
        Alcotest.check rat "beale kernel optimum" (r (-1) 20) s.objective
      | Simplex.Infeasible | Simplex.Unbounded ->
        Alcotest.fail "beale: not optimal")
    [ Simplex.Bland; Simplex.Dantzig ]

let test_empty_objective () =
  (* pure feasibility problem *)
  let m = Lp.create () in
  let x = Lp.add_var m "x" in
  Lp.add_constraint m (Lp.var x) Lp.Ge (ri 1);
  (match Lp.solve m with
  | Lp.Optimal s -> Alcotest.check rat "zero objective" R.zero s.objective
  | Lp.Infeasible | Lp.Unbounded -> Alcotest.fail "feasibility failed")

let test_negative_rhs () =
  (* constraints with negative rhs exercise the row-flip path *)
  let m = Lp.create () in
  let x = Lp.add_var m "x" in
  let y = Lp.add_var m "y" in
  Lp.add_constraint m (Lp.sub (Lp.neg (Lp.var x)) (Lp.var y)) Lp.Ge (ri (-10));
  Lp.set_objective m Lp.Maximize (Lp.add (Lp.var x) (Lp.term (ri 2) y));
  let s = solve_get m in
  Alcotest.check rat "objective" (ri 20) s.objective

let test_duplicate_name () =
  let m = Lp.create () in
  let _ = Lp.add_var m "x" in
  Alcotest.(check bool) "duplicate rejected" true
    (try ignore (Lp.add_var m "x"); false with Invalid_argument _ -> true)

let test_check_solution_detects () =
  let m = Lp.create () in
  let x = Lp.add_var m "x" in
  Lp.add_constraint m (Lp.var x) Lp.Le (ri 1);
  (match Lp.check_solution m (fun _ -> ri 2) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "violation not detected");
  (* x = -1 meets the row but not x >= 0 *)
  (match Lp.check_solution m (fun _ -> ri (-1)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative value not detected");
  (match Lp.check_solution m (fun _ -> r 1 2) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("false violation: " ^ e))

let test_value_by_name () =
  let m = Lp.create () in
  let x = Lp.add_var ~ub:(Some (ri 7)) m "throughput" in
  Lp.set_objective m Lp.Maximize (Lp.var x);
  let s = solve_get m in
  Alcotest.check rat "by name" (ri 7) (Lp.value_by_name m s "throughput");
  Alcotest.(check bool) "unknown name" true
    (try ignore (Lp.value_by_name m s "nope"); false with Not_found -> true)

(* --- randomised cross-checks --- *)

(* Random bounded LP: maximize a nonneg objective over constraints
   sum a_ij x_j <= b_i with a_ij, b_i >= 0 plus x_j <= 10.  Always
   feasible (x = 0) and bounded (box).  Check: reported optimum is
   feasible per check_solution, identical under both pivot rules, and at
   least as good as any random feasible point we can scale into the
   polytope. *)
let gen_lp_instance =
  QCheck.Gen.(
    let small = map (fun n -> R.of_ints n 4) (int_range 0 20) in
    let* nv = int_range 1 5 in
    let* nc = int_range 1 5 in
    let* rows = list_repeat nc (list_repeat nv small) in
    let* rhs = list_repeat nc (map (fun n -> R.of_ints n 3) (int_range 1 30)) in
    let* obj = list_repeat nv small in
    return (nv, rows, rhs, obj))

let arb_lp =
  QCheck.make
    ~print:(fun (nv, rows, rhs, obj) ->
      Printf.sprintf "nv=%d rows=%s rhs=%s obj=%s" nv
        (String.concat ";"
           (List.map (fun row -> String.concat "," (List.map R.to_string row)) rows))
        (String.concat "," (List.map R.to_string rhs))
        (String.concat "," (List.map R.to_string obj)))
    gen_lp_instance

let build_lp (nv, rows, rhs, obj) =
  let m = Lp.create () in
  let xs =
    Array.init nv (fun i -> Lp.add_var ~ub:(Some (ri 10)) m (Printf.sprintf "x%d" i))
  in
  List.iter2
    (fun row b ->
      let e = Lp.of_terms (List.mapi (fun j c -> (c, xs.(j))) row) in
      Lp.add_constraint m e Lp.Le b)
    rows rhs;
  Lp.set_objective m Lp.Maximize
    (Lp.of_terms (List.mapi (fun j c -> (c, xs.(j))) obj));
  (m, xs)

let prop_optimal_is_feasible =
  QCheck.Test.make ~name:"optimum is primal feasible" ~count:200 arb_lp
    (fun inst ->
      let m, _ = build_lp inst in
      match Lp.solve m with
      | Lp.Optimal s ->
        (match Lp.check_solution m (Lp.value s) with
        | Ok _ -> true
        | Error e -> QCheck.Test.fail_report e)
      | Lp.Infeasible | Lp.Unbounded -> false)

let prop_rules_agree =
  QCheck.Test.make ~name:"Bland and Dantzig agree on the optimum" ~count:100
    arb_lp (fun inst ->
      let m, _ = build_lp inst in
      match (kernel_solve Simplex.Bland m, kernel_solve Simplex.Dantzig m) with
      | Simplex.Optimal s1, Simplex.Optimal s2 ->
        R.equal s1.objective s2.objective
      | _, _ -> false)

let prop_dominates_feasible_points =
  QCheck.Test.make ~name:"optimum dominates sampled feasible points" ~count:100
    (QCheck.pair arb_lp (QCheck.int_range 0 10)) (fun (inst, seed) ->
      let m, xs = build_lp inst in
      match Lp.solve m with
      | Lp.Optimal s ->
        let nv, rows, rhs, obj = inst in
        (* deterministic pseudo-random candidate, scaled into the polytope *)
        let cand =
          Array.init nv (fun i -> R.of_ints (((seed + 1) * (i + 3)) mod 7) 3)
        in
        let scale =
          List.fold_left2
            (fun acc row b ->
              let lhs =
                List.fold_left2
                  (fun t c x -> R.add t (R.mul c x))
                  R.zero row (Array.to_list cand)
              in
              if R.compare lhs b <= 0 then acc
              else R.min acc (R.div b lhs))
            R.one rows rhs
        in
        let scale =
          Array.fold_left
            (fun acc x ->
              if R.compare x (ri 10) > 0 then R.min acc (R.div (ri 10) x) else acc)
            scale cand
        in
        let cand = Array.map (R.mul scale) cand in
        let cand_obj =
          List.fold_left2
            (fun t c x -> R.add t (R.mul c x))
            R.zero obj (Array.to_list cand)
        in
        ignore xs;
        R.compare s.objective cand_obj >= 0
      | Lp.Infeasible | Lp.Unbounded -> false)

(* --- exact duals and strong duality --- *)

(* y . b for the model's row order: constraint rows under their names,
   then one [ub:<var>] row per upper-bounded variable *)
let dual_objective m s =
  let rhs_of =
    List.map (fun (name, _, rhs) -> (name, rhs)) (Lp.constraints m)
    @ List.filter_map
        (fun (name, ub) -> Option.map (fun u -> ("ub:" ^ name, u)) ub)
        (Lp.var_bounds m)
  in
  List.fold_left
    (fun acc (name, y) -> R.add acc (R.mul y (List.assoc name rhs_of)))
    R.zero (named_duals m s)

let test_duals_textbook () =
  (* max 3x + 5y st x <= 4 (c0), 2y <= 12 (c1), 3x + 2y <= 18 (c2).
     At the optimum (2, 6) the binding rows are c1 and c2; solving the
     dual gives y = (0, 3/2, 1): one more unit of c1's rhs is worth 3/2,
     of c2's rhs 1, and the slack row c0 prices at 0. *)
  let build () =
    let m = Lp.create () in
    let x = Lp.add_var m "x" and y = Lp.add_var m "y" in
    Lp.add_constraint m (Lp.var x) Lp.Le (ri 4);
    Lp.add_constraint m (Lp.term (ri 2) y) Lp.Le (ri 12);
    Lp.add_constraint m (Lp.of_terms [ (ri 3, x); (ri 2, y) ]) Lp.Le (ri 18);
    Lp.set_objective m Lp.Maximize (Lp.of_terms [ (ri 3, x); (ri 5, y) ]);
    m
  in
  let m = build () in
  let s = solve_get m in
  Alcotest.(check (list (pair string rat)))
    "exact duals"
    [ ("c0", R.zero); ("c1", r 3 2); ("c2", ri 1) ]
    (named_duals m s);
  Alcotest.check rat "strong duality" s.Lp.objective (dual_objective m s)

let test_duals_upper_bound_rows () =
  (* max x + y, x <= 3/2 (bound), y <= 1/4 (bound), x + y <= 2 (c0):
     both bound rows bind, the constraint row is slack — the whole
     dual weight sits on the ub: rows *)
  let build () =
    let m = Lp.create () in
    let x = Lp.add_var ~ub:(Some (r 3 2)) m "x" in
    let y = Lp.add_var ~ub:(Some (r 1 4)) m "y" in
    Lp.add_constraint m (Lp.add (Lp.var x) (Lp.var y)) Lp.Le (ri 2);
    Lp.set_objective m Lp.Maximize (Lp.add (Lp.var x) (Lp.var y));
    m
  in
  let m = build () in
  let s = solve_get m in
  Alcotest.(check (list (pair string rat)))
    "bound-row duals"
    [ ("c0", R.zero); ("ub:x", ri 1); ("ub:y", ri 1) ]
    (named_duals m s);
  Alcotest.check rat "strong duality" (r 7 4) (dual_objective m s)

let test_duals_paper_models () =
  (* strong duality on every solved steady-state model of the regression
     set, under both pivot rules: c . x = y . b exactly — at the model
     level through [Lp.solve], and on the standard form for the kernel's
     own duals *)
  let fig2, src, tgts = Platform_gen.multicast_fig2 () in
  let models =
    [
      ( "fig1 master-slave",
        fst (Master_slave.solve_lp_only (Platform_gen.figure1 ()) ~master:0) );
      ( "fig2 scatter",
        Collective.model Collective.Sum fig2 ~source:src ~targets:tgts );
      ( "fig2 multicast",
        Collective.model Collective.Max fig2 ~source:src ~targets:tgts );
      ( "random graph",
        fst
          (Master_slave.solve_lp_only
             (Platform_gen.random_graph ~seed:42 ~nodes:7 ~extra_edges:4 ())
             ~master:0) );
      ( "odd-cycle relay",
        fst
          (Master_slave.solve_lp_only
             (Platform_gen.odd_cycle_relay ~k:2 ())
             ~master:0) );
    ]
  in
  List.iter
    (fun (name, m) ->
      let s = solve_get m in
      Alcotest.check rat (name ^ " strong duality") s.Lp.objective
        (dual_objective m s);
      let _, b, _ = Lp.standard_form m in
      List.iter
        (fun (label, rule) ->
          match kernel_solve rule m with
          | Simplex.Optimal k ->
            let yb = ref R.zero in
            Array.iteri (fun i y -> yb := R.add !yb (R.mul y b.(i))) k.duals;
            Alcotest.check rat
              (Printf.sprintf "%s %s kernel strong duality" name label)
              k.objective !yb
          | Simplex.Infeasible | Simplex.Unbounded ->
            Alcotest.fail (name ^ ": not optimal"))
        [ ("bland", Simplex.Bland); ("dantzig", Simplex.Dantzig) ])
    models

let prop_strong_duality =
  QCheck.Test.make ~name:"strong duality c.x = y.b on random LPs" ~count:150
    arb_lp (fun inst ->
      let m, _ = build_lp inst in
      match Lp.solve m with
      | Lp.Optimal s ->
        R.equal s.Lp.objective (dual_objective m s)
        && Lp.certify m s = Ok ()
      | Lp.Infeasible | Lp.Unbounded -> false)

(* --- the revised-simplex reference kernel ---

   [Revised_dense_reference] is the independent second opinion the
   cross-checks below and in test_kernels.ml compare the tableau
   against, so it is held to the same known optima.  It solves the
   standard form: a [Maximize] model's optimum comes back negated. *)

let test_revised_textbook () =
  let m = Lp.create () in
  let x = Lp.add_var m "x" and y = Lp.add_var m "y" in
  Lp.add_constraint m (Lp.var x) Lp.Le (ri 4);
  Lp.add_constraint m (Lp.term (ri 2) y) Lp.Le (ri 12);
  Lp.add_constraint m (Lp.of_terms [ (ri 3, x); (ri 2, y) ]) Lp.Le (ri 18);
  Lp.set_objective m Lp.Maximize (Lp.of_terms [ (ri 3, x); (ri 5, y) ]);
  match reference_solve m with
  | Revised_dense_reference.Optimal s ->
    Alcotest.check rat "revised objective" (ri (-36)) s.objective;
    Alcotest.(check bool) "revised vertex feasible" true
      (std_feasible m s.values)
  | Revised_dense_reference.Infeasible | Revised_dense_reference.Unbounded ->
    Alcotest.fail "revised: not optimal"

let test_revised_infeasible_unbounded () =
  let m = Lp.create () in
  let x = Lp.add_var m "x" in
  Lp.add_constraint m (Lp.var x) Lp.Ge (ri 3);
  Lp.add_constraint m (Lp.var x) Lp.Le (ri 2);
  (match reference_solve m with
  | Revised_dense_reference.Infeasible -> ()
  | Revised_dense_reference.Optimal _ | Revised_dense_reference.Unbounded ->
    Alcotest.fail "expected infeasible");
  let m2 = Lp.create () in
  let y = Lp.add_var m2 "y" in
  Lp.set_objective m2 Lp.Maximize (Lp.var y);
  match reference_solve m2 with
  | Revised_dense_reference.Unbounded -> ()
  | Revised_dense_reference.Optimal _ | Revised_dense_reference.Infeasible ->
    Alcotest.fail "expected unbounded"

let test_revised_beale () =
  let m = Lp.create () in
  let x4 = Lp.add_var m "x4" and x5 = Lp.add_var m "x5" in
  let x6 = Lp.add_var m "x6" and x7 = Lp.add_var m "x7" in
  Lp.add_constraint m
    (Lp.of_terms [ (r 1 4, x4); (ri (-60), x5); (r (-1) 25, x6); (ri 9, x7) ])
    Lp.Le R.zero;
  Lp.add_constraint m
    (Lp.of_terms [ (r 1 2, x4); (ri (-90), x5); (r (-1) 50, x6); (ri 3, x7) ])
    Lp.Le R.zero;
  Lp.add_constraint m (Lp.var x6) Lp.Le (ri 1);
  Lp.set_objective m Lp.Minimize
    (Lp.of_terms [ (r (-3) 4, x4); (ri 150, x5); (r (-1) 50, x6); (ri 6, x7) ]);
  let a, b, c = Dense_std.standard_form m in
  List.iter
    (fun rule ->
      match Revised_dense_reference.minimize ~rule ~a ~b ~c () with
      | Revised_dense_reference.Optimal s ->
        Alcotest.check rat "revised beale" (r (-1) 20) s.objective
      | Revised_dense_reference.Infeasible | Revised_dense_reference.Unbounded
        ->
        Alcotest.fail "beale: not optimal")
    [ Simplex.Bland; Simplex.Dantzig ]

let prop_solvers_agree =
  QCheck.Test.make ~name:"tableau and revised simplex agree" ~count:150
    arb_lp (fun inst ->
      let m, _ = build_lp inst in
      match (kernel_solve Simplex.Dantzig m, reference_solve m) with
      | Simplex.Optimal s1, Revised_dense_reference.Optimal s2 ->
        R.equal s1.objective s2.objective
      | _, _ -> false)

let prop_revised_feasible =
  QCheck.Test.make ~name:"revised optimum is primal feasible" ~count:100
    arb_lp (fun inst ->
      let m, _ = build_lp inst in
      match reference_solve m with
      | Revised_dense_reference.Optimal s -> std_feasible m s.values
      | Revised_dense_reference.Infeasible | Revised_dense_reference.Unbounded
        ->
        false)

(* --- optimality certificates ---

   [Lp.certify] proves an answer optimal from the model alone, so it is
   the check that survives any change of the vertex the kernel lands
   on.  It must accept every cold answer and reject tampered ones. *)

let test_certify_seeded_platforms () =
  (* the solve-graph family (20-40 nodes, n/2 chords) and random trees,
     master-slave LPs solved cold *)
  let g = Faults.generator ~seed:2024 in
  let draw () = 1 + Faults.rand_int g 1_000_000 in
  let graphs =
    List.map
      (fun n ->
        ( Printf.sprintf "graph n=%d" n,
          Platform_gen.random_connected_graph ~seed:(draw ()) ~nodes:n
            ~extra_edges:(n / 2) () ))
      [ 20; 27; 33; 40 ]
  in
  let trees =
    List.map
      (fun n ->
        ( Printf.sprintf "tree n=%d" n,
          Platform_gen.random_tree ~seed:(draw ()) ~nodes:n () ))
      [ 8; 20; 40 ]
  in
  List.iter
    (fun (name, p) ->
      let m = fst (Master_slave.solve_lp_only p ~master:0) in
      certified name m (solve_get m))
    (graphs @ trees)

let test_certify_crash_rows () =
  (* max x + 2y + z st  c0: -x - y >= -4  (negative rhs: the flipped
     surplus is a +1 crash column),  c1: x + 3z = 6  (z occurs in c1
     only: a crash column with coefficient 3 and a nonzero cost),
     c2: y <= 3.  Every row has a crash column, so phase 1 never runs
     and every dual comes from a crash column.  Optimum 26/3 at
     (1, 3, 5/3); stationarity on the basic x, y, z gives the duals. *)
  let m = Lp.create () in
  let x = Lp.add_var m "x" and y = Lp.add_var m "y" and z = Lp.add_var m "z" in
  Lp.add_constraint m (Lp.neg (Lp.add (Lp.var x) (Lp.var y))) Lp.Ge (ri (-4));
  Lp.add_constraint m (Lp.add (Lp.var x) (Lp.term (ri 3) z)) Lp.Eq (ri 6);
  Lp.add_constraint m (Lp.var y) Lp.Le (ri 3);
  Lp.set_objective m Lp.Maximize
    (Lp.of_terms [ (ri 1, x); (ri 2, y); (ri 1, z) ]);
  let s = solve_get m in
  Alcotest.check rat "objective" (r 26 3) s.Lp.objective;
  Alcotest.(check (list (pair string rat)))
    "crash-column duals"
    [ ("c0", r (-2) 3); ("c1", r 1 3); ("c2", r 4 3) ]
    (named_duals m s);
  certified "crash rows" m s;
  (* the kernel itself takes no phase-1 pivot here: the crash basis is
     already feasible, and phase 2 needs at most one pivot per row *)
  match kernel_solve Simplex.Dantzig m with
  | Simplex.Optimal k ->
    Alcotest.(check bool) "at most 3 pivots" true (k.pivots <= 3)
  | Simplex.Infeasible | Simplex.Unbounded -> Alcotest.fail "not optimal"

let test_certify_rejects () =
  (* max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18: optimum 36 at
     (2, 6), duals (0, 3/2, 1) *)
  let m = Lp.create () in
  let x = Lp.add_var m "x" and y = Lp.add_var m "y" in
  Lp.add_constraint m (Lp.var x) Lp.Le (ri 4);
  Lp.add_constraint m (Lp.term (ri 2) y) Lp.Le (ri 12);
  Lp.add_constraint m (Lp.of_terms [ (ri 3, x); (ri 2, y) ]) Lp.Le (ri 18);
  Lp.set_objective m Lp.Maximize (Lp.of_terms [ (ri 3, x); (ri 5, y) ]);
  let s = solve_get m in
  certified "textbook" m s;
  let rejected what ~because s' =
    match Lp.certify m s' with
    | Ok () -> Alcotest.failf "certified a bad answer: %s" what
    | Error e ->
      if not (String.starts_with ~prefix:because e) then
        Alcotest.failf "%s rejected for the wrong reason: %s" what e
  in
  (* feasible but suboptimal point (0, 0) with its objective *)
  rejected "suboptimal point" ~because:"duality gap"
    { s with Lp.objective = R.zero; values = [| R.zero; R.zero |] };
  (* infeasible point *)
  rejected "infeasible point" ~because:"primal"
    { s with Lp.objective = ri 42; values = [| ri 9; ri 3 |] };
  (* wrong objective for the returned point *)
  rejected "objective mismatch" ~because:"objective" { s with Lp.objective = ri 35 };
  (* a dual of the wrong sign on a Le row of a Maximize model *)
  rejected "dual sign" ~because:"dual: dual of row c0"
    { s with Lp.duals = [| ri (-1); r 3 2; ri 1 |] };
  (* one optimal dual with its sign flipped *)
  rejected "dual sign flip" ~because:"dual: dual of row c1"
    { s with Lp.duals = [| R.zero; r (-3) 2; ri 1 |] };
  (* sign-feasible duals that leave a reduced cost negative *)
  rejected "dual infeasible" ~because:"dual: reduced cost of y"
    { s with Lp.duals = [| R.zero; R.zero; ri 1 |] };
  (* dual feasible but not optimal: a duality gap *)
  rejected "duality gap" ~because:"duality gap"
    { s with Lp.duals = [| ri 3; r 5 2; R.zero |] };
  (* duals and values that do not match the model's rows and variables *)
  rejected "missing row" ~because:"answer shape"
    { s with Lp.duals = [| R.zero |] };
  rejected "extra row" ~because:"answer shape"
    { s with Lp.duals = Array.append s.Lp.duals [| R.zero |] };
  rejected "missing value" ~because:"answer shape"
    { s with Lp.values = [| ri 2 |] }

(* --- implied upper bounds ---

   [Lp.standard_form] keeps a [ub:v] row out of the kernel when a model
   [Le] row with only positive coefficients already caps [v] at or
   below its bound.  Each case is a model given as data, so the test
   can also build its full dense standard form, every [ub:] row
   included, without going through [Lp], and solve that with the seed
   snapshot kernel. *)

type spec = {
  vars : (string * R.t option) list; (* name, ub *)
  rows : ((R.t * int) list * Lp.relation * R.t) list; (* terms over var index *)
  sense : Lp.sense;
  obj : (R.t * int) list;
}

let model_of spec =
  let m = Lp.create () in
  let xs =
    Array.of_list
      (List.map (fun (name, ub) -> Lp.add_var ~ub m name) spec.vars)
  in
  let expr terms = Lp.of_terms (List.map (fun (a, v) -> (a, xs.(v))) terms) in
  List.iter (fun (terms, rel, rhs) -> Lp.add_constraint m (expr terms) rel rhs)
    spec.rows;
  Lp.set_objective m spec.sense (expr spec.obj);
  m

(* the model's optimum through the full dense standard form, or [None]
   when that form is infeasible *)
let full_dense_optimum spec =
  let n_struct = List.length spec.vars in
  let rows =
    spec.rows
    @ List.concat
        (List.mapi
           (fun v (_, ub) ->
             match ub with Some u -> [ ([ (R.one, v) ], Lp.Le, u) ] | None -> [])
           spec.vars)
  in
  let n_slack = List.length (List.filter (fun (_, rel, _) -> rel <> Lp.Eq) rows) in
  let n = n_struct + n_slack in
  let place row terms =
    List.iter (fun (a, v) -> row.(v) <- R.add row.(v) a) terms
  in
  let slack = ref n_struct in
  let a, b =
    List.split
      (List.map
         (fun (terms, rel, rhs) ->
           let row = Array.make n R.zero in
           place row terms;
           (match rel with
           | Lp.Eq -> ()
           | Lp.Le -> row.(!slack) <- R.one
           | Lp.Ge -> row.(!slack) <- R.minus_one);
           if rel <> Lp.Eq then incr slack;
           (row, rhs))
         rows)
  in
  let flip = spec.sense = Lp.Maximize in
  let c = Array.make n R.zero in
  place c spec.obj;
  let c = Array.map (fun x -> if flip then R.neg x else x) c in
  match
    Simplex_dense_reference.minimize ~a:(Array.of_list a) ~b:(Array.of_list b)
      ~c ()
  with
  | Simplex_dense_reference.Optimal r ->
    Some (if flip then R.neg r.objective else r.objective)
  | Simplex_dense_reference.Infeasible -> None
  | Simplex_dense_reference.Unbounded -> Alcotest.fail "reference unbounded"

(* [dropped] names the variables whose [ub:] row must stay out *)
let check_implied name spec ~dropped =
  let m = model_of spec in
  let rows, _, _ = Lp.standard_form m in
  let n_ub = List.length (List.filter (fun (_, ub) -> ub <> None) spec.vars) in
  Alcotest.(check int) (name ^ ": kernel rows")
    (List.length spec.rows + n_ub - List.length dropped)
    (Array.length rows);
  match (Lp.solve m, full_dense_optimum spec) with
  | Lp.Optimal s, Some expected ->
    Alcotest.check rat (name ^ ": objective") expected s.Lp.objective;
    certified name m s;
    List.iter
      (fun v ->
        Alcotest.check rat
          (Printf.sprintf "%s: dual of dropped ub:%s" name v)
          R.zero
          (List.assoc ("ub:" ^ v) (named_duals m s)))
      dropped
  | Lp.Infeasible, None -> ()
  | _ -> Alcotest.failf "%s: solve and full dense reference disagree" name

let ub u = Some (ri u)

let test_implied_equal_bound () =
  (* max 3x + 2y, c0: x + y <= 4, x <= 4: the cap 4 equals the bound,
     and the optimum (4, 0) sits on both, a degenerate tie *)
  check_implied "equal bound"
    {
      vars = [ ("x", ub 4); ("y", None) ];
      rows = [ ([ (ri 1, 0); (ri 1, 1) ], Lp.Le, ri 4) ];
      sense = Lp.Maximize;
      obj = [ (ri 3, 0); (ri 2, 1) ];
    }
    ~dropped:[ "x" ]

let test_implied_looser_tighter () =
  (* c0: 2x + y <= 6 caps x at 3 (bound 10: dropped) and y at 6 (bound
     2: kept); max x + y = 4 at (2, 2) *)
  check_implied "looser and tighter"
    {
      vars = [ ("x", ub 10); ("y", ub 2) ];
      rows = [ ([ (ri 2, 0); (ri 1, 1) ], Lp.Le, ri 6) ];
      sense = Lp.Maximize;
      obj = [ (ri 1, 0); (ri 1, 1) ];
    }
    ~dropped:[ "x" ]

let test_implied_negative_coefficient () =
  (* c0: x - y <= 1 caps neither: y can grow *)
  check_implied "negative coefficient"
    {
      vars = [ ("x", ub 1); ("y", ub 3) ];
      rows = [ ([ (ri 1, 0); (ri (-1), 1) ], Lp.Le, ri 1) ];
      sense = Lp.Maximize;
      obj = [ (ri 1, 0); (ri 1, 1) ];
    }
    ~dropped:[]

let test_implied_infeasible_row () =
  (* x in [0, 5], c0: x <= -1: a negative right-hand side makes the row
     infeasible by itself, so it implies the bound and the model is
     infeasible either way *)
  check_implied "infeasible implying row"
    {
      vars = [ ("x", ub 5) ];
      rows = [ ([ (ri 1, 0) ], Lp.Le, ri (-1)) ];
      sense = Lp.Maximize;
      obj = [ (ri 1, 0) ];
    }
    ~dropped:[ "x" ]

let test_implied_solve_graph () =
  (* 30 seeded solve-graph LPs (20-40 nodes, n/2 chords): every [s_e <=
     1] row is implied by its source's one-port [outport] row, so the
     kernel sees 3531 of the 5995 model rows.  The vertex does not move:
     the total pivot count is the one the kernel took with every row *)
  let g = Faults.generator ~seed:1 in
  let kernel_rows = ref 0 and model_rows = ref 0 and pivots = Lp.Stats.create () in
  for i = 0 to 29 do
    let n = 20 + (i mod 21) in
    let p =
      Platform_gen.random_connected_graph ~seed:(1 + Faults.rand_int g 1_000_000)
        ~nodes:n ~extra_edges:(n / 2) ()
    in
    let m, _, _ = Master_slave.build_lp p ~master:0 in
    let rows, _, _ = Lp.standard_form m in
    kernel_rows := !kernel_rows + Array.length rows;
    model_rows :=
      !model_rows + List.length (Lp.constraints m)
      + List.length (List.filter (fun (_, u) -> u <> None) (Lp.var_bounds m));
    match Lp.solve ~stats:pivots m with
    | Lp.Optimal s -> certified (Printf.sprintf "graph %d" i) m s
    | Lp.Infeasible | Lp.Unbounded -> Alcotest.fail "solve-graph LP not optimal"
  done;
  Alcotest.(check int) "model rows" 5995 !model_rows;
  Alcotest.(check int) "kernel rows" 3531 !kernel_rows;
  Alcotest.(check int) "pivots" 1298 pivots.Lp.Stats.pivots

let suite =
  let q = QCheck_alcotest.to_alcotest in
  ( "lp",
    [
      Alcotest.test_case "textbook max" `Quick test_textbook_max;
      Alcotest.test_case "textbook min" `Quick test_textbook_min;
      Alcotest.test_case "equality" `Quick test_equality_constraint;
      Alcotest.test_case "upper bounds" `Quick test_upper_bounds;
      Alcotest.test_case "infeasible" `Quick test_infeasible;
      Alcotest.test_case "unbounded" `Quick test_unbounded;
      Alcotest.test_case "Beale degeneracy" `Quick test_degenerate_beale;
      Alcotest.test_case "empty objective" `Quick test_empty_objective;
      Alcotest.test_case "negative rhs" `Quick test_negative_rhs;
      Alcotest.test_case "duplicate names" `Quick test_duplicate_name;
      Alcotest.test_case "check_solution" `Quick test_check_solution_detects;
      Alcotest.test_case "value_by_name" `Quick test_value_by_name;
      Alcotest.test_case "duals: textbook" `Quick test_duals_textbook;
      Alcotest.test_case "duals: upper-bound rows" `Quick
        test_duals_upper_bound_rows;
      Alcotest.test_case "duals: paper models" `Quick test_duals_paper_models;
      Alcotest.test_case "revised: textbook" `Quick test_revised_textbook;
      Alcotest.test_case "revised: infeasible/unbounded" `Quick test_revised_infeasible_unbounded;
      Alcotest.test_case "revised: Beale" `Quick test_revised_beale;
      Alcotest.test_case "certify: seeded platforms" `Quick
        test_certify_seeded_platforms;
      Alcotest.test_case "certify: crash rows" `Quick test_certify_crash_rows;
      Alcotest.test_case "certify: rejects bad answers" `Quick
        test_certify_rejects;
      Alcotest.test_case "implied bound: equal" `Quick test_implied_equal_bound;
      Alcotest.test_case "implied bound: looser and tighter" `Quick
        test_implied_looser_tighter;
      Alcotest.test_case "implied bound: negative coefficient" `Quick
        test_implied_negative_coefficient;
      Alcotest.test_case "implied bound: infeasible row" `Quick
        test_implied_infeasible_row;
      Alcotest.test_case "implied bound: solve-graph rows and pivots" `Quick
        test_implied_solve_graph;
      q prop_optimal_is_feasible;
      q prop_rules_agree;
      q prop_dominates_feasible_points;
      q prop_solvers_agree;
      q prop_revised_feasible;
      q prop_strong_duality;
    ] )
