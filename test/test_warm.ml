(* Warm-started re-solving: basis export/import at the kernel layer,
   the [Lp.Warm] slot and [Lp.Cache] memo, and the property that none
   of it ever changes an objective value.

   The exactness contract under test: a warm solve may sit at a
   different optimal vertex than a cold solve, but its objective value
   is bit-identical, its solution passes every certified check, and a
   stale or garbage basis degrades to a cold solve — never to a wrong
   answer. *)

module R = Rat
module P = Platform

let r = R.of_ints
let rat = Alcotest.testable R.pp R.equal

(* --- kernel layer: basis export / import --- *)

(* fig1's master-slave standard form, a known-good nondegenerate LP *)
let fig1_std () =
  let m, _ = Master_slave.solve_lp_only (Platform_gen.figure1 ()) ~master:0 in
  Lp.standard_form m

let test_tableau_reimport () =
  let a, b, c = fig1_std () in
  match Simplex.minimize ~a ~b ~c () with
  | Simplex.Optimal { objective; basis; warm; pivots; _ } ->
    Alcotest.(check bool) "cold solve reports warm=false" false warm;
    Alcotest.(check bool) "cold solve pivots" true (pivots > 0);
    (match Simplex.minimize ~basis ~a ~b ~c () with
    | Simplex.Optimal { objective = o2; warm = w2; _ } ->
      Alcotest.(check bool) "re-import reports warm=true" true w2;
      Alcotest.check rat "same objective" objective o2
    | _ -> Alcotest.fail "re-import not optimal")
  | _ -> Alcotest.fail "fig1 LP not optimal"

let test_garbage_basis_falls_back () =
  let a, b, c = fig1_std () in
  let reference =
    match Simplex.minimize ~a ~b ~c () with
    | Simplex.Optimal { objective; _ } -> objective
    | _ -> Alcotest.fail "fig1 LP not optimal"
  in
  let m = Array.length a in
  let garbage =
    [
      ("empty", [||]);
      ("wrong length", [| 0 |]);
      ("out of range", Array.init m (fun _ -> max_int));
      ("negative", Array.init m (fun i -> i - 1));
      ("duplicates", Array.make m 0);
    ]
  in
  List.iter
    (fun (name, basis) ->
      match Simplex.minimize ~basis ~a ~b ~c () with
      | Simplex.Optimal { objective; warm; _ } ->
        Alcotest.(check bool) (name ^ " solved cold") false warm;
        Alcotest.check rat (name ^ " objective intact") reference objective
      | _ -> Alcotest.fail (name ^ ": not optimal"))
    garbage

(* --- primal-infeasible imports --- *)

(* min x + 2y  s.t.  x + y >= b1,  x <= 4.  At b1 = 3 the optimal basis
   is {x, slack2}.  Raising b1 to 6 leaves that basis dual-feasible but
   primal-infeasible (slack2 = 4 - 6 < 0).  The tableau kernel has no
   dual phase, so the import must fall back cold and still reach the
   new optimum x = 4, y = 2, objective 8. *)
let shifting_model b1 =
  let m = Lp.create () in
  let x = Lp.add_var m "x" in
  let y = Lp.add_var m "y" in
  Lp.add_constraint ~name:"cover" m Lp.(add (var x) (var y)) Lp.Ge (R.of_int b1);
  Lp.add_constraint ~name:"cap" m (Lp.var x) Lp.Le (R.of_int 4);
  Lp.set_objective m Lp.Minimize Lp.(add (var x) (scale R.two (var y)));
  m

let test_dual_repair_tableau_fallback () =
  let warm = Lp.Warm.create () in
  ignore (Lp.solve ~warm (shifting_model 3));
  match Lp.solve ~warm (shifting_model 6) with
  | Lp.Optimal { objective; _ } ->
    Alcotest.check rat "tableau fallback still exact" (R.of_int 8) objective;
    Alcotest.(check int) "negative rhs fell back cold" 2 (Lp.Warm.misses warm)
  | _ -> Alcotest.fail "b1=6 not optimal"

(* --- Lp.Warm across structurally identical platforms --- *)

(* same node and edge structure, weights and costs divided by the
   multiplier — what Dynamic_sched.scaled_platform produces per phase *)
let scaled p mult =
  P.create
    ~names:(Array.of_list (List.map (P.name p) (P.nodes p)))
    ~weights:
      (Array.of_list
         (List.map
            (fun i ->
              match P.weight p i with
              | Ext_rat.Inf -> Ext_rat.Inf
              | Ext_rat.Fin w -> Ext_rat.Fin (R.div w mult))
            (P.nodes p)))
    ~edges:
      (List.map
         (fun e -> (P.edge_src p e, P.edge_dst p e, R.div (P.edge_cost p e) mult))
         (P.edges p))

let test_warm_slot_falls_back_on_structure_change () =
  let warm = Lp.Warm.create () in
  let p1 = Platform_gen.figure1 () in
  let p2 = Platform_gen.random_graph ~seed:7 ~nodes:5 ~extra_edges:2 () in
  let cold1 = (Master_slave.solve p1 ~master:0).Master_slave.ntask in
  let cold2 = (Master_slave.solve p2 ~master:0).Master_slave.ntask in
  Alcotest.check rat "fig1 with fresh slot" cold1
    (Master_slave.solve ~warm p1 ~master:0).Master_slave.ntask;
  (* different structure: the stored basis's signature cannot match *)
  Alcotest.check rat "structure change falls back" cold2
    (Master_slave.solve ~warm p2 ~master:0).Master_slave.ntask;
  Alcotest.(check int) "both solves were cold" 2 (Lp.Warm.misses warm);
  (* back to fig1: the slot now holds p2's basis, still no false hit *)
  Alcotest.check rat "switching back stays exact" cold1
    (Master_slave.solve ~warm p1 ~master:0).Master_slave.ntask

(* --- Lp.Cache --- *)

let test_cache_hits () =
  let cache = Lp.Cache.create () in
  let p = Platform_gen.figure1 () in
  let s1 = (Master_slave.solve ~cache p ~master:0).Master_slave.ntask in
  let s2 = (Master_slave.solve ~cache p ~master:0).Master_slave.ntask in
  Alcotest.check rat "memoised result identical" s1 s2;
  Alcotest.(check int) "one miss" 1 (Lp.Cache.misses cache);
  Alcotest.(check int) "one hit" 1 (Lp.Cache.hits cache);
  Alcotest.(check int) "one entry" 1 (Lp.Cache.length cache);
  (* a perturbed instance is a different key, not a false hit *)
  let s3 = (Master_slave.solve ~cache (scaled p R.two) ~master:0).Master_slave.ntask in
  Alcotest.(check int) "perturbation misses" 2 (Lp.Cache.misses cache);
  Alcotest.check rat "scaled platform doubles throughput" (R.mul R.two s1) s3

let test_cache_capacity () =
  let cache = Lp.Cache.create ~capacity:2 () in
  let p = Platform_gen.figure1 () in
  List.iter
    (fun k ->
      ignore (Master_slave.solve ~cache (scaled p (R.of_int k)) ~master:0))
    [ 1; 2; 3; 4; 5 ];
  Alcotest.(check bool) "capacity bounds the table" true
    (Lp.Cache.length cache <= 2);
  Alcotest.(check bool) "rejects capacity 0" true
    (try ignore (Lp.Cache.create ~capacity:0 ()); false
     with Invalid_argument _ -> true)

(* --- certified checks on warm solutions --- *)

let test_warm_solution_certified () =
  let warm = Lp.Warm.create () in
  let p = Platform_gen.figure1 () in
  ignore (Master_slave.solve ~warm p ~master:0);
  (* second solve imports the basis; its solution must survive every
     independent audit the cold path survives *)
  let sol = Master_slave.solve ~warm p ~master:0 in
  Alcotest.(check int) "second solve was warm" 1 (Lp.Warm.hits warm);
  let sched = Master_slave.schedule sol in
  (match Master_slave.check_buffers sched ~master:0 ~periods:8 with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("buffer check: " ^ e));
  let run = Master_slave.simulate ~periods:6 sol in
  Alcotest.(check bool) "strict simulation meets the analytic count" true
    (R.equal run.Master_slave.completed run.Master_slave.expected);
  let m, res = Master_slave.solve_lp_only ~warm p ~master:0 in
  match res with
  | Lp.Optimal { values; _ } -> (
    match Lp.check_solution m values with
    | Ok _ -> ()
    | Error e -> Alcotest.fail ("LP audit: " ^ e))
  | _ -> Alcotest.fail "solve_lp_only not optimal"

let test_warm_collective_certified () =
  let p, src, targets = Platform_gen.multicast_fig2 () in
  List.iter
    (fun mode ->
      let warm = Lp.Warm.create () in
      let cold = Collective.solve mode p ~source:src ~targets in
      ignore (Collective.solve ~warm mode p ~source:src ~targets);
      let sol = Collective.solve ~warm mode p ~source:src ~targets in
      Alcotest.check rat "warm throughput identical"
        cold.Collective.throughput sol.Collective.throughput;
      match Collective.check_invariants sol with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("collective audit: " ^ e))
    [ Collective.Sum; Collective.Max ]

(* --- the property: warm never changes an objective --- *)

let gen_case =
  QCheck.Gen.(
    let* seed = int_range 0 10_000 in
    let* nodes = int_range 4 7 in
    let* extra = int_range 0 4 in
    let* mults = list_size (return 3) (int_range 1 8) in
    return (seed, nodes, extra, mults))

let print_case (seed, nodes, extra, mults) =
  Printf.sprintf "seed=%d nodes=%d extra=%d mults=[%s]" seed nodes extra
    (String.concat ";" (List.map string_of_int mults))

let arb_case = QCheck.make ~print:print_case gen_case

let prop_warm_equals_cold =
  QCheck.Test.make ~name:"warm objectives equal cold (both solvers, both rules)"
    ~count:15 arb_case (fun (seed, nodes, extra, mults) ->
      let base = Platform_gen.random_graph ~seed ~nodes ~extra_edges:extra () in
      (* positive multiplier perturbations, as scaled_platform applies *)
      let plats = List.map (fun k -> scaled base (r k 4)) mults in
      let cold =
        List.map
          (fun p -> (Master_slave.solve p ~master:0).Master_slave.ntask)
          plats
      in
      (* the library path: one warm slot across the perturbed platforms *)
      let warm = Lp.Warm.create () in
      let lib_warm =
        List.map
          (fun p -> (Master_slave.solve ~warm p ~master:0).Master_slave.ntask)
          plats
      in
      (* the kernel under both rules, each solve importing the previous
         basis (same structure, so indices line up), against the
         standard-form optimum of the independent reference kernel *)
      let stds =
        List.map
          (fun p ->
            Lp.standard_form (fst (Master_slave.solve_lp_only p ~master:0)))
          plats
      in
      let reference =
        List.map
          (fun (a, b, c) ->
            match Revised_dense_reference.minimize ~a ~b ~c () with
            | Revised_dense_reference.Optimal { objective; _ } -> objective
            | _ -> QCheck.Test.fail_report "reference not optimal")
          stds
      in
      let kernel_warm rule =
        let basis = ref None in
        List.map
          (fun (a, b, c) ->
            match Simplex.minimize ~rule ?basis:!basis ~a ~b ~c () with
            | Simplex.Optimal { objective; basis = bs; _ } ->
              basis := Some bs;
              objective
            | _ -> QCheck.Test.fail_report "kernel not optimal")
          stds
      in
      List.for_all2 R.equal cold lib_warm
      && List.for_all
           (fun rule -> List.for_all2 R.equal reference (kernel_warm rule))
           [ Simplex.Dantzig; Simplex.Bland ])

let prop_cache_replays =
  QCheck.Test.make ~name:"cache replays bit-identical results" ~count:15
    arb_case (fun (seed, nodes, extra, mults) ->
      let base = Platform_gen.random_graph ~seed ~nodes ~extra_edges:extra () in
      let plats = List.map (fun k -> scaled base (r k 4)) mults in
      let cache = Lp.Cache.create () in
      let pass () =
        List.map
          (fun p -> (Master_slave.solve ~cache p ~master:0).Master_slave.ntask)
          plats
      in
      let first = pass () in
      let second = pass () in
      Lp.Cache.hits cache >= List.length plats
      && List.for_all2 R.equal first second)

let prop_stale_basis_safe =
  QCheck.Test.make ~name:"stale basis across structures falls back" ~count:10
    (QCheck.pair arb_case arb_case)
    (fun ((s1, n1, e1, _), (s2, n2, e2, _)) ->
      (* thread ONE warm slot through solves of unrelated platforms:
         every result must still equal its own cold solve *)
      let pa = Platform_gen.random_graph ~seed:s1 ~nodes:n1 ~extra_edges:e1 ()
      and pb = Platform_gen.random_graph ~seed:s2 ~nodes:n2 ~extra_edges:e2 () in
      let warm = Lp.Warm.create () in
      List.for_all
        (fun p ->
          let cold = (Master_slave.solve p ~master:0).Master_slave.ntask in
          let w = (Master_slave.solve ~warm p ~master:0).Master_slave.ntask in
          R.equal cold w)
        [ pa; pb; pa; pb ])

let test_remap_basis_across_restriction () =
  (* cross-restriction warm transfer: a basis deposited on one surviving
     subplatform warm-starts the LP of another (the column translation
     is by name), the accepted import is counted, and the objective is
     bit-identical to a cold solve in both directions — contraction and
     re-expansion *)
  let p =
    Platform_gen.star ~master_weight:Ext_rat.inf
      ~slaves:
        [
          (Ext_rat.of_int 1, r 1 2);
          (Ext_rat.of_int 2, R.one);
          (Ext_rat.of_int 3, r 3 2);
          (Ext_rat.of_int 2, r 1 3);
        ]
      ()
  in
  let drop =
    P.restrict p ~keep_node:(fun i -> i <> 2) ~keep_edge:(fun _ -> true)
  in
  let warm = Lp.Warm.create () in
  let stats = Lp.Stats.create () in
  let _full = Master_slave.solve ~warm ~stats p ~master:0 in
  Alcotest.(check int) "no remap on the deposit" 0 stats.Lp.Stats.warm_remapped;
  let sub_warm = Master_slave.solve ~warm ~stats drop.P.sub ~master:0 in
  let sub_cold = Master_slave.solve drop.P.sub ~master:0 in
  Alcotest.check rat "restricted throughput bit-identical"
    sub_cold.Master_slave.ntask sub_warm.Master_slave.ntask;
  Alcotest.(check bool) "remapped import accepted" true
    (stats.Lp.Stats.warm_remapped > 0);
  (* recovery: the basis now lives in the restricted signature; solving
     the full platform again remaps it back out *)
  let re_warm = Master_slave.solve ~warm ~stats p ~master:0 in
  let re_cold = Master_slave.solve p ~master:0 in
  Alcotest.check rat "re-expanded throughput bit-identical"
    re_cold.Master_slave.ntask re_warm.Master_slave.ntask

(* --- basis (de)serialisation: import never raises --- *)

(* a real exported basis, and the platform it was solved on *)
let exported_fig1 () =
  let p = Platform_gen.figure1 () in
  let warm = Lp.Warm.create () in
  let cold = (Master_slave.solve ~warm p ~master:0).Master_slave.ntask in
  match Lp.Warm.basis warm with
  | Some bs -> (p, cold, Lp.export_basis bs)
  | None -> Alcotest.fail "optimal solve deposited no basis"

let import_no_raise what raw =
  match Lp.import_basis raw with
  | r -> r
  | exception e ->
    Alcotest.fail
      (Printf.sprintf "%s: import_basis raised %s" what (Printexc.to_string e))

(* Whatever a mutation parses to is a candidate only: seeded into a warm
   slot it may cost a cold solve, never change the answer. *)
let check_candidate what p cold = function
  | None -> ()
  | Some bs ->
    let warm = Lp.Warm.create () in
    Lp.Warm.restore warm bs;
    Alcotest.check rat (what ^ ": answer unchanged") cold
      (Master_slave.solve ~warm p ~master:0).Master_slave.ntask

(* A length field near [max_int] used to overflow past the bounds check
   and reach [String.sub], which raised instead of returning [None]. *)
let test_import_overflowing_length () =
  List.iter
    (fun k ->
      let raw = Printf.sprintf "lpbasis 1\n%d\nabc\n" k in
      Alcotest.(check bool)
        (Printf.sprintf "length %d rejected" k)
        true
        (Option.is_none (import_no_raise "overflow" raw)))
    [ 4611686018427387900; max_int; max_int - 1; max_int - 5 ]

(* Byte spans of the count and length lines of an exported basis, by
   walking its layout: format line, signature (length-prefixed), column
   count and columns, variable count and (flags, length-prefixed name)
   entries, constraint count and (relation, length-prefixed name)
   entries.  Column entries are spans too, so every integer line gets
   rewritten. *)
let int_lines raw =
  let pos = ref 0 in
  let spans = ref [] in
  let line () =
    let nl = String.index_from raw !pos '\n' in
    let l = String.sub raw !pos (nl - !pos) in
    let span = (!pos, nl) in
    pos := nl + 1;
    (l, span)
  in
  let int () =
    let l, span = line () in
    spans := span :: !spans;
    int_of_string l
  in
  let str () =
    let k = int () in
    pos := !pos + k + 1
  in
  ignore (line ());
  str ();
  for _ = 1 to int () do
    ignore (int ())
  done;
  for _ = 1 to int () do
    ignore (line ());
    str ()
  done;
  for _ = 1 to int () do
    ignore (line ());
    str ()
  done;
  Alcotest.(check int) "layout walk consumed the record" (String.length raw)
    !pos;
  List.rev !spans

let test_import_fuzz () =
  let p, cold, raw = exported_fig1 () in
  (* the unmutated record round-trips exactly *)
  (match import_no_raise "pristine" raw with
  | Some bs ->
    Alcotest.(check string) "export . import = id" raw (Lp.export_basis bs);
    check_candidate "pristine" p cold (Some bs)
  | None -> Alcotest.fail "pristine record rejected");
  (* every strict prefix is a truncation, hence rejected *)
  for k = 0 to String.length raw - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "truncated at %d rejected" k)
      true
      (Option.is_none (import_no_raise "truncation" (String.sub raw 0 k)))
  done;
  (* seeded byte flips *)
  let g = Faults.generator ~seed:2024 in
  for i = 1 to 500 do
    let b = Bytes.of_string raw in
    let at = Faults.rand_int g (Bytes.length b) in
    Bytes.set b at (Char.chr (Faults.rand_int g 256));
    let what = Printf.sprintf "flip %d at %d" i at in
    check_candidate what p cold (import_no_raise what (Bytes.to_string b))
  done;
  (* every count/length line rewritten to hostile values *)
  List.iter
    (fun (a, e) ->
      List.iter
        (fun v ->
          let mutated =
            String.sub raw 0 a ^ string_of_int v
            ^ String.sub raw e (String.length raw - e)
          in
          let what = Printf.sprintf "line at %d := %d" a v in
          check_candidate what p cold (import_no_raise what mutated))
        [ -1; 0; max_int; max_int - 5 ])
    (int_lines raw)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  ( "warm",
    [
      Alcotest.test_case "tableau re-import" `Quick test_tableau_reimport;
      Alcotest.test_case "garbage basis falls back" `Quick
        test_garbage_basis_falls_back;
      Alcotest.test_case "dual repair tableau fallback" `Quick
        test_dual_repair_tableau_fallback;
      Alcotest.test_case "structure change falls back" `Quick
        test_warm_slot_falls_back_on_structure_change;
      Alcotest.test_case "cache hits" `Quick test_cache_hits;
      Alcotest.test_case "basis import: overflowing length" `Quick
        test_import_overflowing_length;
      Alcotest.test_case "basis import: fuzz" `Quick test_import_fuzz;
      Alcotest.test_case "cache capacity" `Quick test_cache_capacity;
      Alcotest.test_case "warm solution certified" `Quick
        test_warm_solution_certified;
      Alcotest.test_case "warm collective certified" `Quick
        test_warm_collective_certified;
      Alcotest.test_case "basis remapped across restrictions" `Quick
        test_remap_basis_across_restriction;
      q prop_warm_equals_cold;
      q prop_cache_replays;
      q prop_stale_basis_safe;
    ] )
