(* Tests for the incremental reconstruction layer: seeded colouring,
   schedule repair through [?prev], the [Reconstruct.Warm] slot and its
   domain-local family, and the end-to-end equivalence of warm and cold
   phase sequences. *)

module R = Rat
module P = Platform
module BC = Bipartite_coloring
module MS = Master_slave
module Rec = Reconstruct

let r = R.of_ints
let ri = R.of_int
let rat = Alcotest.testable R.pp R.equal

(* --- seeded decomposition ---------------------------------------------- *)

(* random bipartite instance with unique tags *)
let random_bip seed =
  let st = Random.State.make [| seed; 13 |] in
  let l = 3 + Random.State.int st 4 and rr = 3 + Random.State.int st 4 in
  let edges = ref [] in
  let tag = ref 0 in
  for i = 0 to l - 1 do
    for j = 0 to rr - 1 do
      if Random.State.int st 3 > 0 then begin
        let w = R.of_ints (1 + Random.State.int st 9) (1 + Random.State.int st 4) in
        edges := { BC.left = i; right = j; weight = w; tag = !tag } :: !edges;
        incr tag
      end
    done
  done;
  (l, rr, List.rev !edges)

let matchings_equal ms1 ms2 =
  List.length ms1 = List.length ms2
  && List.for_all2
       (fun m1 m2 ->
         R.equal m1.BC.duration m2.BC.duration
         && List.length m1.BC.edges = List.length m2.BC.edges
         && List.for_all2
              (fun e1 e2 ->
                e1.BC.left = e2.BC.left
                && e1.BC.right = e2.BC.right
                && e1.BC.tag = e2.BC.tag
                && R.equal e1.BC.weight e2.BC.weight)
              m1.BC.edges m2.BC.edges)
       ms1 ms2

let test_seeded_replay () =
  (* seeding a decomposition with its own output replays it
     bit-identically, with no rebuilt round *)
  for seed = 0 to 19 do
    let l, rr, edges = random_bip seed in
    let cold = BC.decompose ~left_size:l ~right_size:rr edges in
    let eff = BC.effort () in
    let warm =
      BC.decompose ~seed:cold ~effort:eff ~left_size:l ~right_size:rr edges
    in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: replay identical" seed)
      true (matchings_equal cold warm);
    Alcotest.(check int)
      (Printf.sprintf "seed %d: nothing rebuilt" seed)
      0 eff.BC.rebuilt;
    Alcotest.(check int)
      (Printf.sprintf "seed %d: every round seeded" seed)
      (List.length cold)
      (eff.BC.reused + eff.BC.repaired)
  done

let perturb_weights seed edges =
  let st = Random.State.make [| seed; 29 |] in
  List.map
    (fun e ->
      if Random.State.int st 4 = 0 then
        { e with BC.weight = R.add e.BC.weight (r 1 7) }
      else e)
    edges

let test_seeded_perturbed_valid () =
  (* seeding with the matchings of a *perturbed* instance still yields a
     valid decomposition of the new instance *)
  for seed = 0 to 19 do
    let l, rr, edges = random_bip seed in
    let cold = BC.decompose ~left_size:l ~right_size:rr edges in
    let edges' = perturb_weights seed edges in
    let warm = BC.decompose ~seed:cold ~left_size:l ~right_size:rr edges' in
    match BC.check_decomposition ~left_size:l ~right_size:rr edges' warm with
    | Ok () -> ()
    | Error e -> Alcotest.fail (Printf.sprintf "seed %d: %s" seed e)
  done

let test_garbage_seed_tolerated () =
  (* a seed from an unrelated instance must never corrupt the result *)
  for seed = 0 to 19 do
    let l, rr, edges = random_bip seed in
    let _, _, other = random_bip (seed + 1000) in
    let garbage = BC.decompose ~left_size:9 ~right_size:9 other in
    let warm = BC.decompose ~seed:garbage ~left_size:l ~right_size:rr edges in
    match BC.check_decomposition ~left_size:l ~right_size:rr edges warm with
    | Ok () -> ()
    | Error e -> Alcotest.fail (Printf.sprintf "seed %d: %s" seed e)
  done

(* --- schedule repair ---------------------------------------------------- *)

let test_schedule_reuse_unchanged () =
  (* same solution scheduled twice through one warm slot: the second
     reconstruction returns the previous slot list outright *)
  let p = Platform_gen.figure1 () in
  let sol = MS.solve p ~master:0 in
  let recon = Rec.Warm.create () in
  let stats = Lp.Stats.create () in
  let s1 = MS.schedule ~recon sol in
  let s2 = MS.schedule ~recon ~stats sol in
  Alcotest.(check bool) "slots physically reused" true
    (s1.Schedule.slots == s2.Schedule.slots);
  Alcotest.(check int) "all slots counted as reused"
    (List.length s1.Schedule.slots)
    stats.Lp.Stats.slots_reused;
  (* solve above ran without the slot, so only the second reconstruct
     hits (the first deposited the schedule) *)
  Alcotest.(check int) "one warm hit" 1 (Rec.Warm.hits recon);
  Alcotest.(check int) "one warm miss" 1 (Rec.Warm.misses recon);
  (match Rec.certify s2 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Rec.Warm.clear recon;
  let s3 = MS.schedule ~recon sol in
  Alcotest.(check bool) "cleared slot rebuilds equal slots" true
    (s3.Schedule.slots != s1.Schedule.slots)

let scale_edge p victim factor =
  P.create
    ~names:(Array.of_list (List.map (P.name p) (P.nodes p)))
    ~weights:(Array.of_list (List.map (P.weight p) (P.nodes p)))
    ~edges:
      (List.map
         (fun e ->
           let c = P.edge_cost p e in
           ( P.edge_src p e,
             P.edge_dst p e,
             if e = victim then R.mul c factor else c ))
         (P.edges p))

let test_warm_phases_strict () =
  (* a phased run over small bandwidth perturbations: every warm
     schedule passes strict certification (checkers + bit-identical
     aggregates vs a cold rebuild) and matches the cold throughput *)
  List.iter
    (fun graph_seed ->
      let p0 = Platform_gen.random_graph ~seed:graph_seed ~nodes:8 ~extra_edges:6 () in
      let recon = Rec.Warm.create () in
      for k = 0 to 5 do
        let factor = R.add R.one (r (k mod 3) 97) in
        let p = scale_edge p0 (k mod P.num_edges p0) factor in
        let sol = MS.solve p ~master:0 in
        Alcotest.(check bool)
          (Printf.sprintf "phase %d: flow acyclic" k)
          true
          (Flow.is_acyclic p sol.MS.task_flow);
        (* strict mode recomputes the cold schedule internally and
           raises unless period and per-edge volumes are bit-identical *)
        let sched = MS.schedule ~recon ~strict:true sol in
        let cold_sched = MS.schedule sol in
        Alcotest.check rat
          (Printf.sprintf "phase %d: throughput equal" k)
          (R.div (MS.tasks_per_period cold_sched sol)
             cold_sched.Schedule.period)
          (R.div (MS.tasks_per_period sched sol) sched.Schedule.period)
      done;
      Alcotest.(check bool) "warm slot was exercised" true
        (Rec.Warm.hits recon > 0))
    [ 7; 42 ]

let test_fixed_period_series_warm () =
  (* an E9-style period series through one warm slot: each quantized
     schedule is strictly certified against its cold rebuild *)
  let p = Platform_gen.figure1 () in
  let sol = MS.solve p ~master:0 in
  let recon = Rec.Warm.create () in
  List.iter
    (fun t ->
      let q = Fixed_period.quantize sol ~period:(ri t) in
      if R.sign q.Fixed_period.tasks_per_period > 0 then begin
        let sched = Fixed_period.schedule_of ~recon ~strict:true sol q in
        match Schedule.check_well_formed sched with
        | Ok () -> ()
        | Error e -> Alcotest.fail e
      end)
    [ 5; 6; 8; 8; 10; 12 ]

(* --- warm slot family over a pool -------------------------------------- *)

let test_family_pool () =
  let fam = Rec.Warm.Family.create () in
  let p = Platform_gen.figure1 () in
  let sol = MS.solve p ~master:0 in
  Pool.with_pool ~domains:2 (fun pool ->
      let scheds =
        Pool.map pool
          (fun _ ->
            let slot = Rec.Warm.Family.slot fam in
            MS.schedule ~recon:slot ~strict:true sol)
          (List.init 8 Fun.id)
      in
      List.iter
        (fun s ->
          match Rec.certify s with
          | Ok () -> ()
          | Error e -> Alcotest.fail e)
        scheds);
  Alcotest.(check bool) "some domain materialised a slot" true
    (Rec.Warm.Family.domains fam >= 1);
  Alcotest.(check int) "every schedule hit or missed" 8
    (Rec.Warm.Family.hits fam + Rec.Warm.Family.misses fam);
  Rec.Warm.Family.clear fam

(* --- end-to-end: dynamic strategies ------------------------------------- *)

let test_dynamic_reuse_equivalent () =
  (* warm reconstruction is threaded through every dynamic strategy; the
     outcome must be independent of [reuse] *)
  let p =
    Platform_gen.star ~master_weight:Ext_rat.inf
      ~slaves:[ (Ext_rat.of_int 1, ri 1); (Ext_rat.of_int 2, ri 2) ]
      ()
  in
  let sc =
    {
      Dynamic_sched.platform = p;
      master = 0;
      cpu_traces = [ (1, [ (ri 20, r 1 4); (ri 50, R.one) ]) ];
      bw_traces = [];
      phase = ri 10;
      phases = 8;
    }
  in
  List.iter
    (fun strat ->
      let cold = Dynamic_sched.run ~reuse:false sc strat in
      let reuse = Dynamic_sched.run ~reuse:true sc strat in
      Alcotest.check rat "completed equal" cold.Dynamic_sched.completed
        reuse.Dynamic_sched.completed)
    [ Dynamic_sched.Static; Dynamic_sched.Reactive; Dynamic_sched.Oracle;
      Dynamic_sched.Robust ]

let test_warm_delays_reused () =
  (* a replayed flow serves the cached delay vector, bit-identical to
     the cold longest-path computation; a perturbed flow misses *)
  let p = Platform_gen.random_tree ~seed:14 ~nodes:10 () in
  let sol = MS.solve p ~master:0 in
  let flow = sol.MS.task_flow in
  let w = Rec.Warm.create () in
  let stats = Lp.Stats.create () in
  let d1 = Rec.delays ~warm:w ~stats p flow in
  let d2 = Rec.delays ~warm:w ~strict:true ~stats p flow in
  Alcotest.(check (array int)) "warm = cold" (Flow.delays p flow) d2;
  Alcotest.(check (array int)) "reuse = first" d1 d2;
  Alcotest.(check int) "one reuse counted" 1 stats.Lp.Stats.delays_reused;
  let perturbed = Array.map (fun x -> R.mul x (r 99 98)) flow in
  let d3 = Rec.delays ~warm:w ~strict:true ~stats p perturbed in
  Alcotest.(check (array int)) "perturbed recomputed cold"
    (Flow.delays p perturbed) d3;
  Alcotest.(check int) "perturbed is not a reuse" 1
    stats.Lp.Stats.delays_reused;
  (* end to end: re-scheduling the same solution goes through the warm
     delay path and stays strict-certified *)
  let sched1 = MS.schedule ~recon:w ~stats sol in
  let before = stats.Lp.Stats.delays_reused in
  let sched2 = MS.schedule ~recon:w ~strict:true ~stats sol in
  Alcotest.check rat "periods equal" sched1.Schedule.period
    sched2.Schedule.period;
  Alcotest.(check bool) "schedule path reused delays" true
    (stats.Lp.Stats.delays_reused > before)

let test_stats_counters_flow () =
  (* the effort counters reach Lp.Stats through the whole stack *)
  let p = Platform_gen.random_graph ~seed:3 ~nodes:8 ~extra_edges:6 () in
  let recon = Rec.Warm.create () in
  let stats = Lp.Stats.create () in
  let sol = MS.solve ~stats p ~master:0 in
  let _s1 = MS.schedule ~recon ~stats sol in
  let sol2 = MS.solve ~stats (scale_edge p 0 (r 98 97)) ~master:0 in
  let _s2 = MS.schedule ~recon ~stats sol2 in
  Alcotest.(check bool) "matchings accounted" true
    (stats.Lp.Stats.matchings_repaired + stats.Lp.Stats.matchings_rebuilt > 0)

let test_budget_certified_fallback () =
  (* a zero repair budget turns every seeded repair that needs work into
     the certified cold path; the trip is counted and the result is
     bit-identical to an unbudgeted rebuild.  The platform has one
     chord, so both solves run the LP (a tree's closed form moves this
     flow too little to need repairs) *)
  let p = Platform_gen.random_graph ~seed:17 ~nodes:12 ~extra_edges:1 () in
  let w = Rec.Warm.create () in
  let stats = Lp.Stats.create () in
  Alcotest.(check bool) "not a tree" true (Tree_decomp.detect p ~root:0 = None);
  let sol1 = MS.solve ~stats p ~master:0 in
  let _s1 = MS.schedule ~recon:w ~stats sol1 in
  (* perturbing this edge moves the optimal flow enough that the seeded
     colouring needs repair work *)
  let p2 = scale_edge p 0 (r 99 98) in
  let sol2 = MS.solve ~stats p2 ~master:0 in
  let s2 = MS.schedule ~recon:w ~budget:0 ~stats sol2 in
  let cold = MS.schedule (MS.solve p2 ~master:0) in
  Alcotest.check rat "budgeted period = cold" cold.Schedule.period
    s2.Schedule.period;
  Alcotest.(check bool) "budget trip counted" true
    (stats.Lp.Stats.repairs_budget_exceeded > 0)

let suite =
  ( "reconstruct",
    [
      Alcotest.test_case "seeded decompose replays" `Quick test_seeded_replay;
      Alcotest.test_case "seeded decompose, perturbed weights" `Quick
        test_seeded_perturbed_valid;
      Alcotest.test_case "garbage seeds tolerated" `Quick
        test_garbage_seed_tolerated;
      Alcotest.test_case "unchanged schedule reused" `Quick
        test_schedule_reuse_unchanged;
      Alcotest.test_case "warm phases, strict certification" `Quick
        test_warm_phases_strict;
      Alcotest.test_case "fixed-period series, warm" `Quick
        test_fixed_period_series_warm;
      Alcotest.test_case "warm family over a pool" `Quick test_family_pool;
      Alcotest.test_case "dynamic strategies: reuse-independent" `Quick
        test_dynamic_reuse_equivalent;
      Alcotest.test_case "warm delays reused bit-identically" `Quick
        test_warm_delays_reused;
      Alcotest.test_case "effort counters flow into stats" `Quick
        test_stats_counters_flow;
      Alcotest.test_case "repair budget: certified cold fallback" `Quick
        test_budget_certified_fallback;
    ] )
