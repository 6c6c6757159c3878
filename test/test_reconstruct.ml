(* Tests for the reconstruction layer: strictly certified schedules
   across perturbed phases and a fixed-period series, executor outcomes
   independent of LP reuse, and the reconstruction effort counters. *)

module R = Rat
module P = Platform
module MS = Master_slave

let r = R.of_ints
let ri = R.of_int
let rat = Alcotest.testable R.pp R.equal

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

let test_perturbed_phases_strict () =
  (* a phased run over small bandwidth perturbations: every schedule
     passes strict certification and carries the LP throughput *)
  List.iter
    (fun graph_seed ->
      let p0 = Platform_gen.random_graph ~seed:graph_seed ~nodes:8 ~extra_edges:6 () in
      for k = 0 to 5 do
        let factor = R.add R.one (r (k mod 3) 97) in
        let p = scale_edge p0 (k mod P.num_edges p0) factor in
        let sol = MS.solve p ~master:0 in
        Alcotest.(check bool)
          (Printf.sprintf "phase %d: flow acyclic" k)
          true
          (Flow.is_acyclic p sol.MS.task_flow);
        (* strict mode raises unless Reconstruct.certify passes *)
        let sched = MS.schedule ~strict:true sol in
        Alcotest.check rat
          (Printf.sprintf "phase %d: throughput = ntask" k)
          sol.MS.ntask
          (R.div (Schedule.tasks_per_period sched) sched.Schedule.period)
      done)
    [ 7; 42 ]

let test_fixed_period_series_strict () =
  (* an E9-style period series: each quantized schedule is strictly
     certified *)
  let p = Platform_gen.figure1 () in
  let sol = MS.solve p ~master:0 in
  List.iter
    (fun t ->
      let q = Fixed_period.quantize sol ~period:(ri t) in
      if R.sign q.Fixed_period.tasks_per_period > 0 then begin
        let sched = Fixed_period.schedule_of ~strict:true sol q in
        match Schedule.check_well_formed sched with
        | Ok () -> ()
        | Error e -> Alcotest.fail e
      end)
    [ 5; 6; 8; 8; 10; 12 ]

(* --- end-to-end: dynamic strategies ------------------------------------- *)

let test_dynamic_reuse_equivalent () =
  (* the outcome must not depend on whether a run has an LP cache.  A
     star plus one slave-slave link: on a tree the plans take no LP *)
  let star =
    Platform_gen.star ~master_weight:Ext_rat.inf
      ~slaves:[ (Ext_rat.of_int 1, ri 1); (Ext_rat.of_int 2, ri 2) ]
      ()
  in
  let p =
    Platform_parse.of_string
      (Platform_parse.to_string star ^ "edge S1 S2 c=1\nedge S2 S1 c=1\n")
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
      let cold = Dynamic_sched.run sc strat in
      let reuse = Dynamic_sched.run ~cache:(Lp.Cache.create ()) sc strat in
      Alcotest.check rat "completed equal" cold.Dynamic_sched.completed
        reuse.Dynamic_sched.completed)
    [ Dynamic_sched.Static; Dynamic_sched.Reactive; Dynamic_sched.Oracle;
      Dynamic_sched.Robust ]

let test_stats_counters_flow () =
  (* the effort counters reach Lp.Stats through the whole stack: one
     rebuilt matching per slot, and the repair counters stay 0 *)
  let p = Platform_gen.random_graph ~seed:3 ~nodes:8 ~extra_edges:6 () in
  let stats = Lp.Stats.create () in
  let sol = MS.solve ~stats p ~master:0 in
  let s1 = MS.schedule ~stats sol in
  let sol2 = MS.solve ~stats (scale_edge p 0 (r 98 97)) ~master:0 in
  let s2 = MS.schedule ~stats sol2 in
  Alcotest.(check int) "one matching per slot"
    (Schedule.slot_count s1 + Schedule.slot_count s2)
    stats.Lp.Stats.matchings_rebuilt;
  Alcotest.(check (list int)) "repair counters stay 0" [ 0; 0; 0 ]
    [ stats.Lp.Stats.matchings_repaired; stats.Lp.Stats.slots_reused;
      stats.Lp.Stats.delays_reused ]

let suite =
  ( "reconstruct",
    [
      Alcotest.test_case "perturbed phases, strict" `Quick
        test_perturbed_phases_strict;
      Alcotest.test_case "fixed-period series, strict" `Quick
        test_fixed_period_series_strict;
      Alcotest.test_case "dynamic strategies: reuse-independent" `Quick
        test_dynamic_reuse_equivalent;
      Alcotest.test_case "effort counters flow into stats" `Quick
        test_stats_counters_flow;
    ] )
