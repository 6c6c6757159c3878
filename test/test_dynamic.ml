(* Tests for §5.5 dynamic phase-based rescheduling. *)

module R = Rat
module Dy = Dynamic_sched

let r = R.of_ints
let ri = R.of_int
let rat = Alcotest.testable R.pp R.equal

(* heterogeneous star, slave 1 slows to 1/4 during phases 2-4 *)
let scenario () =
  let p =
    Platform_gen.star ~master_weight:Ext_rat.inf
      ~slaves:[ (Ext_rat.of_int 1, ri 1); (Ext_rat.of_int 2, ri 2) ]
      ()
  in
  {
    Dy.platform = p;
    master = 0;
    cpu_traces = [ (1, [ (ri 20, r 1 4); (ri 50, R.one) ]) ];
    bw_traces = [];
    phase = ri 10;
    phases = 8;
  }

(* [scenario ()]'s star plus a link between its two slaves, after the
   star's edges (so the traces keep theirs): a connected graph, not a
   tree, so every plan goes through the LP and the caller's cache *)
let graph_scenario () =
  let sc = scenario () in
  let text = Platform_parse.to_string sc.Dy.platform in
  let graph =
    Platform_parse.of_string (text ^ "edge S1 S2 c=1\nedge S2 S1 c=1\n")
  in
  { sc with Dy.platform = graph }

let test_stable_platform_all_equal () =
  (* without perturbations all three strategies coincide *)
  let sc = { (scenario ()) with Dy.cpu_traces = [] } in
  let s = (Dy.run sc Dy.Static).Dy.completed in
  let rctv = (Dy.run sc Dy.Reactive).Dy.completed in
  let o = (Dy.run sc Dy.Oracle).Dy.completed in
  Alcotest.check rat "static = reactive" s rctv;
  Alcotest.check rat "static = oracle" s o;
  (* the integral-task plans floor the rational rates, so the bound is
     approached from below *)
  Alcotest.(check bool) "within oracle bound" true
    R.Infix.(s <= Dy.oracle_throughput_bound sc)

let test_adaptation_beats_static () =
  let sc = scenario () in
  let s = (Dy.run sc Dy.Static).Dy.completed in
  let rctv = (Dy.run sc Dy.Reactive).Dy.completed in
  let o = (Dy.run sc Dy.Oracle).Dy.completed in
  Alcotest.(check bool) "reactive beats static" true R.Infix.(rctv > s);
  Alcotest.(check bool) "oracle at least reactive" true R.Infix.(o >= rctv);
  Alcotest.(check bool) "oracle within its own bound" true
    R.Infix.(o <= Dy.oracle_throughput_bound sc)

let test_phase_accounting () =
  let sc = scenario () in
  let o = Dy.run sc Dy.Oracle in
  Alcotest.(check int) "one entry per phase" sc.Dy.phases
    (List.length o.Dy.per_phase);
  Alcotest.check rat "phases sum to total" o.Dy.completed
    (R.sum o.Dy.per_phase)

let test_oracle_tracks_slowdown () =
  let sc = scenario () in
  let o = Dy.run sc Dy.Oracle in
  (* during the degraded phases the oracle plans less work *)
  (* phase 0 ramps up (first transfers precede the first computes), so
     steady full-rate phases are compared against phase 1 *)
  let arr = Array.of_list o.Dy.per_phase in
  Alcotest.(check bool) "degraded phases do less" true
    R.Infix.(arr.(3) < arr.(1));
  Alcotest.(check bool) "recovery restores rate" true
    (R.equal arr.(6) arr.(1))

let test_bandwidth_perturbation () =
  (* link 0 (M->S1) degraded: reactive should shift work to slave 2 *)
  let sc =
    {
      (scenario ()) with
      Dy.cpu_traces = [];
      bw_traces = [ (0, [ (ri 20, r 1 4); (ri 50, R.one) ]) ];
    }
  in
  let s = (Dy.run sc Dy.Static).Dy.completed in
  let rctv = (Dy.run sc Dy.Reactive).Dy.completed in
  Alcotest.(check bool) "adapts to bandwidth loss" true R.Infix.(rctv >= s)

let test_multiplier_at () =
  (* out-of-order breakpoints: the entry with the largest time <= t
     wins, not the textually last one (the seed's fold returned 3
     here) *)
  let tr = [ (ri 10, r 2 1); (ri 5, r 3 1) ] in
  Alcotest.check rat "largest breakpoint <= t wins" (r 2 1)
    (Dy.multiplier_at tr (ri 20));
  Alcotest.check rat "middle of the trace" (r 3 1)
    (Dy.multiplier_at tr (ri 7));
  Alcotest.check rat "before the first breakpoint" R.one
    (Dy.multiplier_at tr (ri 2));
  Alcotest.check rat "exactly on a breakpoint" (r 2 1)
    (Dy.multiplier_at tr (ri 10));
  (* equal breakpoints: the last listed entry wins, as with the seed's
     left fold over a sorted trace *)
  let dup = [ (ri 5, r 3 1); (ri 5, r 7 2) ] in
  Alcotest.check rat "equal breakpoints keep the last" (r 7 2)
    (Dy.multiplier_at dup (ri 5));
  Alcotest.check rat "empty trace is nominal" R.one
    (Dy.multiplier_at [] (ri 42))

let test_trace_order_irrelevant () =
  (* the planner sorts traces internally, so a permuted trace yields the
     same oracle bound and the same oracle run *)
  let sc = scenario () in
  let shuffled =
    { sc with Dy.cpu_traces = [ (1, [ (ri 50, R.one); (ri 20, r 1 4) ]) ] }
  in
  Alcotest.check rat "bound invariant under trace permutation"
    (Dy.oracle_throughput_bound sc)
    (Dy.oracle_throughput_bound shuffled);
  Alcotest.check rat "oracle run invariant under trace permutation"
    (Dy.run sc Dy.Oracle).Dy.completed
    (Dy.run shuffled Dy.Oracle).Dy.completed

let test_reuse_bit_identical () =
  (* the LP cache is the only memo and must not change any reported
     number: every solve is cold, so with a cache — one shared by every
     strategy, or a fresh one per run — the whole outcome and the
     bounds are bit-identical to the run without one.  On a tree the
     plans take no LP, so the scenario is a graph *)
  let slowdown = graph_scenario () in
  let bw_dip =
    {
      slowdown with
      Dy.cpu_traces = [];
      bw_traces = [ (0, [ (ri 20, r 1 4); (ri 50, R.one) ]) ];
    }
  in
  List.iter
    (fun (label, sc) ->
      let shared = Lp.Cache.create () in
      List.iter
        (fun s ->
          let cold = Dy.run sc s in
          List.iter
            (fun cache ->
              let memo = Dy.run ~cache sc s in
              Alcotest.(check (list rat))
                (label ^ ": per-phase tasks identical")
                cold.Dy.per_phase memo.Dy.per_phase;
              Alcotest.(check bool) (label ^ ": outcome identical") true
                (Dy.outcomes_equal cold memo))
            [ shared; Lp.Cache.create () ])
        [ Dy.Static; Dy.Reactive; Dy.Oracle; Dy.Robust ];
      Alcotest.check rat (label ^ ": oracle bound identical")
        (Dy.oracle_throughput_bound sc)
        (Dy.oracle_throughput_bound ~cache:shared sc);
      Alcotest.check rat (label ^ ": fault bound identical")
        (Dy.fault_throughput_bound sc)
        (Dy.fault_throughput_bound ~cache:(Lp.Cache.create ()) sc);
      Alcotest.(check bool) (label ^ ": the cache actually got used") true
        (Lp.Cache.hits shared > 0))
    [ ("slowdown graph", slowdown); ("bandwidth dip", bw_dip) ]

(* A ring P0 - P1 - ... - P11 (cost 1 each way) closed by the chord
   P0 - P11 (cost 2), the master P0 computing nothing: its plan LP takes
   several generation rounds *)
let ring_scenario () =
  let link i j c = [ (i, j, c); (j, i, c) ] in
  let p =
    Platform.create
      ~names:(Array.init 12 (Printf.sprintf "P%d"))
      ~weights:
        (Array.init 12 (fun i ->
             if i = 0 then Ext_rat.inf else Ext_rat.of_int 8))
      ~edges:
        (List.concat (List.init 11 (fun i -> link i (i + 1) R.one))
        @ link 0 11 R.two)
  in
  { (scenario ()) with Dy.platform = p }

let test_no_cache_solves_every_plan () =
  (* [?cache] is the only memo across runs: on a flat trace every plan
     LP is the same instance, yet without a cache each one goes to the
     kernel (the nominal plan, plus one per phase for Reactive and
     Oracle), and with a cache only the first is solved and the others
     hit.  Robust plans the nominal platform and epoch 0; every later
     epoch sees the multipliers epoch 0 saw and reuses its decision, so
     it makes two plan LPs, the second a hit with a cache.
     Off trees a plan is [Master_slave.try_solve]'s generation, whose
     rounds each solve one restricted LP: without a cache every round
     of every plan reaches the kernel; with one, the first plan's
     rounds are solved and every later plan hits on every round (hits
     add nothing to [?stats]).  The graph's plans take one round, the
     ring's several.  Only a graph plans through the LP: on the star
     every plan is the integral tree sweep, with no kernel solve at
     all *)
  let flat sc = { sc with Dy.cpu_traces = [ (1, [ (ri 20, R.one) ]) ] } in
  let star = flat (scenario ()) in
  List.iter
    (fun (label, sc, several) ->
      let sc = flat sc in
      let phases = sc.Dy.phases in
      let rounds =
        let stats = Lp.Stats.create () in
        ignore
          (Master_slave.generate ~stats sc.Dy.platform ~master:sc.Dy.master);
        stats.Lp.Stats.solves
      in
      Alcotest.(check bool) (label ^ ": rounds per plan") true
        (if several then rounds > 1 else rounds = 1);
      List.iter
        (fun (s, name, plan_lps) ->
          let name = label ^ " " ^ name in
          let stats = Lp.Stats.create () in
          ignore (Dy.run ~stats star s);
          Alcotest.(check int) (name ^ ": no kernel solve on the star") 0
            stats.Lp.Stats.solves;
          let stats = Lp.Stats.create () in
          let plain = Dy.run ~stats sc s in
          Alcotest.(check int)
            (name ^ ": every round of every plan LP without a cache")
            (plan_lps * rounds) stats.Lp.Stats.solves;
          let stats = Lp.Stats.create () and cache = Lp.Cache.create () in
          let memo = Dy.run ~cache ~stats sc s in
          Alcotest.(check int) (name ^ ": the first plan's rounds with a cache")
            rounds stats.Lp.Stats.solves;
          Alcotest.(check int) (name ^ ": the other plans hit on every round")
            ((plan_lps - 1) * rounds) (Lp.Cache.hits cache);
          Alcotest.(check bool) (name ^ ": same outcome") true
            (Dy.outcomes_equal plain memo))
        [
          (Dy.Static, "static", 1);
          (Dy.Reactive, "reactive", phases + 1);
          (Dy.Oracle, "oracle", phases + 1);
          (Dy.Robust, "robust", 2);
        ])
    [ ("graph", graph_scenario (), false); ("ring", ring_scenario (), true) ]

let test_validation () =
  let sc = scenario () in
  let bad sc =
    try Dy.validate_scenario sc; false with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "zero phase" true (bad { sc with Dy.phase = R.zero });
  Alcotest.(check bool) "zero phases" true (bad { sc with Dy.phases = 0 });
  Alcotest.(check bool) "outage rejected" true
    (bad { sc with Dy.cpu_traces = [ (1, [ (ri 5, R.zero) ]) ] })

(* --- failure-aware scheduling --- *)

(* forwarding master, three slaves of decreasing efficiency; star edges
   come mirrored, so edge 2(i-1) is M->Si and 2(i-1)+1 is Si->M *)
let fault_star () =
  Platform_gen.star ~master_weight:Ext_rat.inf
    ~slaves:
      [
        (Ext_rat.of_int 1, ri 1);
        (Ext_rat.of_int 2, ri 2);
        (Ext_rat.of_int 3, ri 3);
      ]
    ()

(* the link to the best slave dies mid-phase at t=25, permanently *)
let crash_scenario () =
  {
    Dy.platform = fault_star ();
    master = 0;
    cpu_traces = [];
    bw_traces = [ (0, [ (ri 25, R.zero) ]); (1, [ (ri 25, R.zero) ]) ];
    phase = ri 10;
    phases = 8;
  }

let test_outage_validation () =
  let sc = crash_scenario () in
  (* default validation still rejects outages... *)
  Alcotest.check_raises "rejected by default"
    (Invalid_argument "Dynamic_sched: multipliers must stay positive")
    (fun () -> Dy.validate_scenario sc);
  (* ...but the failure-aware paths accept them *)
  Dy.validate_scenario ~allow_outages:true sc;
  (* strategies that divide by multipliers refuse to run the scenario *)
  List.iter
    (fun strat ->
      Alcotest.check_raises "planner division strategies refuse"
        (Invalid_argument "Dynamic_sched: multipliers must stay positive")
        (fun () -> ignore (Dy.run sc strat)))
    [ Dy.Reactive; Dy.Oracle ];
  (* negative multipliers are rejected everywhere *)
  let neg = { sc with Dy.cpu_traces = [ (1, [ (ri 5, R.neg R.one) ]) ] } in
  Alcotest.check_raises "negative rejected even with outages"
    (Invalid_argument "Dynamic_sched: negative multiplier") (fun () ->
      Dy.validate_scenario ~allow_outages:true neg)

(* One trace per subject: the planner and the simulator must not read
   two different ones.  A node or an edge named twice (a dead CPU then a
   slow one, a dead link then a slow one) is refused, naming it, by
   every entry point that reads the traces. *)
let test_repeated_subject () =
  let sc = crash_scenario () in
  let p = sc.Dy.platform in
  let dead = [ (ri 10, R.zero) ] and slow = [ (ri 10, r 1 2) ] in
  let refused sc msg =
    List.iter
      (fun (what, f) ->
        Alcotest.check_raises what (Invalid_argument msg) (fun () -> f sc))
      [
        ("robust", fun sc -> ignore (Dy.run sc Dy.Robust));
        ("static", fun sc -> ignore (Dy.run sc Dy.Static));
        ( "surviving platform",
          fun sc -> ignore (Dy.surviving_platform sc ~at:R.one) );
        ("fault bound", fun sc -> ignore (Dy.fault_throughput_bound sc));
      ]
  in
  refused
    { sc with Dy.cpu_traces = [ (1, dead); (1, slow) ] }
    (Printf.sprintf "Dynamic_sched: node %s has two traces"
       (Platform.name p 1));
  refused
    { sc with Dy.bw_traces = (2, dead) :: (2, slow) :: sc.Dy.bw_traces }
    (Printf.sprintf "Dynamic_sched: edge %s has two traces"
       (Platform.edge_name p 2))

let test_robust_beats_static_on_crash () =
  let sc = crash_scenario () in
  let s = Dy.run sc Dy.Static in
  let rb = Dy.run sc Dy.Robust in
  Alcotest.(check bool) "static does some work before the cut" true
    R.Infix.(s.Dy.completed > R.zero);
  Alcotest.(check bool) "robust strictly beats static" true
    R.Infix.(rb.Dy.completed > s.Dy.completed);
  (* per-epoch LP bound: 3 healthy phases at rate 1, then the surviving
     subplatform (best slave gone) is worth exactly 1/2 per time unit *)
  Alcotest.check rat "fault bound" (ri 55) (Dy.fault_throughput_bound sc);
  Alcotest.(check bool) "robust within the fault bound" true
    R.Infix.(rb.Dy.completed <= Dy.fault_throughput_bound sc);
  let l = rb.Dy.losses in
  Alcotest.(check bool) "in-flight transfers were re-routed" true
    (l.Dy.cancelled_transfers + l.Dy.timed_out_transfers > 0);
  Alcotest.(check int) "both directions of the link are dead" 2
    l.Dy.dead_edges;
  Alcotest.(check int) "the slave behind it is unreachable" 1 l.Dy.dead_nodes;
  Alcotest.(check int) "no degraded phase" 0 l.Dy.degraded_phases;
  (* static suffered but reported no losses: it never looks *)
  Alcotest.(check bool) "static reports no losses" true
    (s.Dy.losses = Dy.no_losses)

let test_robust_with_recovery () =
  let sc =
    {
      (crash_scenario ()) with
      Dy.bw_traces =
        [
          (0, [ (ri 25, R.zero); (ri 55, R.one) ]);
          (1, [ (ri 25, R.zero); (ri 55, R.one) ]);
        ];
    }
  in
  let s = Dy.run sc Dy.Static in
  let rb = Dy.run sc Dy.Robust in
  Alcotest.(check bool) "robust at least static" true
    R.Infix.(rb.Dy.completed >= s.Dy.completed);
  Alcotest.(check bool) "robust within the fault bound" true
    R.Infix.(rb.Dy.completed <= Dy.fault_throughput_bound sc);
  Alcotest.(check int) "everything recovered" 0 rb.Dy.losses.Dy.dead_edges;
  Alcotest.(check int) "no dead nodes" 0 rb.Dy.losses.Dy.dead_nodes

let test_robust_no_faults_matches_static () =
  (* on a stable platform the failure machinery must be inert *)
  let sc = { (scenario ()) with Dy.cpu_traces = [] } in
  let s = Dy.run sc Dy.Static in
  let rb = Dy.run sc Dy.Robust in
  Alcotest.check rat "identical completed work" s.Dy.completed rb.Dy.completed;
  Alcotest.(check bool) "no losses" true (rb.Dy.losses = Dy.no_losses)

let test_master_isolated () =
  let p = fault_star () in
  let sc =
    {
      Dy.platform = p;
      master = 0;
      cpu_traces = [];
      bw_traces =
        List.map (fun e -> (e, [ (R.zero, R.zero) ])) (Platform.edges p);
      phase = ri 10;
      phases = 4;
    }
  in
  (* no exception escapes: the run degrades into a structured report *)
  let rb = Dy.run sc Dy.Robust in
  Alcotest.check rat "throughput 0" R.zero rb.Dy.completed;
  Alcotest.(check int) "every phase degraded" 4 rb.Dy.losses.Dy.degraded_phases;
  Alcotest.(check int) "all edges dead" 6 rb.Dy.losses.Dy.dead_edges;
  Alcotest.(check int) "all slaves unreachable" 3 rb.Dy.losses.Dy.dead_nodes;
  Alcotest.check rat "fault bound is 0" R.zero (Dy.fault_throughput_bound sc);
  (* the static baseline also survives (it strands, silently) *)
  let s = Dy.run sc Dy.Static in
  Alcotest.check rat "static also 0" R.zero s.Dy.completed

let test_mid_run_isolation () =
  let p = fault_star () in
  let sc =
    {
      Dy.platform = p;
      master = 0;
      cpu_traces = [];
      bw_traces =
        List.map (fun e -> (e, [ (ri 20, R.zero) ])) (Platform.edges p);
      phase = ri 10;
      phases = 8;
    }
  in
  let rb = Dy.run sc Dy.Robust in
  Alcotest.(check bool) "work before the isolation" true
    R.Infix.(rb.Dy.completed > R.zero);
  Alcotest.(check int) "remaining phases degraded" 6
    rb.Dy.losses.Dy.degraded_phases;
  Alcotest.(check bool) "within the fault bound" true
    R.Infix.(rb.Dy.completed <= Dy.fault_throughput_bound sc)

let test_surviving_platform () =
  let sc = crash_scenario () in
  let restr = Dy.surviving_platform sc ~at:(ri 30) in
  Alcotest.(check int) "slave 1 dropped" (-1) restr.Platform.sub_of_node.(1);
  Alcotest.(check int) "three survivors" 3
    (Platform.num_nodes restr.Platform.sub);
  Alcotest.(check int) "four surviving edges" 4
    (Platform.num_edges restr.Platform.sub);
  Alcotest.(check int) "master kept" 0 restr.Platform.sub_of_node.(0);
  (* before the fault nothing is restricted *)
  let before = Dy.surviving_platform sc ~at:(ri 10) in
  Alcotest.(check int) "all nodes before the fault" 4
    (Platform.num_nodes before.Platform.sub);
  Alcotest.(check int) "all edges before the fault" 6
    (Platform.num_edges before.Platform.sub);
  Alcotest.(check int) "identity node map" 1 before.Platform.sub_of_node.(1);
  (* a compute-dead but reachable node survives as a relay *)
  let sc2 =
    { sc with Dy.bw_traces = []; cpu_traces = [ (1, [ (ri 25, R.zero) ]) ] }
  in
  let restr2 = Dy.surviving_platform sc2 ~at:(ri 30) in
  Alcotest.(check int) "all nodes kept" 4
    (Platform.num_nodes restr2.Platform.sub);
  Alcotest.(check bool) "dead CPU becomes a relay" true
    (Platform.weight restr2.Platform.sub restr2.Platform.sub_of_node.(1)
    = Ext_rat.Inf)

let test_no_slave_survives () =
  (* every slave CPU dies at t=0: the master still reaches them all
     over live links, but not one unit of compute power survives *)
  let p = fault_star () in
  let sc =
    {
      Dy.platform = p;
      master = 0;
      cpu_traces = List.map (fun i -> (i, [ (R.zero, R.zero) ])) [ 1; 2; 3 ];
      bw_traces = [];
      phase = ri 10;
      phases = 4;
    }
  in
  (* the restriction keeps every node — reachable CPUs degrade to pure
     relays — and the LP over the all-relay platform answers 0 *)
  let restr = Dy.surviving_platform sc ~at:R.zero in
  Alcotest.(check int) "all nodes reachable as relays" 4
    (Platform.num_nodes restr.Platform.sub);
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d is a relay" i)
        true
        (Platform.weight restr.Platform.sub i = Ext_rat.Inf))
    (Platform.nodes restr.Platform.sub);
  (match
     Master_slave.try_solve restr.Platform.sub
       ~master:restr.Platform.sub_of_node.(0)
   with
  | Ok sol -> Alcotest.check rat "zero throughput" R.zero sol.Master_slave.ntask
  | Error _ -> Alcotest.fail "all-relay platform must still be solvable");
  (* the per-epoch bound degrades to 0 and the Robust run completes
     nothing — a structured outcome, not an exception *)
  Alcotest.check rat "fault bound is zero" R.zero
    (Dy.fault_throughput_bound sc);
  let rb = Dy.run sc Dy.Robust in
  Alcotest.check rat "nothing completed" R.zero rb.Dy.completed;
  Alcotest.(check int) "every phase degraded" 4
    rb.Dy.losses.Dy.degraded_phases;
  (* Platform.restrict down to the master alone: the pathological
     sub-platform still solves to 0 rather than raising *)
  let alone =
    Platform.restrict p ~keep_node:(fun i -> i = 0) ~keep_edge:(fun _ -> true)
  in
  Alcotest.(check int) "master alone" 1 (Platform.num_nodes alone.Platform.sub);
  Alcotest.(check int) "no surviving edges" 0
    (Platform.num_edges alone.Platform.sub);
  match Master_slave.try_solve alone.Platform.sub ~master:0 with
  | Ok sol ->
    Alcotest.check rat "master-only throughput" R.zero sol.Master_slave.ntask
  | Error _ -> Alcotest.fail "master-only platform must still be solvable"

let prop_trace_agreement =
  (* the planner's compiled-array interpretation and the simulator's
     must agree on every trace — including unsorted entries, duplicate
     breakpoints, zero multipliers and entries beyond the horizon — at
     arbitrary times and exactly on breakpoints *)
  QCheck.Test.make ~count:300 ~name:"planner and simulator agree on traces"
    (QCheck.make
       QCheck.Gen.(
         let* entries =
           list_size (int_range 0 8) (pair (int_range 0 20) (int_range 0 6))
         in
         let* on_breakpoint = bool in
         let* tq = int_range 0 40 in
         return (entries, on_breakpoint, tq)))
    (fun (entries, on_breakpoint, tq) ->
      let trace = List.map (fun (t, m) -> (ri t, r m 3)) entries in
      let t =
        if on_breakpoint && trace <> [] then
          fst (List.nth trace (tq mod List.length trace))
        else ri tq
      in
      let normalized = Dy.normalize_trace trace in
      (* the normalized trace must satisfy the simulator's validation *)
      let p =
        Platform.create ~names:[| "A" |] ~weights:[| Ext_rat.of_int 1 |]
          ~edges:[]
      in
      let _sim = Event_sim.create ~cpu_traces:[ (0, normalized) ] p in
      R.equal (Dy.multiplier_at trace t)
        (Event_sim.trace_multiplier normalized t))

(* The executors feed forecasters only for traced nodes and edges: an
   untraced one observes 1 at every boundary, which forecasts 1, as a
   forecaster never fed does.  Tracing every other node and edge with a
   breakpoint past the horizon gives each a forecaster, fed 1 at every
   boundary, and shifts the sequence number of every later simulator
   event by the same constant; the outcomes must not move.  Reactive
   refuses outages, so it runs the plan with each outage made a
   slowdown. *)
let prop_untraced_forecasters =
  QCheck.Test.make ~count:40
    ~name:"forecasters of untraced subjects change nothing"
    QCheck.(pair (int_bound 2) (int_bound 1_000_000))
    (fun (shape, seed) ->
      let nodes = 4 + (seed mod 4) in
      let p =
        match shape with
        | 0 ->
          Platform_gen.star ~master_weight:Ext_rat.inf
            ~slaves:
              (List.init (nodes - 1) (fun i ->
                   ( Ext_rat.of_int (1 + ((seed + i) mod 4)),
                     ri (1 + ((seed / 7) + i) mod 3) )))
            ()
        | 1 -> Platform_gen.random_tree ~seed ~nodes ()
        | _ ->
          Platform_gen.random_connected_graph ~seed ~nodes ~extra_edges:2 ()
      in
      let phase = ri 6 and phases = 7 in
      let horizon = R.mul_int phase phases in
      let plan =
        Faults.random_plan (Faults.generator ~seed) p ~master:0 ~horizon
          ~align:phase ~faults:3
      in
      let slowed =
        List.map
          (function
            | Faults.Node_crash (i, w) | Faults.Cpu_crash (i, w) ->
              Faults.Cpu_slow (i, w, r 1 4)
            | Faults.Link_cut (e, w) -> Faults.Link_slow (e, w, r 1 4)
            | f -> f)
          plan
      in
      let pad (cpu_traces, bw_traces) =
        let past = [ (R.add horizon R.one, R.one) ] in
        let rest size traced =
          List.filter_map
            (fun k -> if List.mem_assoc k traced then None else Some (k, past))
            (List.init size Fun.id)
        in
        ( cpu_traces @ rest (Platform.num_nodes p) cpu_traces,
          bw_traces @ rest (Platform.num_edges p) bw_traces )
      in
      let scenario (cpu_traces, bw_traces) =
        { Dy.platform = p; master = 0; cpu_traces; bw_traces; phase; phases }
      in
      List.for_all
        (fun (faults, strategy) ->
          let traces = Faults.traces p faults in
          Dy.outcomes_equal
            (Dy.run (scenario traces) strategy)
            (Dy.run (scenario (pad traces)) strategy))
        [ (plan, Dy.Robust); (slowed, Dy.Reactive) ])

(* --- multi-hop platforms: deliveries are store-and-forward relays --- *)

let relay_chain () =
  Platform_gen.chain
    ~weights:[ Ext_rat.inf; Ext_rat.inf; Ext_rat.of_int 1 ]
    ~cost:(ri 1) ()

let test_relay_chain_delivery () =
  (* M -> R -> C with a pure relay in the middle: every task file is
     store-and-forwarded over two hops before it can compute, so this
     exercises the path-decomposed executors end to end *)
  let sc =
    {
      Dy.platform = relay_chain ();
      master = 0;
      cpu_traces = [];
      bw_traces = [];
      phase = ri 10;
      phases = 4;
    }
  in
  let s = Dy.run sc Dy.Static in
  let rctv = (Dy.run sc Dy.Reactive).Dy.completed in
  let o = (Dy.run sc Dy.Oracle).Dy.completed in
  let rb = (Dy.run sc Dy.Robust).Dy.completed in
  Alcotest.(check bool) "relayed work lands" true
    R.Infix.(s.Dy.completed > R.zero);
  Alcotest.check rat "reactive matches static" s.Dy.completed rctv;
  Alcotest.check rat "oracle matches static" s.Dy.completed o;
  Alcotest.check rat "robust matches static" s.Dy.completed rb;
  Alcotest.(check bool) "within the oracle bound" true
    R.Infix.(s.Dy.completed <= Dy.oracle_throughput_bound sc);
  Alcotest.(check int) "one entry per phase" sc.Dy.phases
    (List.length s.Dy.per_phase);
  Alcotest.check rat "phases sum to total" s.Dy.completed
    (R.sum s.Dy.per_phase)

let test_relay_chain_cut_and_recover () =
  (* the mid-chain link dies and recovers: the robust executor must
     cancel the hop stranded on it, retry whole paths from the master,
     and settle the loss accounting exactly *)
  let p = relay_chain () in
  let cut =
    match Platform.find_edge p 1 2 with
    | Some e -> e
    | None -> Alcotest.fail "chain edge R->C missing"
  in
  let sc =
    {
      Dy.platform = p;
      master = 0;
      cpu_traces = [];
      bw_traces = [ (cut, [ (ri 10, R.zero); (ri 30, R.one) ]) ];
      phase = ri 10;
      phases = 4;
    }
  in
  let rb = Dy.run sc Dy.Robust in
  Alcotest.(check bool) "work lands despite the cut" true
    R.Infix.(rb.Dy.completed > R.zero);
  let l = rb.Dy.losses in
  Alcotest.(check bool) "stranded hops were cancelled" true
    (l.Dy.cancelled_transfers + l.Dy.timed_out_transfers > 0);
  Alcotest.(check int) "loss accounting settles"
    (l.Dy.timed_out_transfers + l.Dy.cancelled_transfers)
    (l.Dy.retries + l.Dy.lost_tasks);
  Alcotest.(check int) "link recovered" 0 l.Dy.dead_edges;
  Alcotest.(check int) "no node stays dead" 0 l.Dy.dead_nodes;
  (* the cut strands the only compute node for phases 1-2: no feasible
     plan exists there and the run must degrade structurally, not raise *)
  Alcotest.(check int) "cut phases degrade structurally" 2
    l.Dy.degraded_phases;
  Alcotest.check rat "phases sum to total" rb.Dy.completed
    (R.sum rb.Dy.per_phase)

let test_tree_multihop_stable () =
  (* on a stable random tree all strategies coincide: re-planning on
     the truth changes nothing when the truth never changes *)
  let sc =
    {
      Dy.platform = Platform_gen.random_tree ~seed:5 ~nodes:7 ();
      master = 0;
      cpu_traces = [];
      bw_traces = [];
      phase = ri 8;
      phases = 5;
    }
  in
  let s = Dy.run sc Dy.Static in
  let o = (Dy.run sc Dy.Oracle).Dy.completed in
  let rb = (Dy.run sc Dy.Robust).Dy.completed in
  Alcotest.(check bool) "tree delivers work" true
    R.Infix.(s.Dy.completed > R.zero);
  Alcotest.check rat "oracle matches static" s.Dy.completed o;
  Alcotest.check rat "robust matches static" s.Dy.completed rb;
  Alcotest.(check bool) "within the oracle bound" true
    R.Infix.(s.Dy.completed <= Dy.oracle_throughput_bound sc)

let test_multiplier_edge_cases () =
  (* entries beyond any horizon of interest are legal and inert early *)
  let tr = [ (ri 100, r 1 2) ] in
  Alcotest.check rat "before a far breakpoint" R.one
    (Dy.multiplier_at tr (ri 80));
  Alcotest.check rat "after it" (r 1 2) (Dy.multiplier_at tr (ri 200));
  (* duplicate breakpoints: the last entry wins on both paths, and
     normalization collapses them to one *)
  let dup = [ (ri 5, r 1 2); (ri 5, r 1 4); (ri 5, r 1 3) ] in
  Alcotest.check rat "planner keeps the last" (r 1 3)
    (Dy.multiplier_at dup (ri 5));
  Alcotest.check rat "simulator agrees" (r 1 3)
    (Event_sim.trace_multiplier (Dy.normalize_trace dup) (ri 5));
  Alcotest.(check int) "normalization collapses duplicates" 1
    (List.length (Dy.normalize_trace dup))

let fault_star_8 () =
  Platform_gen.star ~master_weight:Ext_rat.inf
    ~slaves:
      (List.init 8 (fun i ->
           (Ext_rat.of_ints (3 + (i mod 7)) 2, r (2 + (i mod 5)) 3)))
    ()

(* An 8-slave star whose cheapest links tie in cost, under seeded
   outages.  The closed form and the kernel reach the same throughput
   through different vertices, and per-path floors of either lose
   tasks (4 per nominal phase on the kernel's vertex, 3 on the closed
   form's).  The executors plan in whole tasks instead, with the
   integral sweep (5 per nominal phase); the pinned completions catch a
   planning path that loses work. *)
let test_star_plans_whole_tasks () =
  let p = fault_star_8 () in
  let phase = ri 4 and phases = 16 in
  let fault_free =
    { Dy.platform = p; master = 0; cpu_traces = []; bw_traces = []; phase;
      phases }
  in
  Alcotest.check rat "fault-free static" (ri 77)
    (Dy.run fault_free Dy.Static).Dy.completed;
  List.iter
    (fun (seed, static, robust) ->
      let plan =
        Faults.random_plan (Faults.generator ~seed) p ~master:0
          ~horizon:(R.mul_int phase phases) ~align:phase ~faults:4
      in
      let cpu_traces, bw_traces = Faults.traces p plan in
      let sc =
        { Dy.platform = p; master = 0; cpu_traces; bw_traces; phase; phases }
      in
      let label what = Printf.sprintf "seed %d %s" seed what in
      Alcotest.check rat (label "static") (ri static)
        (Dy.run sc Dy.Static).Dy.completed;
      Alcotest.check rat (label "robust") (ri robust)
        (Dy.run sc Dy.Robust).Dy.completed)
    [ (1, 63, 64); (2, 70, 70); (3, 77, 77); (4, 77, 77); (5, 65, 70) ]

(* --- the phase planner ------------------------------------------------ *)

let plan_total (paths, master_tasks) =
  List.fold_left (fun acc (_, k) -> acc + k) master_tasks paths

let plan_of p phase =
  match Dy.plan_phase p ~master:0 phase with
  | Some plan -> plan
  | None -> Alcotest.fail "no plan on a tree"

let cpu_count phase p v =
  match Platform.weight p v with
  | Ext_rat.Inf -> 0
  | Ext_rat.Fin w -> Bigint.to_int (R.floor (R.div phase w))

(* every path leaves the master and is connected, and every port and
   CPU stays within the phase *)
let check_within_phase label p phase (paths, master_tasks) =
  let sent = Array.make (Platform.num_edges p) 0 in
  let computed = Array.make (Platform.num_nodes p) 0 in
  computed.(0) <- master_tasks;
  List.iter
    (fun (path, k) ->
      if k <= 0 then Alcotest.failf "%s: empty path entry" label;
      let last =
        List.fold_left
          (fun at e ->
            if Platform.edge_src p e <> at then
              Alcotest.failf "%s: path not connected" label;
            sent.(e) <- sent.(e) + k;
            Platform.edge_dst p e)
          0 path
      in
      computed.(last) <- computed.(last) + k)
    paths;
  let within what v used =
    if R.compare used phase > 0 then
      Alcotest.failf "%s: %s of node %d busy %s > phase %s" label what v
        (R.to_string used) (R.to_string phase)
  in
  let port es =
    R.sum (List.map (fun e -> R.mul_int (Platform.edge_cost p e) sent.(e)) es)
  in
  List.iter
    (fun v ->
      (match Platform.weight p v with
      | Ext_rat.Inf ->
        if computed.(v) > 0 then Alcotest.failf "%s: relay %d computes" label v
      | Ext_rat.Fin w -> within "cpu" v (R.mul_int w computed.(v)));
      within "out-port" v (port (Platform.out_edges p v));
      within "in-port" v (port (Platform.in_edges p v)))
    (Platform.nodes p)

(* Exhaustive integral optimum of one phase on a tree rooted at node 0:
   every compute count within its CPU and every out-port within the
   phase, where a tree link carries what its subtree computes (each
   node's only in-link is its parent's, so its in-port is the parent
   link's load). *)
let brute_force p phase =
  let td = Option.get (Tree_decomp.detect p ~root:0) in
  let kids = Tree_eager_reference.children p td in
  let x = Array.make (Platform.num_nodes p) 0 in
  let rec subtree v =
    List.fold_left (fun acc (_, u) -> acc + subtree u) x.(v) kids.(v)
  in
  let reached = List.filter (fun v -> Tree_decomp.reached td v) (Platform.nodes p) in
  let feasible () =
    List.for_all
      (fun v ->
        R.compare
          (R.sum
             (List.map
                (fun (e, u) -> R.mul_int (Platform.edge_cost p e) (subtree u))
                kids.(v)))
          phase
        <= 0)
      reached
  in
  let best = ref 0 in
  let rec enum = function
    | [] ->
      if feasible () then best := max !best (Array.fold_left ( + ) 0 x)
    | v :: rest ->
      for k = 0 to cpu_count phase p v do
        x.(v) <- k;
        enum rest
      done;
      x.(v) <- 0
  in
  enum (List.filter (fun v -> v <> 0) reached);
  !best + cpu_count phase p 0

(* [sum_v floor(phase * alpha_v * speed_v)]: the whole tasks per-path
   floors keep of a vertex on a tree, where each computing node has one
   delivery path *)
let vertex_floors p phase alpha =
  List.fold_left
    (fun acc v ->
      acc
      + Bigint.to_int
          (R.floor (R.mul phase (R.mul alpha.(v) (Platform.speed p v)))))
    0 (Platform.nodes p)

let kernel_alpha p =
  let m, alpha_v, _ = Master_slave.build_lp p ~master:0 in
  match Lp.solve m with
  | Lp.Optimal sol -> Array.map (Lp.value sol) alpha_v
  | _ -> Alcotest.fail "tree LP not optimal"

let check_beats_vertices label p phase =
  let plan = plan_of p phase in
  check_within_phase label p phase plan;
  let total = plan_total plan in
  let kernel = vertex_floors p phase (kernel_alpha p) in
  let closed =
    vertex_floors p phase (Master_slave.solve p ~master:0).Master_slave.alpha
  in
  if total < kernel || total < closed then
    Alcotest.failf "%s: plan %d < vertex floors (kernel %d, closed form %d)"
      label total kernel closed

(* stars drawn like the recover workload's: weights 1-4, link costs
   (1-3)/(1-2) *)
let seeded_star ~seed ~slaves =
  let g = Faults.generator ~seed in
  let draw n = Faults.rand_int g n in
  Platform_gen.star ~master_weight:Ext_rat.inf
    ~slaves:
      (List.init slaves (fun _ ->
           (Ext_rat.of_int (1 + draw 4), R.of_ints (1 + draw 3) (1 + draw 2))))
    ()

let test_plan_brute_force () =
  (* small stars and trees (at most 4 slaves): the sweep's total is the
     exhaustive integral optimum, within the phase everywhere *)
  for seed = 1 to 60 do
    let phase = r (5 + (seed mod 9)) 2 in
    let slaves = 1 + (seed mod 4) in
    List.iter
      (fun (shape, p) ->
        let label = Printf.sprintf "%s seed %d" shape seed in
        let plan = plan_of p phase in
        check_within_phase label p phase plan;
        Alcotest.(check int) (label ^ ": integral optimum") (brute_force p phase)
          (plan_total plan))
      [
        ("star", seeded_star ~seed ~slaves);
        ( "tree",
          Platform_gen.random_tree ~seed ~nodes:(slaves + 1) ~cost_range:(1, 3) ()
        );
      ]
  done;
  (* a computing master; and links whose [phase / c] is far beyond
     [max_int], to a slave and to a relay whose own child absorbs
     little: the plan must not raise *)
  let tiny = R.of_string "1/1000000000000000000000000000000" in
  List.iter
    (fun (label, p, phase, total) ->
      let plan = plan_of p phase in
      check_within_phase label p phase plan;
      Alcotest.(check int) (label ^ ": integral optimum") (brute_force p phase)
        (plan_total plan);
      Alcotest.(check int) (label ^ ": total") total (plan_total plan))
    [
      ( "computing master",
        Platform_gen.star ~master_weight:(Ext_rat.of_int 3)
          ~slaves:[ (Ext_rat.of_int 2, r 1 2); (Ext_rat.of_int 1, ri 2) ]
          (),
        ri 7,
        7 );
      ( "fast star",
        Platform_gen.star ~master_weight:Ext_rat.inf
          ~slaves:[ (Ext_rat.of_int 1, tiny); (Ext_rat.of_int 2, ri 1) ]
          (),
        ri 10,
        15 );
      ( "fast chain",
        Platform.create ~names:[| "M"; "R"; "C" |]
          ~weights:[| Ext_rat.inf; Ext_rat.inf; Ext_rat.of_int 1 |]
          ~edges:[ (0, 1, tiny); (1, 2, ri 2) ],
        ri 10,
        5 );
    ]

let test_plan_beats_vertex_floors () =
  (* per-path floors of any optimal vertex move no more whole tasks than
     the sweep: the kernel's vertex and the closed form's, on the fault
     star, seeded stars and seeded random trees *)
  check_beats_vertices "8-slave fault star" (fault_star_8 ()) (ri 4);
  Alcotest.(check int) "8-slave fault star: 5 tasks per phase" 5
    (plan_total (plan_of (fault_star_8 ()) (ri 4)));
  for seed = 1 to 40 do
    check_beats_vertices
      (Printf.sprintf "star seed %d" seed)
      (seeded_star ~seed ~slaves:(3 + (seed mod 8)))
      (ri 10)
  done;
  for seed = 1 to 200 do
    check_beats_vertices
      (Printf.sprintf "random_tree seed %d" seed)
      (Platform_gen.random_tree ~seed ~nodes:(4 + (seed mod 9)) ())
      (r (7 + (seed mod 11)) 2)
  done

let suite =
  ( "dynamic",
    [
      Alcotest.test_case "stable platform" `Quick test_stable_platform_all_equal;
      Alcotest.test_case "adaptation beats static" `Quick test_adaptation_beats_static;
      Alcotest.test_case "phase accounting" `Quick test_phase_accounting;
      Alcotest.test_case "oracle tracks slowdown" `Quick test_oracle_tracks_slowdown;
      Alcotest.test_case "bandwidth perturbation" `Quick test_bandwidth_perturbation;
      Alcotest.test_case "multiplier_at" `Quick test_multiplier_at;
      Alcotest.test_case "trace order irrelevant" `Quick test_trace_order_irrelevant;
      Alcotest.test_case "reuse bit-identical" `Quick test_reuse_bit_identical;
      Alcotest.test_case "no cache: one kernel solve per plan LP" `Quick
        test_no_cache_solves_every_plan;
      Alcotest.test_case "validation" `Quick test_validation;
      Alcotest.test_case "outage validation" `Quick test_outage_validation;
      Alcotest.test_case "one trace per node and edge" `Quick
        test_repeated_subject;
      Alcotest.test_case "robust beats static on crash" `Quick
        test_robust_beats_static_on_crash;
      Alcotest.test_case "robust with recovery" `Quick test_robust_with_recovery;
      Alcotest.test_case "robust inert without faults" `Quick
        test_robust_no_faults_matches_static;
      Alcotest.test_case "master isolated" `Quick test_master_isolated;
      Alcotest.test_case "mid-run isolation" `Quick test_mid_run_isolation;
      Alcotest.test_case "surviving platform" `Quick test_surviving_platform;
      Alcotest.test_case "no slave survives" `Quick test_no_slave_survives;
      Alcotest.test_case "relay chain delivery" `Quick
        test_relay_chain_delivery;
      Alcotest.test_case "relay chain cut and recover" `Quick
        test_relay_chain_cut_and_recover;
      Alcotest.test_case "tree multi-hop stable" `Quick
        test_tree_multihop_stable;
      Alcotest.test_case "multiplier edge cases" `Quick
        test_multiplier_edge_cases;
      Alcotest.test_case "star plans in whole tasks" `Quick
        test_star_plans_whole_tasks;
      Alcotest.test_case "plan is the integral optimum" `Quick
        test_plan_brute_force;
      Alcotest.test_case "plan beats vertex floors" `Quick
        test_plan_beats_vertex_floors;
      QCheck_alcotest.to_alcotest prop_trace_agreement;
      QCheck_alcotest.to_alcotest prop_untraced_forecasters;
    ] )
