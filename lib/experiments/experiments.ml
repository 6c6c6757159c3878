module R = Rat
module P = Platform
module T = Exp_common

let rat = T.rat
let flt = T.flt

let fig1 = lazy (Platform_gen.figure1 ())
let fig1_sol = lazy (Master_slave.solve (Lazy.force fig1) ~master:0)

(* --- E1 --- *)

let e1_master_slave_lp () =
  let p = Lazy.force fig1 in
  let sol = Lazy.force fig1_sol in
  let rows =
    List.map
      (fun i ->
        let rate = R.mul sol.Master_slave.alpha.(i) (P.speed p i) in
        [
          P.name p i;
          Ext_rat.to_string (P.weight p i);
          rat sol.Master_slave.alpha.(i);
          rat rate;
        ])
      (P.nodes p)
  in
  {
    T.id = "E1";
    title = "master-slave steady state on the Figure 1 platform (ntask = "
            ^ rat sol.Master_slave.ntask ^ ")";
    headers = [ "node"; "w_i"; "alpha_i"; "tasks/time" ];
    rows;
    notes =
      [
        "paper: ntask(G) is the LP optimum and an upper bound on any \
         schedule (§3.1); measured: LP value 4/3 on our concrete Figure 1 \
         instance, alpha in [0,1] everywhere";
      ];
  }

(* --- E2 --- *)

let e2_reconstruction () =
  let p = Lazy.force fig1 in
  let sol = Lazy.force fig1_sol in
  let sched = Master_slave.schedule sol in
  let run = Master_slave.simulate ~periods:6 sol in
  let wf =
    match Schedule.check_well_formed sched with
    | Ok () -> "yes"
    | Error e -> "NO: " ^ e
  in
  {
    T.id = "E2";
    title = "periodic schedule reconstruction (§4.1)";
    headers = [ "quantity"; "value" ];
    rows =
      [
        [ "period T"; rat sched.Schedule.period ];
        [ "tasks per period"; rat (Schedule.tasks_per_period sched) ];
        [ "communication slots"; string_of_int (Schedule.slot_count sched) ];
        [ "|E| bound on slots"; string_of_int (P.num_edges p) ];
        [ "well-formed"; wf ];
        [ "strict one-port simulation"; "no conflict (6 periods)" ];
        [ "simulated tasks"; rat run.Master_slave.completed ];
        [ "analytic prediction"; rat run.Master_slave.expected ];
        [ "LP upper bound"; rat run.Master_slave.upper_bound ];
      ];
    notes =
      [
        "paper: the edge-colouring decomposition yields a polynomial \
         number (<= |E|) of matchings; measured: slots <= |E| and the \
         strict simulator accepts every period";
      ];
  }

(* --- E3 --- *)

let e3_asymptotic () =
  let sol = Lazy.force fig1_sol in
  let pts =
    Asymptotic.ratio_series sol ~task_counts:[ 10; 100; 1000; 10000; 100000 ]
  in
  {
    T.id = "E3";
    title = "asymptotic optimality: T(n) vs n/ntask (§4.2)";
    headers = [ "n"; "periods"; "T(n)"; "lower bound"; "ratio" ];
    rows =
      List.map
        (fun pt ->
          [
            string_of_int pt.Asymptotic.tasks;
            string_of_int pt.Asymptotic.periods;
            rat pt.Asymptotic.makespan;
            rat pt.Asymptotic.lower_bound;
            flt pt.Asymptotic.ratio;
          ])
        pts;
    notes =
      [
        (let gaps =
           List.rev_map
             (fun pt -> R.sub pt.Asymptotic.makespan pt.Asymptotic.lower_bound)
             pts
         in
         let settled =
           match gaps with g :: g' :: _ -> R.equal g g' | _ -> false
         in
         Printf.sprintf
           "paper: tasks done in K time units are optimal up to a constant \
            independent of K; measured: ratio -> 1, and the absolute gap \
            T(n) - n/ntask %s %s time units on this platform"
           (if settled then "settles at" else "ends at")
           (rat (List.hd gaps)));
      ];
  }

(* --- E4 --- *)

let e4_scatter () =
  let p = Lazy.force fig1 in
  let sol = Scatter.solve p ~source:0 ~targets:[ 3; 5 ] in
  let sched = Scatter.schedule sol in
  let run = Scatter.simulate ~periods:6 sol in
  {
    T.id = "E4";
    title = "pipelined scatter from P1 to {P4, P6} (§3.2)";
    headers = [ "quantity"; "value" ];
    rows =
      [
        [ "throughput TP"; rat sol.Collective.throughput ];
        [ "period"; rat sched.Schedule.period ];
        [ "slots"; string_of_int (Schedule.slot_count sched) ];
        [ "delivered to P4 (6 periods)"; rat run.Scatter.delivered.(0) ];
        [ "delivered to P6 (6 periods)"; rat run.Scatter.delivered.(1) ];
        [ "per-target bound"; rat run.Scatter.upper_bound ];
        [ "strict simulation"; "no conflict; edge totals match exactly" ];
      ];
    notes =
      [
        "paper: the scatter LP bound is achievable (§4.1-4.2); measured: \
         reconstruction executes strictly and deliveries approach TP*t \
         with a constant ramp-up deficit";
      ];
  }

(* --- E5 --- *)

let e5_multicast_counterexample () =
  let p, src, targets = Platform_gen.multicast_fig2 () in
  let maxb = Multicast.max_lp_bound p ~source:src ~targets in
  let sumb = Multicast.scatter_lower_bound p ~source:src ~targets in
  let pack = Multicast.best_tree_packing p ~source:src ~targets in
  let heur = Multicast.heuristic_packing p ~source:src ~targets in
  let single = Multicast.best_single_tree p ~source:src ~targets in
  let e34 = Option.get (P.find_edge p 3 4) in
  let f5 = maxb.Collective.flows.(0).(e34) in
  let f6 = maxb.Collective.flows.(1).(e34) in
  let true_load = R.mul (R.add f5 f6) (P.edge_cost p e34) in
  {
    T.id = "E5";
    title = "multicast counterexample on the Figure 2 platform (§4.3, Fig. 3)";
    headers = [ "quantity"; "value" ];
    rows =
      [
        [ "max-LP bound (Fig. 3 relaxation)"; rat maxb.Collective.throughput ];
        [ "sum-LP (scatter) lower bound"; rat sumb.Collective.throughput ];
        [ "best single tree"; (match single with Some (_, r) -> rat r | None -> "-") ];
        [ "heuristic tree packing ([7])"; rat heur.Multicast.throughput ];
        [ "best tree packing (achievable)"; rat pack.Multicast.throughput ];
        [ "P5-flow on P3->P4 (Fig. 3a)"; rat f5 ];
        [ "P6-flow on P3->P4 (Fig. 3b)"; rat f6 ];
        [ "true busy fraction of P3->P4"; rat true_load ];
        [ "edge capacity"; "1" ];
      ];
    notes =
      [
        "paper: the max-LP says one message per time unit, yet the a/b \
         messages conflict on P3->P4 (Fig. 3d) and no schedule meets the \
         bound; measured: both kinds flow at 1/2 through P3->P4, true \
         load 2 > 1, achievable packing 3/4 < 1";
        "paper reports the gap qualitatively; our tree-packing LP \
         quantifies the best tree-based schedule at exactly 3/4";
      ];
  }

(* --- E6 --- *)

let e6_broadcast () =
  let rows =
    List.map
      (fun (label, p, src) ->
        let met, bound, achieved = Broadcast.bound_met p ~source:src in
        [ label; rat bound; rat achieved; (if met then "yes" else "NO") ])
      [
        (let p, src, _ = Platform_gen.multicast_fig2 () in
         ("figure 2 platform", p, src));
        ("random tree (seed 3, n=6)", Platform_gen.random_tree ~seed:3 ~nodes:6 (), 0);
        ("random tree (seed 9, n=7)", Platform_gen.random_tree ~seed:9 ~nodes:7 (), 0);
        ("3-spoke star", Platform_gen.star ~master_weight:Ext_rat.inf
           ~slaves:[ (Ext_rat.inf, R.one); (Ext_rat.inf, R.one); (Ext_rat.inf, R.one) ] (), 0);
      ];
  in
  {
    T.id = "E6";
    title = "broadcast: the max-LP bound is achievable (§4.3, [5])";
    headers = [ "platform"; "LP bound"; "tree packing"; "met" ];
    rows;
    notes =
      [
        "paper: contrarily to multicast, the broadcast bound with the max \
         operator is achievable; measured: tree packings meet the bound \
         on every exemplar";
      ];
  }

(* --- E7 --- *)

let e7_send_receive () =
  let instances =
    [
      ("figure 1", Lazy.force fig1);
      ("random graph (seed 5, n=7)", Platform_gen.random_graph ~seed:5 ~nodes:7 ~extra_edges:4 ());
      ("random graph (seed 8, n=8)", Platform_gen.random_graph ~seed:8 ~nodes:8 ~extra_edges:5 ());
      ("chain w=1 c=1/2",
       P.create ~names:[| "M"; "A"; "B" |]
         ~weights:[| Ext_rat.of_int 1; Ext_rat.of_int 1; Ext_rat.of_int 1 |]
         ~edges:[ (0, 1, R.of_ints 1 2); (1, 2, R.of_ints 1 2) ]);
      (* adversarial odd-cycle relays: the constructed family whose
         conflict graph is C_{2k+1}, pinning the greedy at 2/3 *)
      ("odd-cycle relay k=1", Platform_gen.odd_cycle_relay ~k:1 ());
      ("odd-cycle relay k=3", Platform_gen.odd_cycle_relay ~k:3 ());
      ("odd-cycle relay k=5", Platform_gen.odd_cycle_relay ~k:5 ());
    ]
  in
  let worst = ref R.one in
  let rows =
    List.map
      (fun (label, p) ->
        let full = (Master_slave.solve p ~master:0).Master_slave.ntask in
        let sol = Send_receive.solve p ~master:0 in
        let g = Send_receive.greedy_reconstruct sol in
        if not (R.is_zero sol.Master_slave.ntask) then
          worst := R.min !worst g.Send_receive.efficiency;
        [
          label;
          rat full;
          rat sol.Master_slave.ntask;
          rat g.Send_receive.achieved;
          rat g.Send_receive.efficiency;
        ])
      instances
  in
  let rows = rows @ [ [ "worst ratio found"; "-"; "-"; "-"; rat !worst ] ] in
  {
    T.id = "E7";
    title = "send-OR-receive model (§5.1.1)";
    headers =
      [ "platform"; "full-duplex ntask"; "half-duplex bound"; "greedy achieved"; "efficiency" ];
    rows;
    notes =
      [
        "paper: the LP adapts trivially but reconstruction becomes \
         NP-hard edge colouring; measured: the greedy rounds stay within \
         a factor 2 (here well above 0.5 efficiency, often 1)";
        "adversarial odd-cycle relays (Platform_gen.odd_cycle_relay) pin \
         the greedy's worst case at exactly 2/3 for every k: all 2k+1 \
         links busy T/2, conflict graph C_{2k+1} is 3-chromatic, so any \
         round decomposition costs >= 3T/2";
      ];
  }

(* --- E8 --- *)

let e8_startup_costs () =
  let startup _ = R.two in
  let _sol, pts =
    Startup_costs.sweep (Lazy.force fig1) ~master:0 ~startup
      ~task_counts:[ 100; 1000; 10000; 100000; 1000000 ]
  in
  {
    T.id = "E8";
    title = "start-up costs with sqrt(n) grouping (§5.2), C = 2 on every edge";
    headers = [ "n"; "m = ceil(sqrt(n/ntask))"; "mega-periods"; "T(n)"; "ratio" ];
    rows =
      List.map
        (fun pt ->
          [
            string_of_int pt.Startup_costs.tasks;
            string_of_int pt.Startup_costs.m;
            string_of_int pt.Startup_costs.mega_periods;
            rat pt.Startup_costs.makespan;
            flt pt.Startup_costs.ratio;
          ])
        pts;
    notes =
      [
        "paper: T(n)/Topt(n) <= 1 + O(1/sqrt(n)); measured: the ratio \
         falls with n at the predicted square-root pace";
      ];
  }

(* --- E9 --- *)

let e9_fixed_period () =
  let sol, series =
    Fixed_period.sweep (Lazy.force fig1) ~master:0
      ~periods:(List.map R.of_int [ 3; 6; 12; 24; 48; 96; 192 ])
  in
  {
    T.id = "E9";
    title = "fixed-length periods (§5.4); optimum ntask = "
            ^ rat sol.Master_slave.ntask;
    headers = [ "period T"; "tasks/period"; "throughput"; "optimal?" ];
    rows =
      List.map
        (fun (t, q) ->
          [
            rat t;
            rat q.Fixed_period.tasks_per_period;
            rat q.Fixed_period.throughput;
            (if R.equal q.Fixed_period.throughput sol.Master_slave.ntask then
               "yes"
             else "below");
          ])
        series;
    notes =
      [
        (let optimal (_, q) =
           R.equal q.Fixed_period.throughput sol.Master_slave.ntask
         in
         let natural = (Master_slave.schedule sol).Schedule.period in
         let rec from = function
           | [] -> None
           | (t, _) :: _ as rest when List.for_all optimal rest -> Some t
           | _ :: rest -> from rest
         in
         Printf.sprintf
           "paper: fixed-period throughput tends to the optimum as T grows; \
            measured: %s (the natural period is T = %s)"
           (match from series with
           | Some t -> "exact optimum at every swept period from T = " ^ rat t
           | None -> "the longest swept period is still below the optimum")
           (rat natural));
      ];
  }

(* --- E10 --- *)

let e10_dynamic () =
  let p =
    Platform_gen.star ~master_weight:Ext_rat.inf
      ~slaves:[ (Ext_rat.of_int 1, R.one); (Ext_rat.of_int 2, R.two) ]
      ()
  in
  let sc =
    {
      Dynamic_sched.platform = p;
      master = 0;
      cpu_traces = [ (1, [ (R.of_int 20, R.of_ints 1 4); (R.of_int 50, R.one) ]) ];
      bw_traces = [];
      phase = R.of_int 10;
      phases = 8;
    }
  in
  (* a star: every phase plan and the bound are closed forms, no LP *)
  let run s = Dynamic_sched.run sc s in
  let st = run Dynamic_sched.Static in
  let re = run Dynamic_sched.Reactive in
  let o = run Dynamic_sched.Oracle in
  let bound = Dynamic_sched.oracle_throughput_bound sc in
  let row label (out : Dynamic_sched.outcome) =
    [
      label;
      rat out.Dynamic_sched.completed;
      flt (R.to_float out.Dynamic_sched.completed /. R.to_float bound);
    ]
  in
  {
    T.id = "E10";
    title =
      "dynamic phases (§5.5): slave 1 at 1/4 speed during phases 2-4 \
       (oracle LP bound " ^ rat bound ^ ")";
    headers = [ "strategy"; "tasks completed"; "fraction of oracle bound" ];
    rows =
      [
        row "static (plan once)" st;
        row "reactive (NWS forecast)" re;
        row "oracle (true speeds)" o;
      ];
    notes =
      [
        "paper: recomputing the LP per phase adapts to changing resource \
         performance; measured: static backlogs during the slowdown and \
         never recovers the loss, reactive tracks the oracle";
      ];
  }

(* --- E11 --- *)

let e11_dag_collections () =
  let p = Lazy.force fig1 in
  let cases =
    [
      ("master-slave as 2-task DAG", Dag_sched.master_slave_dag ~master:0);
      ("pipeline [1;2]", Dag_sched.pipeline_dag ~master:0 ~stages:[ R.one; R.two ] ());
      ("pipeline [1;1;1]",
       Dag_sched.pipeline_dag ~master:0 ~stages:[ R.one; R.one; R.one ] ());
      ("fork-join [1;1;2]",
       Dag_sched.fork_join_dag ~master:0 ~branches:[ R.one; R.one; R.two ] ());
    ]
  in
  let rows =
    List.map
      (fun (label, dag) ->
        let sol = Dag_sched.solve p dag in
        let inv =
          match Dag_sched.check_invariants sol with
          | Ok () -> "ok"
          | Error e -> "NO: " ^ e
        in
        [ label; rat sol.Dag_sched.throughput; inv ])
      cases
  in
  {
    T.id = "E11";
    title = "collections of identical DAGs on Figure 1 (§4.2)";
    headers = [ "DAG"; "instances/time"; "invariants" ];
    rows;
    notes =
      [
        "paper: the approach extends to DAGs with polynomially many \
         paths; measured: the 2-task DAG LP coincides exactly with the \
         §3.1 master-slave LP (4/3), heavier pipelines pay for their \
         extra files and stages";
      ];
  }

(* --- E12 --- *)

let e12_reduce () =
  let p = Lazy.force fig1 in
  let sources = [ 2; 4 ] in
  let g = Reduce_op.gather_throughput p ~sink:0 ~sources in
  let rd = Reduce_op.reduce_throughput p ~sink:0 ~sources in
  let chain =
    P.create ~names:[| "M"; "B"; "A" |]
      ~weights:[| Ext_rat.inf; Ext_rat.inf; Ext_rat.inf |]
      ~edges:[ (2, 1, R.one); (1, 0, R.one) ]
  in
  let gc = Reduce_op.gather_throughput chain ~sink:0 ~sources:[ 1; 2 ] in
  let rc = Reduce_op.reduce_throughput chain ~sink:0 ~sources:[ 1; 2 ] in
  let ring =
    P.create
      ~names:[| "P0"; "P1"; "P2" |]
      ~weights:[| Ext_rat.inf; Ext_rat.inf; Ext_rat.inf |]
      ~edges:
        [ (0, 1, R.one); (1, 0, R.one); (1, 2, R.one); (2, 1, R.one);
          (2, 0, R.one); (0, 2, R.one) ]
  in
  let a2a =
    (All_to_all.solve ring ~participants:[ 0; 1; 2 ]).Collective.throughput
  in
  {
    T.id = "E12";
    title = "gather and combining reduce (§4.2, [12])";
    headers = [ "platform"; "gather"; "reduce (combining)" ];
    rows =
      [
        [ "figure 1, sources {P3, P5} -> P1"; rat g; rat rd ];
        [ "chain A->B->M"; rat gc; rat rc ];
        [ "3-ring personalised all-to-all"; rat a2a; "(per ordered pair)" ];
      ];
    notes =
      [
        "paper: the scatter machinery transposes to reduce and \
         personalised all-to-all; measured: gather = scatter on the \
         transposed platform, and combining (max law) beats gather \
         exactly where relays can merge partial results (chain: 1 vs \
         1/2)";
      ];
  }

(* --- E14 --- *)

let e14_topology () =
  let p =
    P.create
      ~names:[| "M"; "S1"; "S2"; "A1"; "A2"; "B1"; "B2" |]
      ~weights:
        [| Ext_rat.inf; Ext_rat.inf; Ext_rat.inf;
           Ext_rat.of_int 1; Ext_rat.of_int 1; Ext_rat.of_int 1; Ext_rat.of_int 1 |]
      ~edges:
        [
          (0, 1, R.one); (0, 2, R.one);
          (1, 3, R.of_int 4); (1, 4, R.of_int 4);
          (2, 5, R.of_int 4); (2, 6, R.of_int 4);
        ]
  in
  let rep = Topology_probe.infer p ~master:0 ~hosts:[ 3; 4; 5; 6 ] in
  let cluster_str =
    String.concat " | "
      (List.map
         (fun c -> String.concat "," (List.map (P.name p) c))
         rep.Topology_probe.clusters)
  in
  let true_tp = (Master_slave.solve p ~master:0).Master_slave.ntask in
  let flat =
    Platform_gen.star ~master_weight:Ext_rat.inf
      ~slaves:
        (List.map
           (fun h -> (P.weight p h, R.inv (Topology_probe.measure_bandwidth p 0 h)))
           [ 3; 4; 5; 6 ])
      ()
  in
  let flat_tp = (Master_slave.solve flat ~master:0).Master_slave.ntask in
  {
    T.id = "E14";
    title = "probe-based topology inference (§5.3, ENV/AlNeM stand-in)";
    headers = [ "quantity"; "value" ];
    rows =
      [
        [ "true clusters"; "A1,A2 | B1,B2" ];
        [ "inferred clusters"; cluster_str ];
        [ "ntask on the true platform"; rat true_tp ];
        [ "ntask on the flat probe model"; rat flat_tp ];
      ];
    notes =
      [
        "paper: only a macroscopic view (which links are shared) is \
         needed, and probing is expensive and approximate; measured: \
         simultaneous-pair probes recover the cluster structure, while \
         the flat (tree-less) model misprices the platform";
      ];
  }

(* --- E15 --- *)

let e15_tree_crosscheck () =
  let rows =
    List.map
      (fun (seed, n) ->
        let p = Platform_gen.random_tree ~seed ~nodes:n () in
        (* the monolithic LP: [Master_slave.solve] would take the tree
           closed form itself and stop being a cross-check *)
        let lp =
          match Master_slave.solve_lp_only p ~master:0 with
          | _, Lp.Optimal sol -> sol.Lp.objective
          | _ -> failwith "E15: LP not optimal"
        in
        let bc = Divisible.tree_throughput p ~root:0 in
        [
          Printf.sprintf "tree seed=%d n=%d" seed n;
          rat lp;
          rat bc;
          (if R.equal lp bc then "exact" else "MISMATCH");
        ])
      [ (1, 4); (2, 6); (3, 8); (4, 12); (5, 16); (6, 24) ]
  in
  {
    T.id = "E15";
    title = "LP vs bandwidth-centric closed form on trees ([3,11])";
    headers = [ "platform"; "LP ntask"; "closed form"; "agreement" ];
    rows;
    notes =
      [
        "paper (via [3]): on trees the optimal steady state is the \
         bandwidth-centric allocation; measured: exact rational equality \
         on every sampled tree";
      ];
  }

(* --- E16 --- *)

let e16_baselines () =
  let p =
    Platform_gen.star ~master_weight:(Ext_rat.of_int 2)
      ~slaves:
        [
          (Ext_rat.of_int 1, R.one);
          (Ext_rat.of_int 1, R.of_int 4);
          (Ext_rat.of_int 4, R.one);
        ]
      ()
  in
  let h = R.of_int 100 in
  let bound = Baselines.steady_state_bound p ~master:0 h in
  let dd = Baselines.demand_driven p ~master:0 ~horizon:h in
  let dd3 = Baselines.demand_driven ~outstanding:3 p ~master:0 ~horizon:h in
  let rr = Baselines.round_robin p ~master:0 ~horizon:h in
  let row label completed =
    [ label; rat completed; flt (R.to_float completed /. R.to_float bound) ]
  in
  {
    T.id = "E16";
    title = "steady state vs online baselines (heterogeneous star, horizon 100)";
    headers = [ "scheduler"; "tasks"; "fraction of steady-state bound" ];
    rows =
      [
        row "steady-state LP bound" bound;
        row "demand-driven (prefetch 1)" dd.Baselines.completed;
        row "demand-driven (prefetch 3)" dd3.Baselines.completed;
        row "round-robin push" rr.Baselines.completed;
      ];
    notes =
      [
        "paper's motivation: heterogeneity defeats naive protocols; \
         measured: bandwidth-oblivious fairness wastes the fast link \
         (~2/3 of the optimum lost to serving slow links eagerly)";
      ];
  }

(* --- E17 --- *)

(* Verify the acceptance criterion of the failure layer: group the phase
   boundaries of a fault scenario into structurally-stable surviving
   epochs, and check that on every surviving epoch with compute power a
   cold LP solve on the restricted platform is {e exactly}
   achieved by a strict-mode periodic replay (rational equality:
   simulated completed work = analytic prediction, and tasks per period
   = ntask * period). *)
let epoch_replay sc =
  let boundaries =
    List.init sc.Dynamic_sched.phases (fun k ->
        R.mul_int sc.Dynamic_sched.phase k)
  in
  let epochs =
    List.fold_left
      (fun acc t ->
        let restr = Dynamic_sched.surviving_platform sc ~at:t in
        match acc with
        | last :: _ when P.equal last.P.sub restr.P.sub -> acc
        | _ -> restr :: acc)
      [] boundaries
    |> List.rev
  in
  let checked = ref 0 and exact = ref true in
  List.iter
    (fun restr ->
      let m = restr.P.sub_of_node.(sc.Dynamic_sched.master) in
      match Master_slave.try_solve restr.P.sub ~master:m with
      | Error _ -> () (* fully degraded epoch: nothing to replay *)
      | Ok sol when R.is_zero sol.Master_slave.ntask -> ()
      | Ok sol ->
          incr checked;
          let sched = Master_slave.schedule sol in
          let run = Master_slave.simulate ~periods:4 sol in
          let per_period =
            R.equal
              (Schedule.tasks_per_period sched)
              (R.mul sol.Master_slave.ntask sched.Schedule.period)
          in
          if
            not
              (per_period
              && R.equal run.Master_slave.completed run.Master_slave.expected)
          then exact := false)
    epochs;
  (!checked, List.length epochs, !exact)

let e17_faults () =
  let p =
    Platform_gen.star ~master_weight:Ext_rat.inf
      ~slaves:
        [
          (Ext_rat.of_int 1, R.one);
          (Ext_rat.of_int 2, R.two);
          (Ext_rat.of_int 3, R.of_int 3);
        ]
      ()
  in
  let mk faults =
    let cpu_traces, bw_traces = Faults.traces p faults in
    {
      Dynamic_sched.platform = p;
      master = 0;
      cpu_traces;
      bw_traces;
      phase = R.of_int 10;
      phases = 8;
    }
  in
  let w ?until from = { Faults.from; until } in
  (* star edges are mirrored: 0 = M->S1, 1 = S1->M *)
  let scenarios =
    [
      ( "slave 1 fail-stop at t=25",
        mk [ Faults.Node_crash (1, w (R.of_int 25)) ] );
      ( "link M<->S1 cut on [20,50)",
        mk
          [
            Faults.Link_cut (0, w ~until:(R.of_int 50) (R.of_int 20));
            Faults.Link_cut (1, w ~until:(R.of_int 50) (R.of_int 20));
          ] );
      ( "master isolated at t=20",
        mk (Faults.master_adjacent_cut p ~master:0 ~at:(R.of_int 20) ()) );
      ( "cascading slowdown (factor 1/2 waves)",
        mk
          (Faults.cascading_slowdown p ~master:0 ~at:(R.of_int 20)
             ~step:(R.of_int 10) ~factor:(R.of_ints 1 2)) );
    ]
  in
  let has_outage sc =
    List.exists
      (fun (_, tr) -> List.exists (fun (_, m) -> R.is_zero m) tr)
      (sc.Dynamic_sched.cpu_traces @ sc.Dynamic_sched.bw_traces)
  in
  let losses_of (out : Dynamic_sched.outcome) =
    let l = out.Dynamic_sched.losses in
    if l = Dynamic_sched.no_losses then "none"
    else
      Printf.sprintf
        "cancelled %d, timed out %d, retries %d, lost %d, degraded %d, dead \
         %dN/%dE"
        l.Dynamic_sched.cancelled_transfers l.Dynamic_sched.timed_out_transfers
        l.Dynamic_sched.retries l.Dynamic_sched.lost_tasks
        l.Dynamic_sched.degraded_phases l.Dynamic_sched.dead_nodes
        l.Dynamic_sched.dead_edges
  in
  let rows =
    List.concat_map
      (fun (name, sc) ->
        let bound = Dynamic_sched.fault_throughput_bound sc in
        let frac c =
          if R.is_zero bound then if R.is_zero c then "1.0000" else "-"
          else flt (R.to_float c /. R.to_float bound)
        in
        let run strat = Dynamic_sched.run sc strat in
        let strat_row label strat =
          let out = run strat in
          [
            name;
            label;
            rat out.Dynamic_sched.completed;
            frac out.Dynamic_sched.completed;
            losses_of out;
          ]
        in
        let na label =
          [ name; label; "n/a"; "-"; "plans divide by dead speeds" ]
        in
        let checked, total, exact = epoch_replay sc in
        let verdict =
          Printf.sprintf "epochs %d (%d degraded); surviving replay exact: %s"
            total (total - checked)
            (if exact then "yes" else "NO")
        in
        [
          [ name; "fault LP bound"; rat bound; "1.0000"; verdict ];
          strat_row "static (plan once)" Dynamic_sched.Static;
          (if has_outage sc then na "reactive (NWS forecast)"
           else strat_row "reactive (NWS forecast)" Dynamic_sched.Reactive);
          (if has_outage sc then na "oracle (true speeds)"
           else strat_row "oracle (true speeds)" Dynamic_sched.Oracle);
          strat_row "robust (failure-aware)" Dynamic_sched.Robust;
        ])
      scenarios
  in
  {
    T.id = "E17";
    title =
      "scheduling under fail-stop faults (§5.5 extended): star with 3 \
       slaves, phase 10, horizon 80";
    headers = [ "scenario"; "strategy"; "tasks"; "x bound"; "losses" ];
    rows;
    notes =
      [
        "the fault LP bound re-solves the steady-state LP on the \
         surviving subplatform of each epoch (solved cold); strict-mode \
         replay achieves it exactly on every surviving epoch — the \
         steady-state machinery is unaffected by *which* platform it \
         runs on, only the epoch boundaries are the faults' doing";
        "robust >= static on every scenario: boundary re-planning routes \
         around dead links, bounded retry re-submits timed-out task \
         files, and a master isolation degrades into a loss report \
         (throughput 0) instead of an exception";
        "reactive/oracle rows are n/a under outages by design: their \
         plans divide by predicted speeds, so validation rejects \
         multiplier-0 scenarios (E14 is topology inference; faults take \
         the next free id, E17)";
      ];
  }

let all () =
  List.map
    (fun e -> e ())
    [
      e1_master_slave_lp;
      e2_reconstruction;
      e3_asymptotic;
      e4_scatter;
      e5_multicast_counterexample;
      e6_broadcast;
      e7_send_receive;
      e8_startup_costs;
      e9_fixed_period;
      e10_dynamic;
      e11_dag_collections;
      e12_reduce;
      e14_topology;
      e15_tree_crosscheck;
      e16_baselines;
      e17_faults;
    ]
