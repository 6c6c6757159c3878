(* Tests for §3.1 master–slave steady state: LP value against closed
   forms, schedule reconstruction, and simulated execution against the
   LP bound. *)

module R = Rat
module E = Ext_rat
module P = Platform
module MS = Master_slave

let r = R.of_ints
let ri = R.of_int
let rat = Alcotest.testable R.pp R.equal

let star master_weight slaves =
  Platform_gen.star ~master_weight
    ~slaves:(List.map (fun (w, c) -> (E.of_int w, ri c)) slaves)
    ()

let ntask p = (MS.solve p ~master:0).MS.ntask

(* single slave: master computes 1/w_m; slave bounded by link and speed *)
let test_single_slave () =
  Alcotest.check rat "fast link: slave cpu-bound" (ri 1)
    (ntask (star (E.of_int 2) [ (2, 1) ]));
  (* slow link: c=4, slave speed 1/2 -> link-bound at 1/4 *)
  Alcotest.check rat "slow link: slave link-bound" (r 3 4)
    (ntask (star (E.of_int 2) [ (2, 4) ]))

let test_pure_master () =
  (* no slaves: platform of one node *)
  let p = P.create ~names:[| "M" |] ~weights:[| E.of_int 3 |] ~edges:[] in
  Alcotest.check rat "master alone" (r 1 3) (ntask p)

let test_bandwidth_centric_star () =
  (* routing-only master, slaves (w, c) = (3,1), (2,2), (1,3):
     greedy by link cost: n1 = 1/3 (port 1/3), n2 = 1/3 (port 2/3 full),
     n3 = 0 -> ntask = 2/3 (the bandwidth-centric allocation of [3]) *)
  Alcotest.check rat "bandwidth-centric value" (r 2 3)
    (ntask (star E.inf [ (3, 1); (2, 2); (1, 3) ]))

let test_chain () =
  (* M -> A -> B with w=1, c=1/2: flows 2 and 1, everyone saturated *)
  let p =
    P.create ~names:[| "M"; "A"; "B" |]
      ~weights:[| E.of_int 1; E.of_int 1; E.of_int 1 |]
      ~edges:[ (0, 1, r 1 2); (1, 2, r 1 2) ]
  in
  Alcotest.check rat "chain throughput" (ri 3) (ntask p)

let test_figure1_value () =
  (* golden value for the concrete Figure 1 instance; revisit if the
     platform constants change *)
  let p = Platform_gen.figure1 () in
  Alcotest.check rat "figure 1 ntask" (r 4 3) (ntask p)

let test_unreachable_node_idle () =
  (* node C has no link: contributes nothing *)
  let p =
    P.create ~names:[| "M"; "A"; "C" |]
      ~weights:[| E.of_int 1; E.of_int 1; E.of_int 1 |]
      ~edges:[ (0, 1, ri 1); (1, 0, ri 1) ]
  in
  Alcotest.check rat "only M + A count" (ri 2) (ntask p)

let test_master_receives_nothing () =
  let p = Platform_gen.figure1 () in
  let sol = MS.solve p ~master:0 in
  List.iter
    (fun e ->
      Alcotest.check rat
        ("no flow into master via " ^ P.edge_name p e)
        R.zero sol.MS.send_frac.(e))
    (P.in_edges p 0)

let test_lp_solution_feasible () =
  (* the LP solution itself satisfies the model: independent re-check *)
  let p = Platform_gen.figure1 () in
  let m, result = MS.solve_lp_only p ~master:0 in
  match result with
  | Lp.Optimal s ->
    (match Lp.check_solution m s.Lp.values with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e)
  | Lp.Infeasible | Lp.Unbounded -> Alcotest.fail "LP not optimal"

let test_conservation_after_cancelling () =
  (* cycle cancelling must preserve the conservation law *)
  let p = Platform_gen.random_graph ~seed:42 ~nodes:8 ~extra_edges:6 () in
  let sol = MS.solve p ~master:0 in
  Alcotest.(check bool) "flow acyclic" true (Flow.is_acyclic p sol.MS.task_flow);
  List.iter
    (fun i ->
      if i <> 0 then begin
        let consumed = R.mul sol.MS.alpha.(i) (P.speed p i) in
        Alcotest.check rat
          ("conservation at " ^ P.name p i)
          consumed
          (Flow.balance p sol.MS.task_flow i)
      end)
    (P.nodes p)

let test_schedule_well_formed () =
  let p = Platform_gen.figure1 () in
  let sol = MS.solve p ~master:0 in
  let sched = MS.schedule sol in
  (match Schedule.check_well_formed sched with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* integer task counts per period *)
  List.iter
    (fun (_, w) ->
      Alcotest.(check bool) "integer compute" true (R.is_integer w))
    sched.Schedule.compute;
  List.iter
    (fun e ->
      Alcotest.(check bool) "integer transfer items" true
        (R.is_integer (Schedule.items_on_edge sched e ~kind:0)))
    (P.edges p);
  Alcotest.check rat "tasks per period = ntask * T"
    (R.mul sol.MS.ntask sched.Schedule.period)
    (Schedule.tasks_per_period sched)

let test_buffers_causal () =
  (* the logical buffer replay: no node ever spends tasks it has not
     received — on figure 1, on a mesh, and on random graphs *)
  List.iter
    (fun (label, p) ->
      let sol = MS.solve p ~master:0 in
      if not (R.is_zero sol.MS.ntask) then begin
        let sched = MS.schedule sol in
        match MS.check_buffers sched ~master:0 ~periods:12 with
        | Ok () -> ()
        | Error e -> Alcotest.fail (label ^ ": " ^ e)
      end)
    [
      ("figure1", Platform_gen.figure1 ());
      ("mesh 3x3", Platform_gen.mesh ~seed:4 ~rows:3 ~cols:3 ());
      ("random", Platform_gen.random_graph ~seed:23 ~nodes:8 ~extra_edges:5 ());
    ]

let test_buffers_detect_violation () =
  (* zeroing the delays breaks causality, and the replay catches it *)
  let p = Platform_gen.figure1 () in
  let sol = MS.solve p ~master:0 in
  let sched = MS.schedule sol in
  let eager = { sched with Schedule.delays = Array.make (P.num_nodes p) 0 } in
  let eager =
    {
      eager with
      Schedule.slots =
        List.map
          (fun s ->
            {
              s with
              Schedule.transfers =
                List.map
                  (fun tr -> { tr with Schedule.delay = 0 })
                  s.Schedule.transfers;
            })
          eager.Schedule.slots;
    }
  in
  match MS.check_buffers eager ~master:0 ~periods:4 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "missing delays should break causality"

let test_simulation_meets_bound () =
  let p = Platform_gen.figure1 () in
  let sol = MS.solve p ~master:0 in
  let run = MS.simulate ~periods:5 sol in
  Alcotest.check rat "simulated = analytic" run.MS.expected run.MS.completed;
  Alcotest.(check bool) "within the LP bound" true
    R.Infix.(run.MS.completed <= run.MS.upper_bound)

let test_constant_gap () =
  (* §4.2: tasks completed within K time units is optimal up to a
     constant independent of K *)
  let p = Platform_gen.figure1 () in
  let sol = MS.solve p ~master:0 in
  let gap periods =
    let run = MS.simulate ~periods sol in
    R.sub run.MS.upper_bound run.MS.completed
  in
  (* the gap settles once K exceeds the maximum pipeline delay (5 on the
     Figure 1 instance) and is constant from then on *)
  let g8 = gap 8 and g12 = gap 12 and g16 = gap 16 in
  Alcotest.check rat "gap constant 8 vs 12" g8 g12;
  Alcotest.check rat "gap constant 12 vs 16" g12 g16

(* --- properties on random platforms --- *)

let arb_platform =
  QCheck.make
    ~print:(fun (seed, n, extra) -> Printf.sprintf "seed=%d n=%d extra=%d" seed n extra)
    QCheck.Gen.(
      triple (int_range 0 1000) (int_range 2 10) (int_range 0 8))

let solve_random (seed, n, extra) =
  let p = Platform_gen.random_graph ~seed ~nodes:n ~extra_edges:extra () in
  (p, MS.solve p ~master:0)

let prop_bounds =
  QCheck.Test.make ~name:"master speed <= ntask <= total speed" ~count:60
    arb_platform (fun inst ->
      let p, sol = solve_random inst in
      let total =
        R.sum (List.map (fun i -> P.speed p i) (P.nodes p))
      in
      R.Infix.(P.speed p 0 <= sol.MS.ntask) && R.Infix.(sol.MS.ntask <= total))

let prop_schedule_reconstructs =
  QCheck.Test.make ~name:"reconstruction always well-formed" ~count:40
    arb_platform (fun inst ->
      let _, sol = solve_random inst in
      match Schedule.check_well_formed (MS.schedule sol) with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_report e)

let prop_simulation_exact =
  QCheck.Test.make ~name:"strict simulation matches analytic count" ~count:25
    arb_platform (fun inst ->
      let _, sol = solve_random inst in
      let run = MS.simulate ~periods:4 sol in
      R.equal run.MS.completed run.MS.expected
      && R.Infix.(run.MS.completed <= run.MS.upper_bound))

let prop_more_links_no_worse =
  QCheck.Test.make ~name:"adding links never lowers ntask" ~count:30
    (QCheck.pair (QCheck.int_range 0 500) (QCheck.int_range 3 8))
    (fun (seed, n) ->
      let sparse = Platform_gen.random_graph ~seed ~nodes:n ~extra_edges:0 () in
      let tree = ntask sparse in
      (* denser platform built on the same seed keeps the tree links *)
      let dense = Platform_gen.random_graph ~seed ~nodes:n ~extra_edges:4 () in
      ignore dense;
      (* same-structure comparison: scale all weights down instead *)
      let faster =
        P.create
          ~names:(Array.of_list (List.map (P.name sparse) (P.nodes sparse)))
          ~weights:
            (Array.of_list
               (List.map
                  (fun i ->
                    match P.weight sparse i with
                    | E.Inf -> E.Inf
                    | E.Fin w -> E.Fin (R.div_int w 2))
                  (P.nodes sparse)))
          ~edges:
            (List.map
               (fun e ->
                 (P.edge_src sparse e, P.edge_dst sparse e, P.edge_cost sparse e))
               (P.edges sparse))
      in
      R.Infix.(ntask faster >= tree))

(* An out-of-range master gets an error naming the entry point, not an
   array index failure. *)
let out_of_range fn f =
  let p = Platform_gen.figure1 () in
  List.iter
    (fun master ->
      Alcotest.check_raises
        (Printf.sprintf "master %d" master)
        (Invalid_argument (fn ^ ": master out of range"))
        (fun () -> ignore (f p ~master)))
    [ 99; P.num_nodes p; -1 ]

let test_solve_master_range () =
  out_of_range "Master_slave.solve" (fun p ~master -> MS.solve p ~master)

let test_try_solve_master_range () =
  out_of_range "Master_slave.try_solve" (fun p ~master ->
      MS.try_solve p ~master)

let test_build_lp_master_range () =
  out_of_range "Master_slave.build_lp" MS.build_lp

let suite =
  let q = QCheck_alcotest.to_alcotest in
  ( "master_slave",
    [
      Alcotest.test_case "single slave" `Quick test_single_slave;
      Alcotest.test_case "pure master" `Quick test_pure_master;
      Alcotest.test_case "bandwidth-centric star" `Quick test_bandwidth_centric_star;
      Alcotest.test_case "chain" `Quick test_chain;
      Alcotest.test_case "figure 1 value" `Quick test_figure1_value;
      Alcotest.test_case "unreachable idle" `Quick test_unreachable_node_idle;
      Alcotest.test_case "master receives nothing" `Quick test_master_receives_nothing;
      Alcotest.test_case "LP solution feasible" `Quick test_lp_solution_feasible;
      Alcotest.test_case "conservation after cancelling" `Quick test_conservation_after_cancelling;
      Alcotest.test_case "schedule well-formed" `Quick test_schedule_well_formed;
      Alcotest.test_case "buffers causal" `Quick test_buffers_causal;
      Alcotest.test_case "buffers detect violation" `Quick test_buffers_detect_violation;
      Alcotest.test_case "simulation meets bound" `Quick test_simulation_meets_bound;
      Alcotest.test_case "constant gap (asymptotic)" `Quick test_constant_gap;
      Alcotest.test_case "solve: master out of range" `Quick
        test_solve_master_range;
      Alcotest.test_case "try_solve: master out of range" `Quick
        test_try_solve_master_range;
      Alcotest.test_case "build_lp: master out of range" `Quick
        test_build_lp_master_range;
      q prop_bounds;
      q prop_schedule_reconstructs;
      q prop_simulation_exact;
      q prop_more_links_no_worse;
    ] )
