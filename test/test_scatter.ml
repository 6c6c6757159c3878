(* Tests for §3.2 pipelined scatter. *)

module R = Rat
module E = Ext_rat
module P = Platform
module C = Collective

let r = R.of_ints
let ri = R.of_int
let rat = Alcotest.testable R.pp R.equal

(* source with two direct targets *)
let fork c1 c2 =
  P.create ~names:[| "S"; "A"; "B" |]
    ~weights:[| E.inf; E.inf; E.inf |]
    ~edges:[ (0, 1, c1); (0, 2, c2) ]

let test_fork_throughput () =
  (* one-port at S: TP * (c1 + c2) <= 1 *)
  let sol = Scatter.solve (fork (ri 1) (ri 1)) ~source:0 ~targets:[ 1; 2 ] in
  Alcotest.check rat "unit costs" (r 1 2) sol.C.throughput;
  let sol = Scatter.solve (fork (ri 1) (ri 3)) ~source:0 ~targets:[ 1; 2 ] in
  Alcotest.check rat "hetero costs" (r 1 4) sol.C.throughput

let test_single_target_is_path () =
  (* scatter to one target = max flow under port constraints *)
  let p =
    P.create ~names:[| "S"; "X"; "T" |]
      ~weights:[| E.inf; E.inf; E.inf |]
      ~edges:[ (0, 1, ri 2); (1, 2, ri 4) ]
  in
  let sol = Scatter.solve p ~source:0 ~targets:[ 2 ] in
  (* bottleneck: edge X->T can carry 1/4 msg per time unit *)
  Alcotest.check rat "bottleneck" (r 1 4) sol.C.throughput

let test_two_disjoint_paths () =
  (* with a single target, parallel routes cannot beat the one-port
     bound: every message still occupies the source's send port and the
     target's receive port for c time units *)
  let p =
    P.create ~names:[| "S"; "A"; "B"; "T" |]
      ~weights:[| E.inf; E.inf; E.inf; E.inf |]
      ~edges:[ (0, 1, ri 4); (0, 2, ri 4); (1, 3, ri 4); (2, 3, ri 4) ]
  in
  let sol = Scatter.solve p ~source:0 ~targets:[ 3 ] in
  Alcotest.check rat "port-bound, not path-bound" (r 1 4) sol.C.throughput

let test_route_selection () =
  (* a direct but expensive link loses to a cheap relayed route *)
  let p =
    P.create ~names:[| "S"; "A"; "T" |]
      ~weights:[| E.inf; E.inf; E.inf |]
      ~edges:[ (0, 2, ri 5); (0, 1, ri 1); (1, 2, ri 1) ]
  in
  let sol = Scatter.solve p ~source:0 ~targets:[ 2 ] in
  Alcotest.check rat "relayed route wins" (ri 1) sol.C.throughput;
  (* the expensive edge is unused in the optimal flow *)
  Alcotest.check rat "direct link idle" R.zero sol.C.flows.(0).(0)

let test_relay_target () =
  (* T1 relays the messages of T2: sum law forces both streams through
     S->T1 *)
  let p =
    P.create ~names:[| "S"; "T1"; "T2" |]
      ~weights:[| E.inf; E.inf; E.inf |]
      ~edges:[ (0, 1, ri 1); (1, 2, ri 1) ]
  in
  let sol = Scatter.solve p ~source:0 ~targets:[ 1; 2 ] in
  Alcotest.check rat "relay halves the rate" (r 1 2) sol.C.throughput

let test_invariants_checked () =
  let p = Platform_gen.figure1 () in
  let sol = Scatter.solve p ~source:0 ~targets:[ 3; 5 ] in
  (match Oracles.check_invariants sol with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.check rat "figure1 scatter value" (r 1 2) sol.C.throughput

let test_spec_validation () =
  let p = fork (ri 1) (ri 1) in
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "no targets" true
    (bad (fun () -> Scatter.solve p ~source:0 ~targets:[]));
  Alcotest.(check bool) "source target" true
    (bad (fun () -> Scatter.solve p ~source:0 ~targets:[ 0 ]));
  Alcotest.(check bool) "duplicate" true
    (bad (fun () -> Scatter.solve p ~source:0 ~targets:[ 1; 1 ]))

let test_unreachable_target_zero () =
  let p =
    P.create ~names:[| "S"; "T" |] ~weights:[| E.inf; E.inf |]
      ~edges:[ (1, 0, ri 1) ]
  in
  let sol = Scatter.solve p ~source:0 ~targets:[ 1 ] in
  Alcotest.check rat "zero throughput" R.zero sol.C.throughput

let test_schedule_and_simulation () =
  let p = Platform_gen.figure1 () in
  let sol = Scatter.solve p ~source:0 ~targets:[ 3; 5 ] in
  let sched = Scatter.schedule sol in
  (match Schedule.check_well_formed sched with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let run = Scatter.simulate ~periods:6 sol in
  Array.iter
    (fun d ->
      Alcotest.(check bool) "delivered within bound" true
        R.Infix.(d <= run.Scatter.upper_bound))
    run.Scatter.delivered;
  (* every target eventually receives at full rate: delivery deficit is
     constant, so over 2x the periods the deficit stays equal *)
  let run2 = Scatter.simulate ~periods:12 sol in
  Array.iteri
    (fun k d ->
      let deficit1 = R.sub run.Scatter.upper_bound d in
      let deficit2 = R.sub run2.Scatter.upper_bound run2.Scatter.delivered.(k) in
      Alcotest.check rat "constant deficit" deficit1 deficit2)
    run.Scatter.delivered

let test_gather_is_transposed_scatter () =
  let p = Platform_gen.figure1 () in
  let fwd = Scatter.solve p ~source:0 ~targets:[ 3; 5 ] in
  (* gather on the transpose of the transpose = original scatter *)
  let gat = Reduce_op.gather_throughput (P.transpose p) ~sink:0 ~sources:[ 3; 5 ] in
  Alcotest.check rat "transpose duality" fwd.C.throughput gat

let test_reduce_at_least_gather () =
  (* combining can only help *)
  let p = Platform_gen.figure1 () in
  let g = Reduce_op.gather_throughput p ~sink:0 ~sources:[ 3; 5 ] in
  let rd = Reduce_op.reduce_throughput p ~sink:0 ~sources:[ 3; 5 ] in
  Alcotest.(check bool) "reduce >= gather" true R.Infix.(rd >= g)

(* --- properties --- *)

let arb_spec =
  QCheck.make
    ~print:(fun (seed, n) -> Printf.sprintf "seed=%d n=%d" seed n)
    QCheck.Gen.(pair (int_range 0 300) (int_range 3 7))

let random_spec (seed, n) =
  let p = Platform_gen.random_graph ~seed ~nodes:n ~extra_edges:2 () in
  let targets = [ 1; n - 1 ] |> List.sort_uniq compare in
  (p, targets)

let prop_invariants =
  QCheck.Test.make ~name:"scatter invariants on random platforms" ~count:40
    arb_spec (fun spec ->
      let p, targets = random_spec spec in
      let sol = Scatter.solve p ~source:0 ~targets in
      match Oracles.check_invariants sol with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_report e)

let prop_max_ge_sum =
  QCheck.Test.make ~name:"max-law bound >= sum-law bound" ~count:40 arb_spec
    (fun spec ->
      let p, targets = random_spec spec in
      let sum_ = Scatter.solve p ~source:0 ~targets in
      let max_ = C.solve C.Max p ~source:0 ~targets in
      R.Infix.(max_.C.throughput >= sum_.C.throughput))

let prop_simulation_clean =
  QCheck.Test.make ~name:"scatter strict simulation passes" ~count:20 arb_spec
    (fun spec ->
      let p, targets = random_spec spec in
      let sol = Scatter.solve p ~source:0 ~targets in
      if R.is_zero sol.C.throughput then true
      else begin
        let run = Scatter.simulate ~periods:4 sol in
        Array.for_all (fun d -> R.Infix.(d <= run.Scatter.upper_bound))
          run.Scatter.delivered
      end)

(* An out-of-range source gets Collective.solve's named error, through
   every bound built on it, instead of an array index failure. *)
let test_source_out_of_range () =
  let p = Platform_gen.figure1 () in
  let err = Invalid_argument "Collective.solve: source out of range" in
  List.iter
    (fun (what, f) -> Alcotest.check_raises what err (fun () -> ignore (f ())))
    [
      ("collective sum", fun () -> C.solve C.Sum p ~source:99 ~targets:[ 1 ]);
      ("collective max", fun () -> C.solve C.Max p ~source:(-1) ~targets:[ 1 ]);
      ("scatter", fun () -> Scatter.solve p ~source:99 ~targets:[ 1; 2 ]);
      ("broadcast bound", fun () -> Broadcast.lp_bound p ~source:99);
      ( "multicast max bound",
        fun () -> Multicast.max_lp_bound p ~source:99 ~targets:[ 1 ] );
      ( "multicast scatter bound",
        fun () -> Multicast.scatter_lower_bound p ~source:99 ~targets:[ 1 ] );
    ];
  Alcotest.check_raises "solve_pairs"
    (Invalid_argument "Collective.solve_pairs: source out of range")
    (fun () -> ignore (C.solve_pairs C.Sum p ~pairs:[ (0, 1); (99, 2) ]))

let suite =
  let q = QCheck_alcotest.to_alcotest in
  ( "scatter",
    [
      Alcotest.test_case "fork throughput" `Quick test_fork_throughput;
      Alcotest.test_case "single target path" `Quick test_single_target_is_path;
      Alcotest.test_case "disjoint paths" `Quick test_two_disjoint_paths;
      Alcotest.test_case "route selection" `Quick test_route_selection;
      Alcotest.test_case "relay target" `Quick test_relay_target;
      Alcotest.test_case "figure1 + invariants" `Quick test_invariants_checked;
      Alcotest.test_case "spec validation" `Quick test_spec_validation;
      Alcotest.test_case "unreachable target" `Quick test_unreachable_target_zero;
      Alcotest.test_case "schedule + simulation" `Quick test_schedule_and_simulation;
      Alcotest.test_case "gather duality" `Quick test_gather_is_transposed_scatter;
      Alcotest.test_case "reduce >= gather" `Quick test_reduce_at_least_gather;
      Alcotest.test_case "source out of range" `Quick test_source_out_of_range;
      q prop_invariants;
      q prop_max_ge_sum;
      q prop_simulation_clean;
    ] )
