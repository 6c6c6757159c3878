(* Tests for §5.1.1: the send-or-receive model. *)

module R = Rat
module SR = Send_receive

let r = R.of_ints
let ri = R.of_int
let rat = Alcotest.testable R.pp R.equal

let test_bound_le_full_duplex () =
  (* halving port capability can only lower the optimum *)
  List.iter
    (fun seed ->
      let p = Platform_gen.random_graph ~seed ~nodes:6 ~extra_edges:3 () in
      let full = (Master_slave.solve p ~master:0).Master_slave.ntask in
      let half = (SR.solve p ~master:0).Master_slave.ntask in
      Alcotest.(check bool) "send-or-receive <= full duplex" true
        R.Infix.(half <= full))
    [ 1; 2; 3; 4; 5 ]

let test_star_unchanged () =
  (* on a star the master only sends and slaves only receive, so the
     halved port changes nothing *)
  let p =
    Platform_gen.star ~master_weight:Ext_rat.inf
      ~slaves:[ (Ext_rat.of_int 1, ri 1); (Ext_rat.of_int 2, ri 2) ]
      ()
  in
  let full = (Master_slave.solve p ~master:0).Master_slave.ntask in
  let half = (SR.solve p ~master:0).Master_slave.ntask in
  Alcotest.check rat "star unaffected" full half

let test_chain_relay_halved () =
  (* a relay that must both receive and send on one port: M -> A -> B,
     all w = 1, c = 1/2.  Full duplex gives 3 (see master-slave tests);
     here A's port must carry inflow (f1 * 1/2) + outflow (f2 * 1/2)
     <= 1 with f1 = alpha_A + f2, alpha <= 1: best is f1 = 3/2, f2 = 1/2
     wait: maximize 1 + f1 s.t. (f1 + f2)/2 <= 1, f1 <= 2 (M's port),
     f1 = a + f2, a <= 1, f2 <= 1 (B).  f1 + f2 <= 2 and f1 - f2 <= 1
     give f1 <= 3/2: total = 1 + 3/2 = 5/2 *)
  let p =
    Platform.create ~names:[| "M"; "A"; "B" |]
      ~weights:[| Ext_rat.of_int 1; Ext_rat.of_int 1; Ext_rat.of_int 1 |]
      ~edges:[ (0, 1, r 1 2); (1, 2, r 1 2) ]
  in
  let sol = SR.solve p ~master:0 in
  Alcotest.check rat "relay port halves throughput" (r 5 2) sol.Master_slave.ntask

let test_greedy_rounds_valid () =
  List.iter
    (fun seed ->
      let p = Platform_gen.random_graph ~seed ~nodes:7 ~extra_edges:4 () in
      let sol = SR.solve p ~master:0 in
      let g = SR.greedy_reconstruct sol in
      (match Oracles.check_rounds p g.SR.rounds with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      (* all communications fully scheduled: round volumes match the
         period volumes *)
      let scheduled = Array.make (Platform.num_edges p) R.zero in
      List.iter
        (fun round ->
          List.iter
            (fun (e, items) ->
              scheduled.(e) <- R.add scheduled.(e) items)
            round.SR.comms)
        g.SR.rounds;
      List.iter
        (fun e ->
          let expected = R.mul g.SR.period sol.Master_slave.task_flow.(e) in
          Alcotest.check rat "volume scheduled" expected scheduled.(e))
        (Platform.edges p))
    [ 3; 7; 11 ]

let test_efficiency_bounds () =
  List.iter
    (fun seed ->
      let p = Platform_gen.random_graph ~seed ~nodes:7 ~extra_edges:4 () in
      let sol = SR.solve p ~master:0 in
      if not (R.is_zero sol.Master_slave.ntask) then begin
        let g = SR.greedy_reconstruct sol in
        Alcotest.(check bool) "efficiency <= 1" true
          R.Infix.(g.SR.efficiency <= R.one);
        (* greedy maximal matchings at least halve the optimum *)
        Alcotest.(check bool) "efficiency >= 1/2" true
          R.Infix.(g.SR.efficiency >= r 1 2)
      end)
    [ 1; 5; 9; 13 ]

let test_adversarial_family () =
  (* Platform_gen.odd_cycle_relay: every busy link carries exactly half
     a period and the conflict graph is the odd cycle C_{2k+1}, whose
     chromatic number 3 forces >= 3 greedy rounds of T/2 — efficiency
     exactly 2/3, for every k.  This pins the implementation's measured
     worst case inside the factor-2 guarantee. *)
  List.iter
    (fun k ->
      let p = Platform_gen.odd_cycle_relay ~k () in
      let sol = SR.solve p ~master:0 in
      Alcotest.check rat
        (Printf.sprintf "k=%d LP bound" k)
        (r 3 2) sol.Master_slave.ntask;
      (* unique optimum: every link busy exactly T/2 *)
      List.iter
        (fun e ->
          let busy = R.mul sol.Master_slave.task_flow.(e) (Platform.edge_cost p e) in
          Alcotest.check rat
            (Printf.sprintf "k=%d link %s busy T/2" k (Platform.edge_name p e))
            (r 1 2) busy)
        (Platform.edges p);
      let g = SR.greedy_reconstruct sol in
      (match Oracles.check_rounds p g.SR.rounds with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      Alcotest.check rat
        (Printf.sprintf "k=%d comm_length 3T/2" k)
        (R.mul (r 3 2) g.SR.period)
        g.SR.comm_length;
      Alcotest.check rat
        (Printf.sprintf "k=%d efficiency exactly 2/3" k)
        (r 2 3) g.SR.efficiency;
      (* and still within the theorem's factor-2 bound *)
      Alcotest.(check bool) "efficiency >= 1/2" true
        R.Infix.(g.SR.efficiency >= r 1 2))
    [ 1; 2; 3; 5 ]

let test_achieved_definition () =
  let p = Platform_gen.figure1 () in
  let sol = SR.solve p ~master:0 in
  let g = SR.greedy_reconstruct sol in
  let expected =
    R.div (R.mul g.SR.period sol.Master_slave.ntask) (R.max g.SR.period g.SR.comm_length)
  in
  Alcotest.check rat "achieved consistent" expected g.SR.achieved

let test_master_out_of_range () =
  let p = Platform_gen.figure1 () in
  Alcotest.check_raises "named error"
    (Invalid_argument "Send_receive.solve: master out of range")
    (fun () -> ignore (SR.solve p ~master:99))

let suite =
  ( "send_receive",
    [
      Alcotest.test_case "bound <= full duplex" `Quick test_bound_le_full_duplex;
      Alcotest.test_case "star unchanged" `Quick test_star_unchanged;
      Alcotest.test_case "chain relay halved" `Quick test_chain_relay_halved;
      Alcotest.test_case "greedy rounds valid" `Quick test_greedy_rounds_valid;
      Alcotest.test_case "efficiency bounds" `Quick test_efficiency_bounds;
      Alcotest.test_case "adversarial family hits 2/3" `Quick
        test_adversarial_family;
      Alcotest.test_case "achieved definition" `Quick test_achieved_definition;
      Alcotest.test_case "master out of range" `Quick test_master_out_of_range;
    ] )
