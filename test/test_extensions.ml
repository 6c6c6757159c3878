(* Tests for the extension modules: personalised all-to-all (§4.2),
   multiport (§5.1.2) and single-installment divisible load ([8]). *)

module R = Rat
module P = Platform

let r = R.of_ints
let ri = R.of_int
let rat = Alcotest.testable R.pp R.equal

(* --- all-to-all --- *)

let ring n cost =
  let links =
    if n = 2 then [ (0, 1, cost); (1, 0, cost) ]
    else
      List.concat_map
        (fun i -> [ (i, (i + 1) mod n, cost); ((i + 1) mod n, i, cost) ])
        (List.init n Fun.id)
  in
  P.create
    ~names:(Array.init n (fun i -> Printf.sprintf "P%d" i))
    ~weights:(Array.make n Ext_rat.inf)
    ~edges:links

let test_a2a_two_nodes () =
  (* two nodes exchanging over unit links: each port carries one stream *)
  let p = ring 2 R.one in
  let sol = All_to_all.solve p ~participants:[ 0; 1 ] in
  Alcotest.check rat "full rate both ways" (ri 1) sol.Collective.throughput;
  match Oracles.check_invariants sol with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_a2a_triangle_ring () =
  (* 3-node bidirectional ring, unit costs: each node sends 2 streams
     and receives 2; with direct links only, out-port: 2 TP <= 1 *)
  let p = ring 3 R.one in
  let sol = All_to_all.solve p ~participants:[ 0; 1; 2 ] in
  Alcotest.check rat "ring all-to-all" (r 1 2) sol.Collective.throughput;
  match Oracles.check_invariants sol with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_a2a_star_relay () =
  (* two participants relayed through a hub: both directions cross the
     hub's single send port (H->A and H->B), so TP <= 1/2 *)
  let p =
    P.create ~names:[| "A"; "H"; "B" |]
      ~weights:[| Ext_rat.inf; Ext_rat.inf; Ext_rat.inf |]
      ~edges:
        [ (0, 1, R.one); (1, 0, R.one); (1, 2, R.one); (2, 1, R.one) ]
  in
  let sol = All_to_all.solve p ~participants:[ 0; 2 ] in
  Alcotest.check rat "hub send port shared by both streams" (r 1 2)
    sol.Collective.throughput

let test_a2a_subsumes_scatter () =
  (* with one sender's commodities removed by symmetry: all-to-all rate
     on participants {source, t} can never beat scatter from source to t *)
  let p = Platform_gen.figure1 () in
  let a2a = All_to_all.solve p ~participants:[ 0; 3 ] in
  let sc = Scatter.solve p ~source:0 ~targets:[ 3 ] in
  Alcotest.(check bool) "a2a <= scatter (extra reverse stream)" true
    R.Infix.(a2a.Collective.throughput <= sc.Collective.throughput)

let test_a2a_validation () =
  let p = ring 3 R.one in
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "one participant" true
    (bad (fun () -> All_to_all.solve p ~participants:[ 0 ]));
  Alcotest.(check bool) "duplicates" true
    (bad (fun () -> All_to_all.solve p ~participants:[ 0; 0 ]))

(* All_to_all.solve (the closed form on trees, the shared pair LP
   elsewhere) against the kernel on the interleaved pair LP all-to-all
   used to build: same throughput, same pairs in the same order, and
   the same cycle-cancelled flow for every pair. *)
let same_as_reference p ~participants =
  let sol = All_to_all.solve p ~participants in
  let m, _, _, f_v = All_to_all_reference.build_model p ~participants in
  match Lp.solve m with
  | Lp.Optimal s ->
    R.equal s.Lp.objective sol.Collective.throughput
    && List.map fst f_v = sol.Collective.pairs
    && List.for_all2
         (fun (_, fv) flow ->
           Array.for_all2 R.equal
             (Flow.cancel_cycles p (Array.map (Lp.value s) fv))
             flow)
         f_v
         (Array.to_list sol.Collective.flows)
  | Lp.Infeasible | Lp.Unbounded -> false

let prop_a2a_same_as_reference =
  QCheck.Test.make ~name:"a2a: same as the interleaved reference" ~count:100
    QCheck.(pair (int_bound 1_000_000) (int_range 3 7))
    (fun (seed, nodes) ->
      let all = List.init nodes Fun.id in
      let participants =
        match seed mod 3 with
        | 0 -> [ 0; 1 ]
        | 1 -> List.filter (fun i -> i mod 2 = 0) all
        | _ -> List.rev (List.filter (fun i -> i mod 3 <> 1) all)
      in
      let graph =
        Platform_gen.random_graph ~seed ~nodes ~extra_edges:(1 + (seed mod 3))
          ()
      in
      let tree = Platform_gen.random_tree ~seed ~nodes () in
      same_as_reference graph ~participants
      && same_as_reference tree ~participants)

(* --- multiport --- *)

let test_multiport_one_card_is_master_slave () =
  List.iter
    (fun seed ->
      let p = Platform_gen.random_graph ~seed ~nodes:6 ~extra_edges:3 () in
      let ms = (Master_slave.solve p ~master:0).Master_slave.ntask in
      let mp =
        (Multiport.solve p ~master:0 ~send_cards:(fun _ -> 1)
           ~recv_cards:(fun _ -> 1))
          .Master_slave.ntask
      in
      Alcotest.check rat (Printf.sprintf "1-card = 1-port (seed %d)" seed) ms mp)
    [ 2; 4; 6 ]

let test_multiport_extra_cards_help () =
  (* port-bound star: doubling the master's send cards doubles ntask *)
  let p =
    Platform_gen.star ~master_weight:Ext_rat.inf
      ~slaves:[ (Ext_rat.of_int 2, ri 1); (Ext_rat.of_int 2, ri 1) ]
      ()
  in
  let one =
    (Multiport.solve p ~master:0 ~send_cards:(fun _ -> 1)
       ~recv_cards:(fun _ -> 1))
      .Master_slave.ntask
  in
  let two =
    (Multiport.solve p ~master:0 ~send_cards:(fun i -> if i = 0 then 2 else 1)
       ~recv_cards:(fun _ -> 1))
      .Master_slave.ntask
  in
  Alcotest.check rat "one card" (ri 1) one;
  Alcotest.check rat "two cards" (ri 1) two
  (* both slaves are cpu-bound at 1/2 each: ntask = 1 either way;
     tighten with a faster pair below *)

let test_multiport_bandwidth_bound_case () =
  (* slaves at speed 2 behind c=1/2 links: one card caps the aggregate
     at 2 tasks/time (send port), two cards let each link run at its own
     capacity and the CPUs become the limit (4 tasks/time).  Note each
     single link still obeys s_ij <= 1. *)
  let p =
    Platform_gen.star ~master_weight:Ext_rat.inf
      ~slaves:[ (Ext_rat.of_ints 1 2, r 1 2); (Ext_rat.of_ints 1 2, r 1 2) ]
      ()
  in
  let solve k =
    (Multiport.solve p ~master:0
       ~send_cards:(fun i -> if i = 0 then k else 1)
       ~recv_cards:(fun _ -> 1))
      .Master_slave.ntask
  in
  Alcotest.check rat "1 card: port-bound" (ri 2) (solve 1);
  Alcotest.check rat "2 cards: cpu-bound" (ri 4) (solve 2)

let test_multiport_reconstruction () =
  let p =
    Platform_gen.star ~master_weight:Ext_rat.inf
      ~slaves:[ (Ext_rat.of_ints 1 2, r 1 2); (Ext_rat.of_ints 1 2, r 1 2) ]
      ()
  in
  let sol =
    Multiport.solve p ~master:0
      ~send_cards:(fun i -> if i = 0 then 2 else 1)
      ~recv_cards:(fun _ -> 1)
  in
  (* wire each master edge to its own send card *)
  let send_card e = if P.edge_src p e = 0 then P.edge_dst p e - 1 else 0 in
  let cs =
    Multiport.reconstruct sol ~send_card ~recv_card:(fun _ -> 0)
      ~send_cards:(fun i -> if i = 0 then 2 else 1)
      ~recv_cards:(fun _ -> 1)
  in
  (* rounds fit in the period *)
  let total =
    R.sum (List.map (fun m -> m.Bipartite_coloring.duration) cs.Multiport.rounds)
  in
  Alcotest.(check bool) "rounds fit" true R.Infix.(total <= cs.Multiport.period);
  (* both edges can run in the same round thanks to the two cards *)
  Alcotest.(check bool) "parallel sends happen" true
    (List.exists
       (fun m -> List.length m.Bipartite_coloring.edges >= 2)
       cs.Multiport.rounds)

let test_multiport_bad_wiring () =
  let p =
    Platform_gen.star ~master_weight:Ext_rat.inf
      ~slaves:[ (Ext_rat.of_ints 1 2, r 1 2); (Ext_rat.of_ints 1 2, r 1 2) ]
      ()
  in
  let sol =
    Multiport.solve p ~master:0
      ~send_cards:(fun i -> if i = 0 then 2 else 1)
      ~recv_cards:(fun _ -> 1)
  in
  (* wiring both hot edges onto card 0 overloads it *)
  Alcotest.(check bool) "overload detected" true
    (try
       ignore
         (Multiport.reconstruct sol ~send_card:(fun _ -> 0)
            ~recv_card:(fun _ -> 0)
            ~send_cards:(fun i -> if i = 0 then 2 else 1)
            ~recv_cards:(fun _ -> 1));
       false
     with Failure _ -> true);
  Alcotest.(check bool) "card range checked" true
    (try
       ignore
         (Multiport.reconstruct sol ~send_card:(fun _ -> 5)
            ~recv_card:(fun _ -> 0)
            ~send_cards:(fun i -> if i = 0 then 2 else 1)
            ~recv_cards:(fun _ -> 1));
       false
     with Invalid_argument _ -> true)

let test_multiport_master_out_of_range () =
  let p = Platform_gen.figure1 () in
  Alcotest.check_raises "named error"
    (Invalid_argument "Multiport.solve: master out of range")
    (fun () ->
      ignore
        (Multiport.solve p ~master:99 ~send_cards:(fun _ -> 1)
           ~recv_cards:(fun _ -> 1)))

(* With one card each way the Multiport model is the one-port model by
   construction: the very instance the kernel solves, row for row. *)
let test_multiport_one_card_model () =
  let same_rat a b =
    Array.length a = Array.length b && Array.for_all2 R.equal a b
  in
  let same_row (ca, va) (cb, vb) = ca = cb && same_rat va vb in
  List.iter
    (fun (name, p) ->
      let one, _, _ =
        Multiport.build_lp p ~master:0 ~send_cards:(fun _ -> 1)
          ~recv_cards:(fun _ -> 1)
      in
      let ms, _, _ = Master_slave.build_lp p ~master:0 in
      let rows, b, c = Lp.standard_form one in
      let rows', b', c' = Lp.standard_form ms in
      Alcotest.(check bool) (name ^ ": rows") true
        (Array.length rows = Array.length rows'
        && Array.for_all2 same_row rows rows');
      Alcotest.(check bool) (name ^ ": b") true (same_rat b b');
      Alcotest.(check bool) (name ^ ": c") true (same_rat c c'))
    (("figure 1", Platform_gen.figure1 ())
    :: List.map
         (fun seed ->
           ( Printf.sprintf "seed %d" seed,
             Platform_gen.random_graph ~seed ~nodes:(4 + (seed mod 5))
               ~extra_edges:(seed mod 4) () ))
         (List.init 10 (fun k -> k + 1)))

(* --- divisible load --- *)

let div_star () =
  Platform_gen.star ~master_weight:(Ext_rat.of_int 2)
    ~slaves:[ (Ext_rat.of_int 1, ri 1); (Ext_rat.of_int 2, ri 2) ]
    ()

let test_divisible_equal_finish () =
  let p = div_star () in
  let split = Divisible.star_divisible p ~master:0 ~load:(ri 60) ~order:[ 1; 2 ] in
  (* chunks sum to the load *)
  Alcotest.check rat "load conserved" (ri 60)
    (R.sum (List.map snd split.Divisible.chunks));
  (* every participant finishes exactly at the makespan *)
  let t = split.Divisible.makespan in
  (match split.Divisible.chunks with
  | (_, a0) :: rest ->
    Alcotest.check rat "master busy till T" t (R.mul a0 (ri 2));
    let sent = ref R.zero in
    List.iter
      (fun (s, a) ->
        let e = Option.get (P.find_edge p 0 s) in
        let c = P.edge_cost p e in
        let w = Ext_rat.fin_exn (P.weight p s) in
        let finish = R.add !sent (R.mul a (R.add c w)) in
        Alcotest.check rat (P.name p s ^ " finishes at T") t finish;
        sent := R.add !sent (R.mul a c))
      rest
  | [] -> Alcotest.fail "no chunks")

let test_divisible_order_matters () =
  (* serving the cheap link first is no worse *)
  let p = div_star () in
  let fwd = Divisible.star_divisible p ~master:0 ~load:(ri 60) ~order:[ 1; 2 ] in
  let bwd = Divisible.star_divisible p ~master:0 ~load:(ri 60) ~order:[ 2; 1 ] in
  Alcotest.(check bool) "cheap-first at least as good" true
    R.Infix.(fwd.Divisible.makespan <= bwd.Divisible.makespan);
  let best = Divisible.star_divisible_best_order p ~master:0 ~load:(ri 60) in
  Alcotest.check rat "best = cheap-first" fwd.Divisible.makespan
    best.Divisible.makespan

let test_divisible_below_steady_state () =
  (* single-installment rate W/T(W) can never beat the steady state,
     and approaches it as W grows *)
  let p = div_star () in
  let ntask = (Master_slave.solve p ~master:0).Master_slave.ntask in
  List.iter
    (fun w ->
      let split = Divisible.star_divisible_best_order p ~master:0 ~load:(ri w) in
      let rate = R.div (ri w) split.Divisible.makespan in
      Alcotest.(check bool)
        (Printf.sprintf "rate(W=%d) <= ntask" w)
        true
        R.Infix.(rate <= ntask))
    [ 1; 10; 1000 ]

let test_divisible_validation () =
  let p = div_star () in
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "zero load" true
    (bad (fun () -> Divisible.star_divisible p ~master:0 ~load:R.zero ~order:[ 1 ]));
  Alcotest.(check bool) "non-neighbour" true
    (bad (fun () ->
         let q =
           P.create ~names:[| "M"; "A"; "B" |]
             ~weights:[| Ext_rat.of_int 1; Ext_rat.of_int 1; Ext_rat.of_int 1 |]
             ~edges:[ (0, 1, ri 1); (1, 2, ri 1) ]
         in
         Divisible.star_divisible q ~master:0 ~load:(ri 1) ~order:[ 2 ]))

let suite =
  let q = QCheck_alcotest.to_alcotest in
  ( "extensions",
    [
      Alcotest.test_case "a2a: two nodes" `Quick test_a2a_two_nodes;
      Alcotest.test_case "a2a: triangle ring" `Quick test_a2a_triangle_ring;
      Alcotest.test_case "a2a: hub relay" `Quick test_a2a_star_relay;
      Alcotest.test_case "a2a vs scatter" `Quick test_a2a_subsumes_scatter;
      Alcotest.test_case "a2a validation" `Quick test_a2a_validation;
      Alcotest.test_case "multiport: 1 card = 1 port" `Quick test_multiport_one_card_is_master_slave;
      Alcotest.test_case "multiport: cpu-bound case" `Quick test_multiport_extra_cards_help;
      Alcotest.test_case "multiport: bandwidth case" `Quick test_multiport_bandwidth_bound_case;
      Alcotest.test_case "multiport: reconstruction" `Quick test_multiport_reconstruction;
      Alcotest.test_case "multiport: bad wiring" `Quick test_multiport_bad_wiring;
      Alcotest.test_case "divisible: equal finish" `Quick test_divisible_equal_finish;
      Alcotest.test_case "divisible: order matters" `Quick test_divisible_order_matters;
      Alcotest.test_case "divisible: below steady state" `Quick test_divisible_below_steady_state;
      Alcotest.test_case "divisible: validation" `Quick test_divisible_validation;
      Alcotest.test_case "multiport: master out of range" `Quick
        test_multiport_master_out_of_range;
      Alcotest.test_case "multiport: one-card model = one-port model" `Quick
        test_multiport_one_card_model;
      q prop_a2a_same_as_reference;
    ] )
