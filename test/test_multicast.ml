(* Tests for §3.3 / §4.3: the multicast bounds bracket, the Figure 2/3
   counterexample, and tree-packing schedules. *)

module R = Rat
module E = Ext_rat
module P = Platform
module C = Collective
module M = Multicast

let r = R.of_ints
let ri = R.of_int
let rat = Alcotest.testable R.pp R.equal

let fig2 = Platform_gen.multicast_fig2

(* --- the paper's central counterexample --- *)

let test_fig2_max_bound_is_one () =
  let p, src, targets = fig2 () in
  let sol = M.max_lp_bound p ~source:src ~targets in
  Alcotest.check rat "max-LP throughput 1" (ri 1) sol.C.throughput

let test_fig2_flows_match_figure3 () =
  (* Figure 3(a)/(b): each target is served by two half-rate routes *)
  let p, src, targets = fig2 () in
  let sol = M.max_lp_bound p ~source:src ~targets in
  let flow_value k a b =
    match P.find_edge p a b with
    | Some e -> sol.C.flows.(k).(e)
    | None -> Alcotest.fail "edge missing"
  in
  let half = r 1 2 in
  (* kind 0 = target P5: routes P0-P1-P5 and P0-P2-P3-P4-P5 *)
  List.iter
    (fun (a, b) -> Alcotest.check rat "fig3a flow" half (flow_value 0 a b))
    [ (0, 1); (1, 5); (0, 2); (2, 3); (3, 4); (4, 5) ];
  (* kind 1 = target P6: routes P0-P1-P3-P4-P6 and P0-P2-P6 *)
  List.iter
    (fun (a, b) -> Alcotest.check rat "fig3b flow" half (flow_value 1 a b))
    [ (0, 1); (1, 3); (3, 4); (4, 6); (0, 2); (2, 6) ];
  (* figure 3(c)/(d): edge P3->P4 carries half a message of each kind —
     one a and one b message per period of two time units *)
  (match P.find_edge p 3 4 with
  | Some e ->
    Alcotest.check rat "a-flow on P3->P4" half sol.C.flows.(0).(e);
    Alcotest.check rat "b-flow on P3->P4" half sol.C.flows.(1).(e);
    (* the real cost of carrying both: (1/2 + 1/2) * c = 2 > 1 — the
       sum law shows the conflict the max law hides *)
    let c = P.edge_cost p e in
    let true_load = R.mul (R.add sol.C.flows.(0).(e) sol.C.flows.(1).(e)) c in
    Alcotest.check rat "true load exceeds capacity" (ri 2) true_load
  | None -> Alcotest.fail "edge P3->P4 missing")

let test_fig2_bracket () =
  (* scatter 1/2 <= packing 3/4 < max-LP 1: the bound is NOT achievable *)
  let p, src, targets = fig2 () in
  let sum_ = (M.scatter_lower_bound p ~source:src ~targets).C.throughput in
  let pack = (M.best_tree_packing p ~source:src ~targets).M.throughput in
  let maxb = (M.max_lp_bound p ~source:src ~targets).C.throughput in
  Alcotest.check rat "sum-LP" (r 1 2) sum_;
  Alcotest.check rat "tree packing" (r 3 4) pack;
  Alcotest.check rat "max-LP" (ri 1) maxb;
  Alcotest.(check bool) "strictly below the bound" true R.Infix.(pack < maxb)

let test_fig2_single_tree () =
  let p, src, targets = fig2 () in
  match M.best_single_tree p ~source:src ~targets with
  | Some (tree, rate) ->
    Alcotest.check rat "best single tree rate" (r 1 2) rate;
    Alcotest.(check bool) "non-empty" true (tree <> [])
  | None -> Alcotest.fail "no tree found"

(* --- tree enumeration --- *)

let test_enumerate_fig2 () =
  let p, src, targets = fig2 () in
  let trees = M.enumerate_trees p ~source:src ~targets in
  Alcotest.(check int) "7 minimal multicast trees" 7 (List.length trees);
  (* each tree is a valid arborescence covering both targets *)
  List.iter
    (fun tree ->
      let reached = Array.make (P.num_nodes p) false in
      reached.(src) <- true;
      let rec fix () =
        let changed = ref false in
        List.iter
          (fun e ->
            if reached.(P.edge_src p e) && not reached.(P.edge_dst p e) then begin
              reached.(P.edge_dst p e) <- true;
              changed := true
            end)
          tree;
        if !changed then fix ()
      in
      fix ();
      List.iter
        (fun t -> Alcotest.(check bool) "target covered" true reached.(t))
        targets;
      (* at most one parent per node *)
      let indeg = Hashtbl.create 8 in
      List.iter
        (fun e ->
          let d = P.edge_dst p e in
          Alcotest.(check bool) "single parent" false (Hashtbl.mem indeg d);
          Hashtbl.replace indeg d ())
        tree)
    trees

let test_enumerate_line () =
  (* S -> A -> T: exactly one tree *)
  let p =
    P.create ~names:[| "S"; "A"; "T" |]
      ~weights:[| E.inf; E.inf; E.inf |]
      ~edges:[ (0, 1, ri 1); (1, 2, ri 1) ]
  in
  let trees = M.enumerate_trees p ~source:0 ~targets:[ 2 ] in
  Alcotest.(check int) "one tree" 1 (List.length trees);
  Alcotest.(check int) "two edges" 2 (List.length (List.hd trees))

let test_enumerate_no_tree () =
  let p =
    P.create ~names:[| "S"; "T" |] ~weights:[| E.inf; E.inf |]
      ~edges:[ (1, 0, ri 1) ]
  in
  Alcotest.(check int) "unreachable: no trees" 0
    (List.length (M.enumerate_trees p ~source:0 ~targets:[ 1 ]))

let test_enumerate_guard () =
  let p = Platform_gen.random_graph ~seed:1 ~nodes:14 ~extra_edges:20 () in
  Alcotest.(check bool) "too-large platform rejected" true
    (try ignore (M.enumerate_trees p ~source:0 ~targets:[ 1 ]); false
     with Invalid_argument _ -> true)

(* a 14-edge graph (fig2 has 9): its five trees, in emission order *)
let test_enumerate_seed5 () =
  let p = Platform_gen.random_graph ~seed:5 ~nodes:6 ~extra_edges:2 () in
  Alcotest.(check int) "14 edges" 14 (P.num_edges p);
  Alcotest.(check (list (list int)))
    "five trees"
    [ [ 0; 5; 6; 12 ]; [ 1; 3; 4; 9 ]; [ 1; 4; 10 ]; [ 3; 6; 9; 12 ]; [ 6; 10; 12 ] ]
    (M.enumerate_trees p ~source:0 ~targets:[ 2; 4 ])

(* Brute-force oracle: every edge subset of at most n - 1 edges that is
   an arborescence from [source] covering [targets] (nothing into the
   source, at most one parent per node, every chosen edge and every
   target reached from the source through parents) and minimal (no
   single edge can be dropped with the rest still one; a smaller
   covering arborescence would always leave such an edge). *)
let brute_force_trees p ~source ~targets =
  let n = P.num_nodes p and m = P.num_edges p in
  let covers edges =
    let parent = Array.make n (-1) in
    List.for_all
      (fun e ->
        let d = P.edge_dst p e in
        d <> source
        && parent.(d) < 0
        &&
        (parent.(d) <- e;
         true))
      edges
    &&
    (* the parent chain reaches the source within n steps *)
    let rec rooted v steps =
      v = source
      || (steps < n && parent.(v) >= 0 && rooted (P.edge_src p parent.(v)) (steps + 1))
    in
    List.for_all (fun e -> rooted (P.edge_dst p e) 0) edges
    && List.for_all (fun t -> rooted t 0) targets
  in
  let minimal edges =
    edges <> []
    && covers edges
    && not (List.exists (fun e -> covers (List.filter (( <> ) e) edges)) edges)
  in
  let found = ref [] in
  let rec subsets e chosen size =
    if e = m then (if minimal chosen then found := List.rev chosen :: !found)
    else begin
      subsets (e + 1) chosen size;
      if size < n - 1 then subsets (e + 1) (e :: chosen) (size + 1)
    end
  in
  subsets 0 [] 0;
  !found

(* 10-16 directed edges: [random_graph] mirrors each of its n - 1 + extra
   links *)
let arb_enum_graph =
  QCheck.make
    ~print:(fun (seed, n, extra, src, mask) ->
      Printf.sprintf "seed=%d nodes=%d extra=%d source=%d targets mask=%d" seed
        n extra src mask)
    QCheck.Gen.(
      let* seed = int_range 0 10_000 in
      let* n = int_range 5 7 in
      let lo = max 0 (6 - n) in
      let* extra = int_range lo (9 - n) in
      let* src = int_range 0 (n - 1) in
      let+ mask = int_range 1 ((1 lsl (n - 1)) - 1) in
      (seed, n, extra, src, mask))

let prop_enumerate_brute_force =
  QCheck.Test.make ~name:"enumerate_trees = brute force, 10-16 edges"
    ~count:30 arb_enum_graph (fun (seed, n, extra, source, mask) ->
      let p = Platform_gen.random_graph ~seed ~nodes:n ~extra_edges:extra () in
      let m = P.num_edges p in
      if m < 10 || m > 16 then QCheck.Test.fail_reportf "%d edges" m;
      (* bit i of the mask picks the i-th node other than the source *)
      let others = List.filter (( <> ) source) (List.init n Fun.id) in
      let targets = List.filteri (fun i _ -> mask land (1 lsl i) <> 0) others in
      let canon trees = List.sort compare (List.map (List.sort compare) trees) in
      let got = M.enumerate_trees p ~source ~targets in
      let want = brute_force_trees p ~source ~targets in
      List.length got = List.length want && canon got = canon want)

(* --- heuristic trees (for platforms beyond the enumeration guard) --- *)

let test_heuristic_on_fig2 () =
  let p, src, targets = fig2 () in
  let trees = M.heuristic_trees p ~source:src ~targets in
  Alcotest.(check bool) "some trees" true (trees <> []);
  let pack = M.heuristic_packing p ~source:src ~targets in
  let exact = M.best_tree_packing p ~source:src ~targets in
  (* achievable, sandwiched between single-tree and the exact packing *)
  Alcotest.(check bool) "heuristic <= exact packing" true
    R.Infix.(pack.M.throughput <= exact.M.throughput);
  Alcotest.(check bool) "heuristic at least half the exact" true
    R.Infix.(R.mul (ri 2) pack.M.throughput >= exact.M.throughput);
  (* heuristic packings are real schedules too *)
  if pack.M.trees <> [] then begin
    match Schedule.check_well_formed (M.schedule_of_packing pack) with
    | Ok () -> ()
    | Error e -> Alcotest.fail e
  end

let test_heuristic_beyond_guard () =
  (* 30+ edges: enumeration refuses, the heuristic still delivers *)
  let p = Platform_gen.random_graph ~seed:21 ~nodes:12 ~extra_edges:6 () in
  let targets = [ 5; 11 ] in
  Alcotest.(check bool) "enumeration guarded" true
    (try ignore (M.enumerate_trees p ~source:0 ~targets); false
     with Invalid_argument _ -> true);
  let pack = M.heuristic_packing p ~source:0 ~targets in
  Alcotest.(check bool) "positive achievable throughput" true
    R.Infix.(pack.M.throughput > R.zero);
  let bound = (M.max_lp_bound p ~source:0 ~targets).C.throughput in
  Alcotest.(check bool) "below the max-LP bound" true
    R.Infix.(pack.M.throughput <= bound)

let test_heuristic_unreachable () =
  let p =
    P.create ~names:[| "S"; "T" |] ~weights:[| Ext_rat.inf; Ext_rat.inf |]
      ~edges:[ (1, 0, ri 1) ]
  in
  Alcotest.(check int) "no trees" 0
    (List.length (M.heuristic_trees p ~source:0 ~targets:[ 1 ]))

(* --- packing schedule --- *)

let test_packing_schedule_runs () =
  let p, src, targets = fig2 () in
  let packing = M.best_tree_packing p ~source:src ~targets in
  let sched = M.schedule_of_packing packing in
  (match Schedule.check_well_formed sched with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let run = M.simulate_packing ~periods:6 packing in
  (* both targets eventually receive 3/4 per time unit; ramp-up deficit
     is constant *)
  let run2 = M.simulate_packing ~periods:12 packing in
  Array.iteri
    (fun k d ->
      let full1 = R.mul packing.M.throughput run.M.elapsed in
      let full2 = R.mul packing.M.throughput run2.M.elapsed in
      Alcotest.check rat "constant deficit" (R.sub full1 d)
        (R.sub full2 run2.M.delivered.(k)))
    run.M.delivered

(* --- broadcast (§4.3 good news) --- *)

let test_broadcast_fig2_bound_met () =
  let p, src, _ = fig2 () in
  let met, bound, achieved = Broadcast.bound_met p ~source:src in
  Alcotest.check rat "broadcast bound" (r 1 2) bound;
  Alcotest.check rat "broadcast achieved" (r 1 2) achieved;
  Alcotest.(check bool) "achievable for broadcast" true met

let test_broadcast_star () =
  (* hub with k spokes, unit costs: the source's out-port is shared by
     nothing (one send reaches one child); bound = 1 per child link but
     the source must send to each child separately?  No: broadcast over
     a star has no relaying, so it degenerates to a scatter: rate 1/k *)
  let p =
    Platform_gen.star ~master_weight:E.inf
      ~slaves:[ (E.inf, ri 1); (E.inf, ri 1); (E.inf, ri 1) ]
      ()
  in
  let met, bound, achieved = Broadcast.bound_met p ~source:0 in
  Alcotest.check rat "star broadcast" (r 1 3) bound;
  Alcotest.(check bool) "met" true met;
  Alcotest.check rat "same" bound achieved

let test_broadcast_chain_relays () =
  (* chain S -> A -> B: relaying makes broadcast as cheap as a single
     hop: rate 1 *)
  let p =
    P.create ~names:[| "S"; "A"; "B" |]
      ~weights:[| E.inf; E.inf; E.inf |]
      ~edges:[ (0, 1, ri 1); (1, 2, ri 1) ]
  in
  let met, bound, achieved = Broadcast.bound_met p ~source:0 in
  Alcotest.check rat "chain broadcast" (ri 1) bound;
  Alcotest.(check bool) "met" true met;
  ignore achieved

(* --- properties --- *)

let arb_small_platform =
  QCheck.make
    ~print:(fun (seed, n) -> Printf.sprintf "seed=%d n=%d" seed n)
    QCheck.Gen.(pair (int_range 0 200) (int_range 3 6))

let prop_bracket_ordering =
  QCheck.Test.make ~name:"sum <= packing <= max bracket" ~count:25
    arb_small_platform (fun (seed, n) ->
      let p = Platform_gen.random_tree ~seed ~nodes:n () in
      let targets = [ n - 1 ] in
      let sum_ = (M.scatter_lower_bound p ~source:0 ~targets).C.throughput in
      let pack = (M.best_tree_packing p ~source:0 ~targets).M.throughput in
      let maxb = (M.max_lp_bound p ~source:0 ~targets).C.throughput in
      R.Infix.(sum_ <= pack) && R.Infix.(pack <= maxb))

let prop_single_target_all_equal =
  QCheck.Test.make ~name:"single target: multicast = scatter = max"
    ~count:25 arb_small_platform (fun (seed, n) ->
      (* with one target there is nothing to share: all three coincide *)
      let p = Platform_gen.random_graph ~seed ~nodes:n ~extra_edges:1 () in
      let targets = [ n - 1 ] in
      let sum_ = (M.scatter_lower_bound p ~source:0 ~targets).C.throughput in
      let maxb = (M.max_lp_bound p ~source:0 ~targets).C.throughput in
      R.equal sum_ maxb)

let prop_broadcast_met_on_trees =
  QCheck.Test.make ~name:"broadcast bound met on random trees" ~count:15
    arb_small_platform (fun (seed, n) ->
      let p = Platform_gen.random_tree ~seed ~nodes:n () in
      let met, _, _ = Broadcast.bound_met p ~source:0 in
      met)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  ( "multicast",
    [
      Alcotest.test_case "fig2: max bound = 1" `Quick test_fig2_max_bound_is_one;
      Alcotest.test_case "fig2: figure 3 flows" `Quick test_fig2_flows_match_figure3;
      Alcotest.test_case "fig2: bounds bracket" `Quick test_fig2_bracket;
      Alcotest.test_case "fig2: best single tree" `Quick test_fig2_single_tree;
      Alcotest.test_case "enumerate fig2 trees" `Quick test_enumerate_fig2;
      Alcotest.test_case "enumerate line" `Quick test_enumerate_line;
      Alcotest.test_case "enumerate unreachable" `Quick test_enumerate_no_tree;
      Alcotest.test_case "enumeration guard" `Quick test_enumerate_guard;
      Alcotest.test_case "enumerate seed-5 graph" `Quick test_enumerate_seed5;
      q prop_enumerate_brute_force;
      Alcotest.test_case "packing schedule + sim" `Quick test_packing_schedule_runs;
      Alcotest.test_case "heuristic on fig2" `Quick test_heuristic_on_fig2;
      Alcotest.test_case "heuristic beyond guard" `Quick test_heuristic_beyond_guard;
      Alcotest.test_case "heuristic unreachable" `Quick test_heuristic_unreachable;
      Alcotest.test_case "broadcast fig2 met" `Quick test_broadcast_fig2_bound_met;
      Alcotest.test_case "broadcast star" `Quick test_broadcast_star;
      Alcotest.test_case "broadcast chain" `Quick test_broadcast_chain_relays;
      q prop_bracket_ordering;
      q prop_single_target_all_equal;
      q prop_broadcast_met_on_trees;
    ] )
