(* Tests for the large-n scaling path: the closed-form tree solves that
   Master_slave.solve, Collective.solve and All_to_all.solve pick
   whenever Tree_decomp.detect finds a tree, and the monolithic LP they
   build everywhere else.

   The contract under test is always the same: the closed form must be
   *bit-identical* in throughput to the monolithic LP — speed is
   allowed to change, answers are not — and off trees the answer is
   the LP's own, field by field. *)

module R = Rat
module P = Platform

let rat = Alcotest.testable R.pp R.equal
let rat_arr = Alcotest.(array rat)

let ms_model p = fst (Master_slave.solve_lp_only p ~master:0)

let ms_instances () =
  [
    ("fig1", ms_model (Platform_gen.figure1 ()));
    ("tree17", ms_model (Platform_gen.random_tree ~seed:17 ~nodes:12 ()));
    ( "graph5",
      ms_model (Platform_gen.random_graph ~seed:5 ~nodes:9 ~extra_edges:6 ())
    );
  ]

(* --- pricing rules ----------------------------------------------------- *)

(* Bland (the anti-cycling path) and Dantzig reach the same exact
   optimum on the same standard form, and both vertices certify *)
let test_rules_same_objective () =
  List.iter
    (fun (name, m) ->
      let rows, b, c = Lp.standard_form m in
      let run rule =
        match Simplex.minimize ~rule ~rows ~b ~c () with
        | Simplex.Optimal { objective; _ } -> objective
        | _ -> Alcotest.fail (name ^ ": not optimal")
      in
      Alcotest.check rat (name ^ " objective") (run Simplex.Dantzig)
        (run Simplex.Bland);
      match Lp.solve m with
      | Lp.Optimal s -> (
        match Lp.check_solution m s.Lp.values with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (name ^ ": " ^ e))
      | _ -> Alcotest.fail (name ^ ": not optimal"))
    (ms_instances ())

(* --- master–slave: the tree dispatch ---------------------------------- *)

let check_ms_solution name p (sol : Master_slave.solution) =
  let m, alpha_v, s_v = Master_slave.build_lp p ~master:0 in
  let tbl = Hashtbl.create 64 in
  Array.iteri (fun i v -> Hashtbl.replace tbl v sol.Master_slave.alpha.(i)) alpha_v;
  Array.iteri
    (fun e v -> Hashtbl.replace tbl v sol.Master_slave.send_frac.(e))
    s_v;
  match Lp.check_solution m (Hashtbl.find tbl) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (name ^ " infeasible flow: " ^ e)

let lp_optimum name p =
  match Master_slave.solve_lp_only p ~master:0 with
  | _, Lp.Optimal s -> s
  | _ -> Alcotest.fail (name ^ ": LP not optimal")

(* A tree solve: the monolithic LP's throughput bit for bit, a point of
   that LP's own feasible set, no kernel call, and a schedule that runs
   strictly on the simulator with causal buffers. *)
let check_tree_solve name p =
  let stats = Lp.Stats.create () in
  let sol = Master_slave.solve ~stats p ~master:0 in
  Alcotest.(check int) (name ^ " no LP solve") 0 stats.Lp.Stats.solves;
  Alcotest.(check int) (name ^ " no pivot") 0 stats.Lp.Stats.pivots;
  Alcotest.check rat (name ^ " ntask = LP") (lp_optimum name p).Lp.objective
    sol.Master_slave.ntask;
  check_ms_solution name p sol;
  let sched = Master_slave.schedule sol in
  (match Master_slave.check_buffers sched ~master:0 ~periods:8 with
  | Ok () -> ()
  | Error e -> Alcotest.fail (name ^ " buffers: " ^ e));
  let run = Master_slave.simulate ~periods:8 sol in
  Alcotest.check rat (name ^ " simulated = analytic") run.Master_slave.expected
    run.Master_slave.completed;
  Alcotest.(check bool) (name ^ " within bound") true
    (R.compare run.Master_slave.completed run.Master_slave.upper_bound <= 0)

let test_solve_reduced_trees () =
  List.iter
    (fun (seed, nodes) ->
      check_tree_solve
        (Printf.sprintf "tree seed=%d n=%d" seed nodes)
        (Platform_gen.random_tree ~seed ~nodes ()))
    [ (1, 5); (2, 10); (3, 16); (4, 24); (11, 2); (12, 1); (17, 12) ]

(* Seeded stars: slave weights and link costs from small sets, so cost
   ties (where the knapsack's choice of vertex matters) are common; the
   master computes in half of them. *)
let seeded_star g k =
  let pick a = a.(Faults.rand_int g (Array.length a)) in
  let weights = [| Ext_rat.of_int 1; Ext_rat.of_int 2; Ext_rat.of_int 3;
                   Ext_rat.of_rat (R.of_ints 3 2) |] in
  let costs = [| R.one; R.two; R.of_ints 1 2; R.of_ints 3 2 |] in
  let master_weight =
    if Faults.rand_int g 2 = 0 then Ext_rat.Inf else pick weights
  in
  Platform_gen.star ~master_weight
    ~slaves:(List.init k (fun _ -> (pick weights, pick costs)))
    ()

let test_solve_reduced_balanced () =
  List.iter
    (fun arity ->
      check_tree_solve
        (Printf.sprintf "balanced arity=%d" arity)
        (Platform_gen.balanced_tree ~seed:6 ~nodes:15 ~arity ()))
    [ 1; 2; 3; 14 ];
  let g = Faults.generator ~seed:19 in
  for case = 1 to 30 do
    let k = 1 + Faults.rand_int g 10 in
    check_tree_solve (Printf.sprintf "star %d k=%d" case k) (seeded_star g k)
  done

(* Off trees [solve] is the LP path, unchanged: the kernel's vertex on
   [build_lp], cycle-cancelled, field by field, with the kernel's work
   counted. *)
let test_solve_reduced_fallback () =
  List.iter
    (fun (name, p) ->
      Alcotest.(check bool) (name ^ " not a tree") true
        (Tree_decomp.detect p ~root:0 = None);
      let m, alpha_v, s_v = Master_slave.build_lp p ~master:0 in
      let lp =
        match Lp.solve m with
        | Lp.Optimal s -> s
        | _ -> Alcotest.fail (name ^ ": LP not optimal")
      in
      let stats = Lp.Stats.create () in
      let sol = Master_slave.solve ~stats p ~master:0 in
      Alcotest.(check int) (name ^ " one LP solve") 1 stats.Lp.Stats.solves;
      let task_flow =
        Reconstruct.cancel p
          (Array.mapi
             (fun e v -> R.div (lp.Lp.values v) (P.edge_cost p e))
             s_v)
      in
      Alcotest.check rat (name ^ " ntask") lp.Lp.objective sol.Master_slave.ntask;
      Alcotest.check rat_arr (name ^ " alpha") (Array.map lp.Lp.values alpha_v)
        sol.Master_slave.alpha;
      Alcotest.check rat_arr (name ^ " task_flow") task_flow
        sol.Master_slave.task_flow;
      Alcotest.check rat_arr (name ^ " send_frac")
        (Array.mapi (fun e f -> R.mul f (P.edge_cost p e)) task_flow)
        sol.Master_slave.send_frac;
      check_ms_solution name p sol)
    [
      ("fig1", Platform_gen.figure1 ());
      ("graph5", Platform_gen.random_graph ~seed:5 ~nodes:8 ~extra_edges:4 ());
      ("graph23", Platform_gen.random_graph ~seed:23 ~nodes:10 ~extra_edges:3 ());
      ( "cgraph7",
        Platform_gen.random_connected_graph ~seed:7 ~nodes:8 ~extra_edges:3 () );
    ]

(* The closed-form knapsack against the LP oracle on seeded, tie-heavy
   instances: one to six children, costs drawn from a small set (all
   equal in a quarter of the instances), and capacities that make the
   bound 0, exactly 1, fractional, or clipped to 1 from above.  The
   objective and every y must be bit-identical. *)
let test_knapsack_oracle () =
  let g = Faults.generator ~seed:18 in
  let costs = [| R.one; R.two; R.of_ints 1 2; R.of_ints 3 2; R.of_int 3;
                 R.of_ints 1 3 |] in
  let pick a = a.(Faults.rand_int g (Array.length a)) in
  let cap c =
    match Faults.rand_int g 6 with
    | 0 -> R.zero
    | 1 | 2 -> R.inv c (* bound exactly 1 *)
    | 3 -> R.div (R.of_int (2 + Faults.rand_int g 3)) c (* clipped to 1 *)
    | _ -> R.of_ints (1 + Faults.rand_int g 5) (1 + Faults.rand_int g 5)
  in
  let plan = Alcotest.(list (pair int rat)) in
  for case = 1 to 100_000 do
    let k = 1 + Faults.rand_int g 6 in
    let same = if Faults.rand_int g 4 = 0 then Some (pick costs) else None in
    let children =
      List.init k (fun e ->
          let c = match same with Some c -> c | None -> pick costs in
          (e, c, cap c))
    in
    let v, ys = Master_slave.knapsack children in
    let v', ys' = Knapsack_reference.knapsack children in
    if not (R.equal v v' && List.equal (fun (e, y) (e', y') ->
        e = e' && R.equal y y') ys ys')
    then begin
      Alcotest.check rat (Printf.sprintf "case %d objective" case) v' v;
      Alcotest.check plan (Printf.sprintf "case %d plan" case) ys' ys
    end
  done

(* The tree solve against the reference sweep with the LP knapsack: the
   same solution, field by field *)
let test_solve_reduced_oracle () =
  let check name p =
    let got = Master_slave.solve p ~master:0 in
    let want = Knapsack_reference.solve_tree p ~master:0 in
    Alcotest.check rat (name ^ " ntask") want.Master_slave.ntask
      got.Master_slave.ntask;
    Alcotest.check rat_arr (name ^ " alpha") want.Master_slave.alpha
      got.Master_slave.alpha;
    Alcotest.check rat_arr (name ^ " send_frac") want.Master_slave.send_frac
      got.Master_slave.send_frac;
    Alcotest.check rat_arr (name ^ " task_flow") want.Master_slave.task_flow
      got.Master_slave.task_flow
  in
  for seed = 1 to 12 do
    let nodes = 50 + (37 * seed) in
    check (Printf.sprintf "random_tree seed=%d" seed)
      (Platform_gen.random_tree ~seed ~nodes ());
    check (Printf.sprintf "balanced_tree seed=%d" seed)
      (Platform_gen.balanced_tree ~seed ~nodes ~arity:(1 + (seed mod 4)) ())
  done

(* Tree detection against its counting definition: the reached nodes
   share exactly (#reached - 1) distinct undirected links.  Seeded random
   digraphs on 2-7 nodes, every root. *)
let test_tree_detect_counting () =
  let g = Faults.generator ~seed:23 in
  let trees = ref 0 in
  for _ = 1 to 3000 do
    let n = 2 + Faults.rand_int g 6 in
    let edges = ref [] in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j && Faults.rand_int g (n + 1) < 2 then
          edges := (i, j, R.one) :: !edges
      done
    done;
    let p =
      P.create
        ~names:(Array.init n string_of_int)
        ~weights:(Array.make n Ext_rat.one)
        ~edges:(List.rev !edges)
    in
    for root = 0 to n - 1 do
      let reached = P.reachable_from p root in
      let links = Hashtbl.create 16 in
      List.iter
        (fun e ->
          let s = P.edge_src p e and d = P.edge_dst p e in
          if reached.(s) then Hashtbl.replace links (min s d, max s d) ())
        (P.edges p);
      let nr = Array.fold_left (fun k b -> if b then k + 1 else k) 0 reached in
      let want = Hashtbl.length links = nr - 1 in
      let got = Tree_decomp.detect p ~root <> None in
      if got then incr trees;
      Alcotest.(check bool)
        (Printf.sprintf "%s root %d" (Platform_parse.to_string p) root)
        want got
    done
  done;
  Alcotest.(check bool) "trees and non-trees both occur" true
    (!trees > 1000 && !trees < 15000)

let test_solve_reduced_schedulable () =
  (* a star with the master computing: the closed form's flow feeds the
     schedule reconstruction like any other solution, and Robust's
     per-epoch re-plans take the same path *)
  let p =
    Platform_gen.star ~master_weight:(Ext_rat.of_int 2)
      ~slaves:[ (Ext_rat.of_int 1, R.one); (Ext_rat.of_int 3, R.one);
                (Ext_rat.of_int 1, R.of_int 2) ]
      ()
  in
  check_tree_solve "star3" p;
  let sol = Master_slave.solve p ~master:0 in
  let sched = Master_slave.schedule sol in
  Alcotest.check rat "tasks per period = ntask * period"
    (R.mul sol.Master_slave.ntask sched.Schedule.period)
    (Master_slave.tasks_per_period sched sol)

(* --- collectives: the tree dispatch ---------------------------------------

   On a tree, Collective.solve and All_to_all.solve take the closed form;
   it must satisfy every constraint of the monolithic LP (replayed
   through Lp.check_solution on the exact model the LP path solves) and
   match the kernel's answer bit for bit — the tree path is the unique
   cycle-free route of each commodity, so even the flows agree exactly.
   Off trees the LP path answers, unchanged. *)

let check_collective_solution name mode p ~source ~targets
    (sol : Collective.solution) =
  let m, tp_v, s_v, f_v = Collective.model_handles mode p ~source ~targets in
  let tbl = Hashtbl.create 64 in
  Hashtbl.replace tbl tp_v sol.Collective.throughput;
  Array.iteri
    (fun e v -> Hashtbl.replace tbl v sol.Collective.send_frac.(e))
    s_v;
  Array.iteri
    (fun k fv ->
      Array.iteri
        (fun e v -> Hashtbl.replace tbl v sol.Collective.flows.(k).(e))
        fv)
    f_v;
  (match Lp.check_solution m (Hashtbl.find tbl) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (name ^ " infeasible flow: " ^ e));
  match Collective.check_invariants sol with
  | Ok () -> ()
  | Error e -> Alcotest.fail (name ^ " invariant broken: " ^ e)

(* The kernel's answer on the monolithic model, read back as the LP path
   does: throughput and each commodity's cycle-cancelled flow. *)
let collective_lp name mode p ~source ~targets =
  let m, _, _, f_v = Collective.model_handles mode p ~source ~targets in
  match Lp.solve m with
  | Lp.Optimal s ->
    ( s.Lp.objective,
      Array.map (fun fv -> Flow.cancel_cycles p (Array.map s.Lp.values fv)) f_v
    )
  | _ -> Alcotest.fail (name ^ ": LP not optimal")

let check_collective_equal name mode p ~source ~targets
    (sol : Collective.solution) =
  let tp, flows = collective_lp name mode p ~source ~targets in
  Alcotest.check rat (name ^ " throughput") tp sol.Collective.throughput;
  Array.iteri
    (fun k fk ->
      Alcotest.check rat_arr
        (Printf.sprintf "%s flow of commodity %d" name k)
        fk sol.Collective.flows.(k))
    flows

let collective_modes = [ (Collective.Sum, "sum"); (Collective.Max, "max") ]

let test_collective_reduced_trees () =
  List.iter
    (fun (seed, nodes) ->
      let p = Platform_gen.random_tree ~seed ~nodes () in
      let all = List.filter (fun i -> i <> 0) (P.nodes p) in
      let sub = List.filter (fun i -> i mod 3 = 1) (P.nodes p) in
      List.iter
        (fun (mode, mname) ->
          List.iter
            (fun (targets, tname) ->
              if targets <> [] then begin
                let name =
                  Printf.sprintf "%s/%s seed=%d n=%d" mname tname seed nodes
                in
                let sol = Collective.solve mode p ~source:0 ~targets in
                check_collective_equal name mode p ~source:0 ~targets sol;
                check_collective_solution name mode p ~source:0 ~targets sol
              end)
            [ (all, "all"); (sub, "subset") ])
        collective_modes)
    [ (1, 5); (3, 9); (7, 12) ]

let test_collective_reduced_fallback () =
  (* cyclic platform: the closed form steps aside and the answer is the
     monolithic LP's, flows included *)
  let p = Platform_gen.random_graph ~seed:5 ~nodes:7 ~extra_edges:3 () in
  Alcotest.(check bool) "not a tree" true (Tree_decomp.detect p ~root:0 = None);
  let targets = List.filter (fun i -> i <> 0) (P.nodes p) in
  List.iter
    (fun (mode, mname) ->
      let sol = Collective.solve mode p ~source:0 ~targets in
      check_collective_equal (mname ^ " fallback") mode p ~source:0 ~targets
        sol;
      check_collective_solution (mname ^ " fallback") mode p ~source:0 ~targets
        sol)
    collective_modes

let test_collective_reduced_unreachable () =
  (* node C feeds into the tree but cannot be reached from the source:
     its sink law caps the common rate at zero *)
  let p =
    P.create
      ~names:[| "A"; "B"; "C" |]
      ~weights:[| Ext_rat.of_int 1; Ext_rat.of_int 1; Ext_rat.of_int 1 |]
      ~edges:[ (0, 1, R.one); (2, 1, R.one) ]
  in
  List.iter
    (fun (mode, mname) ->
      let targets = [ 1; 2 ] in
      let sol = Collective.solve mode p ~source:0 ~targets in
      Alcotest.check rat (mname ^ " zero throughput") R.zero
        sol.Collective.throughput;
      check_collective_equal (mname ^ " unreachable") mode p ~source:0
        ~targets sol;
      check_collective_solution (mname ^ " unreachable") mode p ~source:0
        ~targets sol)
    collective_modes

let test_broadcast_reduced () =
  List.iter
    (fun (pname, p) ->
      let targets = Broadcast.targets_of p ~source:0 in
      let sol = Broadcast.lp_bound p ~source:0 in
      check_collective_equal (pname ^ " bound") Collective.Max p ~source:0
        ~targets sol)
    [
      ("tree9", Platform_gen.random_tree ~seed:9 ~nodes:8 ());
      ("balanced", Platform_gen.balanced_tree ~seed:2 ~nodes:7 ~arity:2 ());
      ("fig1", Platform_gen.figure1 ());
    ]

let check_a2a_solution name p ~participants (sol : All_to_all.solution) =
  let m, tp_v, s_v, f_v = All_to_all.model_handles p ~participants in
  let tbl = Hashtbl.create 64 in
  Hashtbl.replace tbl tp_v sol.All_to_all.throughput;
  Array.iteri
    (fun e v ->
      let s =
        R.mul (P.edge_cost p e)
          (R.sum (List.map (fun (_, f) -> f.(e)) sol.All_to_all.flows))
      in
      Hashtbl.replace tbl v s)
    s_v;
  List.iter
    (fun (pair, fv) ->
      let flow = List.assoc pair sol.All_to_all.flows in
      Array.iteri (fun e v -> Hashtbl.replace tbl v flow.(e)) fv)
    f_v;
  (match Lp.check_solution m (Hashtbl.find tbl) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (name ^ " infeasible flow: " ^ e));
  match All_to_all.check_invariants sol with
  | Ok () -> ()
  | Error e -> Alcotest.fail (name ^ " invariant broken: " ^ e)

(* the kernel's answer on the monolithic pair LP: throughput and every
   pair's flow, bit for bit *)
let check_a2a_equal name p ~participants (sol : All_to_all.solution) =
  let m, _, _, f_v = All_to_all.model_handles p ~participants in
  match Lp.solve m with
  | Lp.Optimal s ->
    Alcotest.check rat (name ^ " throughput") s.Lp.objective
      sol.All_to_all.throughput;
    List.iter
      (fun (pair, fv) ->
        Alcotest.check rat_arr (name ^ " pair flow")
          (Flow.cancel_cycles p (Array.map s.Lp.values fv))
          (List.assoc pair sol.All_to_all.flows))
      f_v
  | _ -> Alcotest.fail (name ^ ": LP not optimal")

let test_a2a_reduced_trees () =
  List.iter
    (fun (seed, nodes) ->
      let p = Platform_gen.random_tree ~seed ~nodes () in
      let participants = List.filter (fun i -> i mod 2 = 0) (P.nodes p) in
      let name = Printf.sprintf "a2a seed=%d n=%d" seed nodes in
      let sol = All_to_all.solve p ~participants in
      check_a2a_equal name p ~participants sol;
      check_a2a_solution name p ~participants sol)
    [ (2, 5); (4, 8) ]

let test_a2a_reduced_fallback () =
  let p = Platform_gen.random_graph ~seed:11 ~nodes:6 ~extra_edges:2 () in
  let participants = [ 0; 2; 3 ] in
  Alcotest.(check bool) "not a tree" true (Tree_decomp.detect p ~root:0 = None);
  let sol = All_to_all.solve p ~participants in
  check_a2a_equal "a2a fallback" p ~participants sol;
  check_a2a_solution "a2a fallback" p ~participants sol

let test_a2a_reduced_missing_lane () =
  (* the A -> B lane exists but B -> A does not: pair (B, A) cannot
     route, so the common exchange rate is exactly zero *)
  let p =
    P.create ~names:[| "A"; "B" |]
      ~weights:[| Ext_rat.of_int 1; Ext_rat.of_int 1 |]
      ~edges:[ (0, 1, R.one) ]
  in
  let participants = [ 0; 1 ] in
  let sol = All_to_all.solve p ~participants in
  Alcotest.check rat "a2a zero" R.zero sol.All_to_all.throughput;
  check_a2a_equal "a2a missing lane" p ~participants sol;
  check_a2a_solution "a2a missing lane" p ~participants sol

(* --- generators -------------------------------------------------------- *)

let test_default_stream_unchanged () =
  let a = Platform_gen.random_tree ~seed:42 ~nodes:30 () in
  let b =
    Platform_gen.random_tree ~seed:42 ~nodes:30 ~weight_range:(1, 10)
      ~cost_range:(1, 5) ()
  in
  Alcotest.(check bool) "explicit defaults = historical stream" true
    (P.equal a b)

let test_max_degree_respected () =
  List.iter
    (fun d ->
      let p = Platform_gen.random_tree ~seed:9 ~nodes:40 ~max_degree:d () in
      Alcotest.(check bool) "spanning" true (P.is_spanning_from p 0);
      List.iter
        (fun i ->
          let deg = List.length (P.out_edges p i) in
          Alcotest.(check bool)
            (Printf.sprintf "degree of %d under %d" i d)
            true (deg <= d))
        (P.nodes p))
    [ 2; 3; 5 ]

let test_balanced_tree_shape () =
  let arity = 3 in
  let p = Platform_gen.balanced_tree ~seed:4 ~nodes:14 ~arity () in
  Alcotest.(check int) "edges" (2 * 13) (P.num_edges p);
  List.iter
    (fun i ->
      if i > 0 then
        match P.find_edge p ((i - 1) / arity) i with
        | Some _ -> ()
        | None -> Alcotest.fail (Printf.sprintf "missing parent link of %d" i))
    (P.nodes p);
  let q = Platform_gen.balanced_tree ~seed:4 ~nodes:14 ~arity () in
  Alcotest.(check bool) "deterministic" true (P.equal p q)

let test_connected_graph_generator () =
  (* the chaos shape axis rests on this generator: deterministic in
     (seed, nodes, extra_edges), connected by construction, full
     duplex, and stream-stable as knobs grow *)
  let p =
    Platform_gen.random_connected_graph ~seed:9 ~nodes:10 ~extra_edges:4 ()
  in
  let q =
    Platform_gen.random_connected_graph ~seed:9 ~nodes:10 ~extra_edges:4 ()
  in
  Alcotest.(check bool) "deterministic" true (P.equal p q);
  let r =
    Platform_gen.random_connected_graph ~seed:9 ~nodes:10 ~extra_edges:4
      ~weight_range:(1, 10) ~cost_range:(1, 5) ()
  in
  Alcotest.(check bool) "explicit defaults = historical stream" true
    (P.equal p r);
  Alcotest.(check bool) "spanning" true (P.is_spanning_from p 0);
  Alcotest.(check bool) "at least a spanning tree" true
    (P.num_edges p >= 2 * 9);
  List.iter
    (fun e ->
      match P.find_edge p (P.edge_dst p e) (P.edge_src p e) with
      | Some m ->
        Alcotest.check rat "mirror at the same cost" (P.edge_cost p e)
          (P.edge_cost p m)
      | None -> Alcotest.fail "missing mirror link")
    (P.edges p);
  List.iter
    (fun d ->
      let g =
        Platform_gen.random_connected_graph ~seed:3 ~nodes:12 ~extra_edges:6
          ~max_degree:d ()
      in
      Alcotest.(check bool) "capped graph still spanning" true
        (P.is_spanning_from g 0);
      List.iter
        (fun i ->
          Alcotest.(check bool)
            (Printf.sprintf "degree of %d under cap %d" i d)
            true
            (List.length (P.out_edges g i) <= d))
        (P.nodes g))
    [ 2; 3; 4 ]

let test_connected_graph_reduced_certified () =
  (* general graphs take the LP path: its answer matches the kernel's
     certified optimum on the model, and the flow is feasible for the
     model's own constraints *)
  List.iter
    (fun (seed, nodes, extra) ->
      let p =
        Platform_gen.random_connected_graph ~seed ~nodes ~extra_edges:extra ()
      in
      let name = Printf.sprintf "cgraph seed=%d n=%d" seed nodes in
      let m, res = Master_slave.solve_lp_only p ~master:0 in
      (match res with
      | Lp.Optimal s -> (
        match Lp.certify m s with
        | Ok () -> ()
        | Error e -> Alcotest.fail (name ^ " certificate: " ^ e))
      | _ -> Alcotest.fail (name ^ ": LP not optimal"));
      let sol = Master_slave.solve p ~master:0 in
      Alcotest.check rat (name ^ " ntask") (lp_optimum name p).Lp.objective
        sol.Master_slave.ntask;
      check_ms_solution name p sol)
    [ (1, 6, 3); (7, 8, 3); (11, 10, 5) ]

(* --- stats and hashed cache -------------------------------------------- *)

let test_stats_counting () =
  let m = ms_model (Platform_gen.figure1 ()) in
  let stats = Lp.Stats.create () in
  (match Lp.solve ~stats m with
  | Lp.Optimal _ -> ()
  | _ -> Alcotest.fail "not optimal");
  Alcotest.(check int) "one solve" 1 stats.Lp.Stats.solves;
  Alcotest.(check bool) "pivots counted" true (stats.Lp.Stats.pivots > 0);
  let cache = Lp.Cache.create () in
  let before = stats.Lp.Stats.pivots in
  ignore (Lp.solve ~stats ~cache m);
  ignore (Lp.solve ~stats ~cache m);
  Alcotest.(check int) "cache hit adds no pivots" (2 * before)
    stats.Lp.Stats.pivots;
  Alcotest.(check int) "two kernel solves total" 2 stats.Lp.Stats.solves;
  Alcotest.(check int) "one cache hit" 1 (Lp.Cache.hits cache);
  Alcotest.(check int) "tableau never refactorises" 0 stats.Lp.Stats.refactors

let test_hashed_cache_distinguishes () =
  (* distinct instances through one cache: the digest-keyed table must
     keep them apart and serve each exactly *)
  let cache = Lp.Cache.create () in
  let solos =
    List.map
      (fun (name, m) ->
        match Lp.solve ~cache m with
        | Lp.Optimal s -> (name, m, s.Lp.objective)
        | _ -> Alcotest.fail (name ^ ": not optimal"))
      (ms_instances ())
  in
  Alcotest.(check int) "no hits yet" 0 (Lp.Cache.hits cache);
  List.iter
    (fun (name, m, obj) ->
      match Lp.solve ~cache m with
      | Lp.Optimal s -> Alcotest.check rat (name ^ " replay") obj s.Lp.objective
      | _ -> Alcotest.fail (name ^ ": replay not optimal"))
    solos;
  Alcotest.(check int) "all replays hit" (List.length solos)
    (Lp.Cache.hits cache)

let suite =
  ( "scale",
    [
      Alcotest.test_case "pricing rules: same objective" `Quick
        test_rules_same_objective;
      Alcotest.test_case "solve_reduced: random trees" `Quick
        test_solve_reduced_trees;
      Alcotest.test_case "solve_reduced: balanced trees" `Quick
        test_solve_reduced_balanced;
      Alcotest.test_case "solve_reduced: non-tree fallback" `Quick
        test_solve_reduced_fallback;
      Alcotest.test_case "collective reduced: trees" `Quick
        test_collective_reduced_trees;
      Alcotest.test_case "collective reduced: non-tree fallback" `Quick
        test_collective_reduced_fallback;
      Alcotest.test_case "collective reduced: unreachable target" `Quick
        test_collective_reduced_unreachable;
      Alcotest.test_case "broadcast reduced bound" `Quick
        test_broadcast_reduced;
      Alcotest.test_case "all-to-all reduced: trees" `Quick
        test_a2a_reduced_trees;
      Alcotest.test_case "all-to-all reduced: non-tree fallback" `Quick
        test_a2a_reduced_fallback;
      Alcotest.test_case "all-to-all reduced: missing lane" `Quick
        test_a2a_reduced_missing_lane;
      Alcotest.test_case "solve_reduced: schedulable" `Quick
        test_solve_reduced_schedulable;
      Alcotest.test_case "tree detection = link count" `Quick
        test_tree_detect_counting;
      Alcotest.test_case "knapsack: closed form = LP oracle" `Quick
        test_knapsack_oracle;
      Alcotest.test_case "solve_reduced: closed form = LP oracle" `Quick
        test_solve_reduced_oracle;
      Alcotest.test_case "random_tree: default stream" `Quick
        test_default_stream_unchanged;
      Alcotest.test_case "random_tree: max_degree" `Quick
        test_max_degree_respected;
      Alcotest.test_case "random_connected_graph: generator" `Quick
        test_connected_graph_generator;
      Alcotest.test_case "random_connected_graph: reduced certified" `Quick
        test_connected_graph_reduced_certified;
      Alcotest.test_case "balanced_tree: shape" `Quick
        test_balanced_tree_shape;
      Alcotest.test_case "stats counting" `Quick test_stats_counting;
      Alcotest.test_case "hashed cache" `Quick
        test_hashed_cache_distinguishes;
    ] )
