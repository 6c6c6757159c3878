(* Tests for the large-n scaling path: the closed-form tree solves that
   Master_slave.solve, Collective.solve and All_to_all.solve pick
   whenever Tree_decomp.detect finds a tree, the row-and-column
   generation Master_slave.solve runs on other platforms, and the
   monolithic LP the collectives build there.

   The contract under test is always the same: the closed form and the
   generation must be *bit-identical* in throughput to the monolithic
   LP — speed is allowed to change, answers are not.  The generation's
   answer passes Lp.certify on the whole model, and the collectives'
   answer off trees is the LP's own, field by field. *)

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
        match Lp.check_solution m (Lp.value s) with
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
  (match Oracles.check_buffers sched ~master:0 ~periods:8 with
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

(* Off trees [solve] runs the row-and-column generation: its throughput
   is the monolithic LP's bit for bit, the point it returns passes
   [Lp.certify] on the whole of [build_lp] with the duals the generation
   extended ([Master_slave.generate], whose answer the solution is read
   from: alphas as they are, flow cycle-cancelled), and the task flow is
   cycle-free.  The vertex may be another optimal one than the kernel's
   on [build_lp]. *)
let test_solve_reduced_fallback () =
  List.iter
    (fun (name, p) ->
      Alcotest.(check bool) (name ^ " not a tree") true
        (Tree_decomp.detect p ~root:0 = None);
      let m, alpha_v, s_v = Master_slave.build_lp p ~master:0 in
      let sol = Master_slave.solve p ~master:0 in
      Alcotest.check rat (name ^ " ntask = LP") (lp_optimum name p).Lp.objective
        sol.Master_slave.ntask;
      let answer =
        match Master_slave.generate p ~master:0 with
        | Ok (_, a) -> a
        | Error _ -> Alcotest.fail (name ^ ": generation not optimal")
      in
      Alcotest.check rat_arr (name ^ " alpha = generated")
        (Array.map (Lp.value answer) alpha_v) sol.Master_slave.alpha;
      Alcotest.check rat_arr (name ^ " task_flow = generated, cancelled")
        (Reconstruct.cancel p
           (Array.mapi
              (fun e v -> R.div (Lp.value answer v) (P.edge_cost p e))
              s_v))
        sol.Master_slave.task_flow;
      Alcotest.check rat_arr (name ^ " send_frac")
        (Array.mapi (fun e f -> R.mul f (P.edge_cost p e))
           sol.Master_slave.task_flow)
        sol.Master_slave.send_frac;
      let point = Array.make (Lp.num_vars m) R.zero in
      let set (v : Lp.var) x = point.((v :> int)) <- x in
      Array.iteri (fun i v -> set v sol.Master_slave.alpha.(i)) alpha_v;
      Array.iteri (fun e v -> set v sol.Master_slave.send_frac.(e)) s_v;
      (match
         Lp.certify m
           { answer with Lp.objective = sol.Master_slave.ntask;
                         values = point }
       with
      | Ok () -> ()
      | Error e -> Alcotest.fail (name ^ " certificate: " ^ e));
      Alcotest.(check bool) (name ^ " cycle-free") true
        (Flow.is_acyclic p sol.Master_slave.task_flow);
      check_ms_solution name p sol)
    [
      ("fig1", Platform_gen.figure1 ());
      ("graph5", Platform_gen.random_graph ~seed:5 ~nodes:8 ~extra_edges:4 ());
      ("graph23", Platform_gen.random_graph ~seed:23 ~nodes:10 ~extra_edges:3 ());
      ( "cgraph7",
        Platform_gen.random_connected_graph ~seed:7 ~nodes:8 ~extra_edges:3 () );
    ]

(* --- master–slave off trees: row-and-column generation ---------------- *)

(* [generate] against the monolithic LP: the same throughput, an answer
   [Lp.certify] accepts on the whole model, at most n rounds (one kernel
   solve each without a cache), and [try_solve] reading the same
   throughput off a cycle-free, feasible flow. *)
let check_generated name p ~master =
  let n = P.num_nodes p in
  let m, alpha_v, s_v = Master_slave.build_lp p ~master in
  let optimum =
    match Master_slave.solve_lp_only p ~master with
    | _, Lp.Optimal s -> s.Lp.objective
    | _ -> Alcotest.fail (name ^ ": LP not optimal")
  in
  let stats = Lp.Stats.create () in
  (match Master_slave.generate ~stats p ~master with
  | Ok (kept, answer) ->
    Alcotest.check rat (name ^ " generated = LP") optimum answer.Lp.objective;
    Alcotest.(check bool) (name ^ " master kept") true kept.(master);
    (match Lp.certify m answer with
    | Ok () -> ()
    | Error e -> Alcotest.fail (name ^ " certificate: " ^ e));
    if stats.Lp.Stats.solves < 1 || stats.Lp.Stats.solves > n then
      Alcotest.failf "%s: %d rounds on %d nodes" name stats.Lp.Stats.solves n
  | Error _ -> Alcotest.fail (name ^ ": generation not optimal"));
  match Master_slave.try_solve p ~master with
  | Ok sol ->
    Alcotest.check rat (name ^ " ntask = LP") optimum sol.Master_slave.ntask;
    Alcotest.(check bool) (name ^ " cycle-free") true
      (Flow.is_acyclic p sol.Master_slave.task_flow);
    let point = Hashtbl.create 64 in
    Array.iteri (fun i v -> Hashtbl.replace point v sol.Master_slave.alpha.(i))
      alpha_v;
    Array.iteri
      (fun e v -> Hashtbl.replace point v sol.Master_slave.send_frac.(e))
      s_v;
    (match Lp.check_solution m (Hashtbl.find point) with
    | Ok _ -> ()
    | Error e -> Alcotest.fail (name ^ " infeasible flow: " ^ e))
  | Error _ -> Alcotest.fail (name ^ ": try_solve not optimal")

(* A [random_connected_graph] of 6-60 nodes with n/2 chords and any mix
   of: routers (w = inf) on about a third of the other nodes, a third
   of the directed edges dropped (so that parts of the platform may be
   unreachable from the master), a master other than node 0, a master
   that computes nothing, and tie-heavy draws (every cost 1, weights in
   {1, 3/2, 2}). *)
let graph_case (seed, nodes, flags) =
  let has k = flags land (1 lsl k) <> 0 in
  let ties = has 4 in
  let g =
    Platform_gen.random_connected_graph ~seed ~nodes ~extra_edges:(nodes / 2)
      ?weight_range:(if ties then Some (1, 2) else None)
      ?cost_range:(if ties then Some (1, 1) else None)
      ()
  in
  let st = Random.State.make [| seed; flags |] in
  let master = if has 2 then 1 + Random.State.int st (nodes - 1) else 0 in
  let router =
    Array.init nodes (fun i ->
        has 0 && i <> master && Random.State.int st 3 = 0)
  in
  let dropped =
    Array.init (P.num_edges g) (fun _ -> has 1 && Random.State.int st 3 = 0)
  in
  let weights i =
    if router.(i) || (has 3 && i = master) then Ext_rat.Inf else P.weight g i
  in
  let r =
    P.restrict ~weights g ~keep_node:(fun _ -> true)
      ~keep_edge:(fun e -> not dropped.(e))
  in
  (r.P.sub, master)

let case_name (seed, nodes, flags) =
  Printf.sprintf "seed=%d nodes=%d flags=%d" seed nodes flags

let prop_graph_solve_full_lp =
  QCheck.Test.make ~name:"graph solve = full LP" ~count:200
    QCheck.(
      make
        ~print:case_name
        Gen.(triple (int_range 0 100_000) (int_range 6 60) (int_range 0 31)))
    (fun case ->
      let p, master = graph_case case in
      check_generated (case_name case) p ~master;
      true)

(* Pricing is exact: on any kept node set holding the master, the
   extended answer of [restricted] passes [Lp.certify] on the whole
   model exactly when pricing adds no node, and every node it adds is
   an omitted one. *)
let prop_pricing_is_the_certificate =
  QCheck.Test.make ~name:"generation: pricing = certificate" ~count:200
    QCheck.(
      make
        ~print:case_name
        Gen.(triple (int_range 0 100_000) (int_range 6 40) (int_range 0 31)))
    (fun ((seed, _, flags) as case) ->
      let p, master = graph_case case in
      let st = Random.State.make [| seed; flags; 7 |] in
      let share = 1 + Random.State.int st 4 in
      let kept =
        Array.init (P.num_nodes p) (fun v ->
            v = master || Random.State.int st 5 < share)
      in
      let m, _, _ = Master_slave.build_lp p ~master in
      match Master_slave.restricted p ~master ~kept with
      | Ok (answer, added) ->
        List.for_all (fun v -> not kept.(v)) added
        && (Lp.certify m answer = Ok ()) = (added = [])
      | Error _ -> false)

(* A ring: the chain P0 - P1 - ... - P11 (cost 1 each way) closed by the
   chord P0 - P11 (cost 2), the master P0 computing nothing and every
   other node at w = 8.  The shortest-path tree splits the ring in two
   and its closed form feeds only the nodes near the master; the
   optimum reaches round the far side, so the generation takes several
   rounds to get there. *)
let ring () =
  let k = 12 in
  let link i j c = [ (i, j, c); (j, i, c) ] in
  P.create
    ~names:(Array.init k (Printf.sprintf "P%d"))
    ~weights:
      (Array.init k (fun i ->
           if i = 0 then Ext_rat.Inf else Ext_rat.of_int 8))
    ~edges:(List.concat (List.init (k - 1) (fun i -> link i (i + 1) R.one))
            @ link 0 (k - 1) R.two)

let test_generation_rounds () =
  let p = ring () in
  check_generated "ring" p ~master:0;
  let stats = Lp.Stats.create () in
  ignore (Master_slave.generate ~stats p ~master:0);
  if stats.Lp.Stats.solves < 3 then
    Alcotest.failf "ring: %d rounds, several expected" stats.Lp.Stats.solves;
  (* on a 30-node graph with 15 chords the optimum feeds a few nodes,
     so the certified node set is a strict subset: a generation that
     fell back to the whole LP would keep them all *)
  let g =
    Platform_gen.random_connected_graph ~seed:1 ~nodes:30 ~extra_edges:15 ()
  in
  check_generated "cgraph30" g ~master:0;
  match Master_slave.generate g ~master:0 with
  | Ok (kept, _) ->
    Alcotest.(check bool) "cgraph30: some node left out" true
      (Array.exists not kept)
  | Error _ -> Alcotest.fail "cgraph30: generation not optimal"

(* The certificate is what makes the answer trustworthy, so it must
   refuse a generation stopped short or a dual set one entry off:
   - drop any kept node whose absence lowers the restricted optimum
     (there must be one: the ring's far side), and the extended answer
     fails;
   - flip the sign of a positive port dual (a [Le] row of a maximum
     needs a dual >= 0), or price an omitted computing node's tasks at
     0 instead of 1 (its conservation dual -1 -> 0), and it fails. *)
let test_generation_mutants () =
  let p = ring () in
  let m, _, _ = Master_slave.build_lp p ~master:0 in
  let kept, answer =
    match Master_slave.generate p ~master:0 with
    | Ok r -> r
    | Error _ -> Alcotest.fail "ring: generation not optimal"
  in
  let refused what sol =
    match Lp.certify m sol with
    | Ok () -> Alcotest.fail ("certificate accepts " ^ what)
    | Error _ -> ()
  in
  let dropped = ref 0 in
  Array.iteri
    (fun v k ->
      if k && v <> 0 then begin
        let fewer = Array.mapi (fun u k -> k && u <> v) kept in
        match Master_slave.restricted p ~master:0 ~kept:fewer with
        | Ok (sol, _) when R.compare sol.Lp.objective answer.Lp.objective < 0 ->
          incr dropped;
          refused (Printf.sprintf "the answer without %s" (P.name p v)) sol
        | Ok _ -> ()
        | Error _ -> Alcotest.fail "ring: restricted LP not optimal"
      end)
    kept;
  Alcotest.(check bool) "some kept node is needed" true (!dropped > 0);
  let rows = Array.of_list (Lp.row_names m) in
  let with_dual (sol : Lp.solution) r y =
    { sol with
      Lp.duals = Array.mapi (fun i d -> if i = r then y else d) sol.Lp.duals }
  in
  let flips = ref 0 in
  Array.iteri
    (fun r y ->
      let port =
        String.starts_with ~prefix:"outport_" rows.(r)
        || String.starts_with ~prefix:"inport_" rows.(r)
      in
      if port && R.sign y > 0 then begin
        incr flips;
        refused ("a flipped " ^ rows.(r)) (with_dual answer r (R.neg y))
      end)
    answer.Lp.duals;
  Alcotest.(check bool) "a port dual to flip" true (!flips > 0);
  (* a restriction to the master and its neighbours leaves computing
     nodes out *)
  let near = Array.init (P.num_nodes p) (fun v -> v = 0 || v = 1 || v = 11) in
  match Master_slave.restricted p ~master:0 ~kept:near with
  | Ok (sol, _) ->
    let r = Option.get (Array.find_index (String.equal "conserve_P5") rows) in
    Alcotest.check rat "omitted node's task worth 1" R.minus_one
      sol.Lp.duals.(r);
    refused "an omitted task worth 0" (with_dual sol r R.zero)
  | Error _ -> Alcotest.fail "ring: restricted LP not optimal"

(* The closed-form knapsack against the LP oracle on seeded, tie-heavy
   instances: one to six children, costs drawn from a small set (all
   equal in a quarter of the instances), and capacities that make the
   bound 0, exactly 1, fractional, or clipped to 1 from above.  Both
   closed forms meet every instance: the eager sweep's knapsack (in
   Tree_eager_reference) directly, and the library's as Master_slave.solve
   on a one-level star whose leaf e has link cost c_e and speed cap_e
   (w = inf for cap 0), so that its bound is min(1, c_e * cap_e) and,
   with a master that computes nothing, send_frac is the plan y.  The
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
    let v', ys' = Knapsack_reference.knapsack children in
    let star =
      P.create
        ~names:(Array.init (k + 1) (Printf.sprintf "N%d"))
        ~weights:
          (Array.of_list
             (Ext_rat.inf
             :: List.map
                  (fun (_, _, cap) ->
                    if R.is_zero cap then Ext_rat.inf
                    else Ext_rat.of_rat (R.inv cap))
                  children))
        ~edges:(List.map (fun (e, c, _) -> (0, e + 1, c)) children)
    in
    let sol = Master_slave.solve star ~master:0 in
    let lib = (sol.Master_slave.ntask, List.mapi (fun e y -> (e, y))
                 (Array.to_list sol.Master_slave.send_frac)) in
    List.iter
      (fun (what, (v, ys)) ->
        if not (R.equal v v' && List.equal (fun (e, y) (e', y') ->
            e = e' && R.equal y y') ys ys')
        then begin
          Alcotest.check rat (Printf.sprintf "case %d %s objective" case what)
            v' v;
          Alcotest.check plan (Printf.sprintf "case %d %s plan" case what)
            ys' ys
        end)
      [ ("eager", Tree_eager_reference.knapsack children); ("library", lib) ]
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

(* The shortest-path tree the generation starts from: each node's parent
   edge ends the path [P.shortest_path] returns (-1 at the master and at
   unreached nodes), and [of_parents] decomposes it as [detect] does on
   the platform of the tree edges alone (same nodes, so the same order
   and children ranges, its edges renumbered).  Seeded graphs with a
   third of the directed edges dropped, masters anywhere. *)
let test_shortest_path_decomp () =
  for seed = 1 to 40 do
    let nodes = 4 + (seed mod 17) in
    (* edges dropped; on odd seeds, the master off node 0 *)
    let case = (seed, nodes, if seed mod 2 = 0 then 2 else 6) in
    let p, master = graph_case case in
    let name = case_name case in
    let parents = P.shortest_path_tree p master in
    Array.iteri
      (fun v e ->
        let want =
          match P.shortest_path p master v with
          | Some (_ :: _ as path) -> List.nth path (List.length path - 1)
          | Some [] | None -> -1
        in
        Alcotest.(check int) (Printf.sprintf "%s parent of %d" name v) want e)
      parents;
    let td = Tree_decomp.of_parents p ~root:master (Array.copy parents) in
    let r =
      P.restrict p ~keep_node:(fun _ -> true)
        ~keep_edge:(fun e -> parents.(P.edge_dst p e) = e)
    in
    match Tree_decomp.detect r.P.sub ~root:master with
    | None -> Alcotest.fail (name ^ ": tree edges do not form a tree")
    | Some d ->
      let ints = Alcotest.(array int) in
      Alcotest.check ints (name ^ " order") d.Tree_decomp.order
        td.Tree_decomp.order;
      Alcotest.check ints (name ^ " child_lo") d.Tree_decomp.child_lo
        td.Tree_decomp.child_lo;
      Alcotest.check ints (name ^ " child_hi") d.Tree_decomp.child_hi
        td.Tree_decomp.child_hi;
      Alcotest.(check (list bool)) (name ^ " reached")
        (List.map (Tree_decomp.reached d) (P.nodes p))
        (List.map (Tree_decomp.reached td) (P.nodes p));
      Alcotest.check ints (name ^ " parent edges")
        (Array.map
           (fun e -> if e < 0 then -1 else r.P.edge_of_sub.(e))
           d.Tree_decomp.parent_edge)
        td.Tree_decomp.parent_edge
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
    (Schedule.tasks_per_period sched)

(* --- collectives: the tree dispatch ---------------------------------------

   On a tree, Collective.solve and All_to_all.solve take the closed form;
   it must satisfy every constraint of the monolithic LP (replayed
   through Lp.check_solution on the exact model the LP path solves) and
   match the kernel's answer bit for bit — the tree path is the unique
   cycle-free route of each commodity, so even the flows agree exactly.
   Off trees the LP path answers, unchanged. *)

let check_collective_solution name mode p ~pairs (sol : Collective.solution) =
  let m, tp_v, s_v, f_v = Collective.model_handles mode p ~pairs in
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
  match Oracles.check_invariants sol with
  | Ok () -> ()
  | Error e -> Alcotest.fail (name ^ " invariant broken: " ^ e)

(* The kernel's answer on the monolithic model, read back as the LP path
   does: throughput and each commodity's cycle-cancelled flow. *)
let collective_lp name mode p ~pairs =
  let m, _, _, f_v = Collective.model_handles mode p ~pairs in
  match Lp.solve m with
  | Lp.Optimal s ->
    ( s.Lp.objective,
      Array.map (fun fv -> Flow.cancel_cycles p (Array.map (Lp.value s) fv)) f_v
    )
  | _ -> Alcotest.fail (name ^ ": LP not optimal")

let check_collective_equal name mode p ~pairs (sol : Collective.solution) =
  let tp, flows = collective_lp name mode p ~pairs in
  Alcotest.check rat (name ^ " throughput") tp sol.Collective.throughput;
  Array.iteri
    (fun k fk ->
      Alcotest.check rat_arr
        (Printf.sprintf "%s flow of commodity %d" name k)
        fk sol.Collective.flows.(k))
    flows

(* the commodities of a collective: one (source, target) pair per
   target *)
let from source targets = List.map (fun t -> (source, t)) targets

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
                let pairs = from 0 targets in
                check_collective_equal name mode p ~pairs sol;
                check_collective_solution name mode p ~pairs sol
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
      let pairs = from 0 targets in
      check_collective_equal (mname ^ " fallback") mode p ~pairs sol;
      check_collective_solution (mname ^ " fallback") mode p ~pairs sol)
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
      let pairs = from 0 targets in
      check_collective_equal (mname ^ " unreachable") mode p ~pairs sol;
      check_collective_solution (mname ^ " unreachable") mode p ~pairs sol)
    collective_modes

let test_broadcast_reduced () =
  List.iter
    (fun (pname, p) ->
      let targets = Broadcast.targets_of p ~source:0 in
      let sol = Broadcast.lp_bound p ~source:0 in
      check_collective_equal (pname ^ " bound") Collective.Max p
        ~pairs:(from 0 targets) sol)
    [
      ("tree9", Platform_gen.random_tree ~seed:9 ~nodes:8 ());
      ("balanced", Platform_gen.balanced_tree ~seed:2 ~nodes:7 ~arity:2 ());
      ("fig1", Platform_gen.figure1 ());
    ]

(* An all-to-all answer is a Sum-law collective over the ordered pairs
   of its participants: the same replay and kernel comparison, on the
   shared pair model. *)
let a2a_pairs participants =
  List.concat_map
    (fun s ->
      List.filter_map (fun t -> if s = t then None else Some (s, t))
        participants)
    participants

let check_a2a name p ~participants (sol : All_to_all.solution) =
  let pairs = a2a_pairs participants in
  Alcotest.(check (list (pair int int)))
    (name ^ " pairs") pairs sol.Collective.pairs;
  check_collective_equal name Collective.Sum p ~pairs sol;
  check_collective_solution name Collective.Sum p ~pairs sol

let test_a2a_reduced_trees () =
  List.iter
    (fun (seed, nodes) ->
      let p = Platform_gen.random_tree ~seed ~nodes () in
      let participants = List.filter (fun i -> i mod 2 = 0) (P.nodes p) in
      let name = Printf.sprintf "a2a seed=%d n=%d" seed nodes in
      let sol = All_to_all.solve p ~participants in
      check_a2a name p ~participants sol)
    [ (2, 5); (4, 8) ]

let test_a2a_reduced_fallback () =
  let p = Platform_gen.random_graph ~seed:11 ~nodes:6 ~extra_edges:2 () in
  let participants = [ 0; 2; 3 ] in
  Alcotest.(check bool) "not a tree" true (Tree_decomp.detect p ~root:0 = None);
  let sol = All_to_all.solve p ~participants in
  check_a2a "a2a fallback" p ~participants sol

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
  Alcotest.check rat "a2a zero" R.zero sol.Collective.throughput;
  check_a2a "a2a missing lane" p ~participants sol

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
  (* general graphs take the generation: its answer matches the
     kernel's certified optimum on the model, and the flow is feasible
     for the model's own constraints *)
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

(* The lazy tree sweep against the eager one it replaced
   (Tree_eager_reference: one knapsack at every node, a top-down walk
   over the whole BFS order), bit for bit on every field.  The trees
   are drawn to stress the parts the lazy form skips or reorders:
   tie-heavy costs and weights (every value in {1, 3/2, 2}), pure
   routers (w = inf, so their bound always needs K), masters that are
   not node 0, and balanced trees of arity 1 to 4. *)
let lazy_sweep_tree =
  QCheck.(
    make
      ~print:(fun (seed, nodes, kind, routers, master) ->
        Printf.sprintf "seed=%d nodes=%d kind=%d routers=%d master=%d" seed
          nodes kind routers master)
      Gen.(
        tup5 (int_range 1 1_000_000) (int_range 1 60) (int_range 0 5)
          (int_range 0 3) (int_range 0 1_000_000)))

let lazy_sweep_platform (seed, nodes, kind, routers, master) =
  let p =
    match kind with
    | 0 -> Platform_gen.random_tree ~seed ~nodes ()
    | 1 ->
      Platform_gen.random_tree ~seed ~nodes ~cost_range:(1, 2)
        ~weight_range:(1, 2) ()
    | k -> Platform_gen.balanced_tree ~seed ~nodes ~arity:(k - 1) ()
  in
  (* every [routers]-th node, from a seeded offset, turns into a pure
     router; 0 keeps every CPU *)
  let p =
    if routers = 0 then p
    else
      P.create
        ~names:(Array.init (P.num_nodes p) (P.name p))
        ~weights:
          (Array.init (P.num_nodes p) (fun v ->
               if (v + seed) mod (routers + 1) = 0 then Ext_rat.Inf
               else P.weight p v))
        ~edges:
          (List.map
             (fun e -> (P.edge_src p e, P.edge_dst p e, P.edge_cost p e))
             (P.edges p))
  in
  (p, master mod P.num_nodes p)

let prop_lazy_sweep_eager =
  QCheck.Test.make ~name:"tree sweep: lazy = eager" ~count:600 lazy_sweep_tree
    (fun params ->
      let p, master = lazy_sweep_platform params in
      let got = Master_slave.solve p ~master in
      let want = Tree_eager_reference.solve_tree p ~master in
      let same a b = Array.for_all2 R.equal a b in
      R.equal got.Master_slave.ntask want.Master_slave.ntask
      && same got.Master_slave.alpha want.Master_slave.alpha
      && same got.Master_slave.send_frac want.Master_slave.send_frac
      && same got.Master_slave.task_flow want.Master_slave.task_flow)

(* A 10^5-node chain whose every link is faster than the CPU below it
   (w = 2, c = 1), so each bound needs the K of the whole chain below:
   the sweep must solve 10^5 nested knapsacks without recursing. *)
let test_long_chain () =
  let n = 100_000 in
  let p =
    Platform_gen.chain
      ~weights:(List.init n (fun _ -> Ext_rat.of_int 2))
      ~cost:R.one ()
  in
  let sol = Master_slave.solve p ~master:0 in
  (* the master computes 1/2 and sends 1, P1 computes 1/2 of it and
     forwards 1/2, P2 computes that *)
  Alcotest.check rat "ntask" (R.of_ints 3 2) sol.Master_slave.ntask;
  Alcotest.check rat "P2 busy" R.one sol.Master_slave.alpha.(2);
  Alcotest.check rat "P3 idle" R.zero sol.Master_slave.alpha.(3)

(* The tree closed form of Collective reads each lane's busy fraction
   off its load (load * TP); it must equal the mode law applied to the
   routed flows, c * sum_k f_k under Sum and c * max_k f_k under Max,
   whatever the tree, the source and the targets. *)
let collective_tree =
  QCheck.(
    make
      ~print:(fun (seed, nodes, balanced, sum, source) ->
        Printf.sprintf "seed=%d nodes=%d balanced=%b sum=%b source=%d" seed
          nodes balanced sum source)
      Gen.(
        tup5 (int_range 1 1_000_000) (int_range 2 40) bool bool
          (int_range 0 1_000_000)))

let prop_collective_send_frac =
  QCheck.Test.make ~name:"collective tree: send_frac = mode law of flows"
    ~count:300 collective_tree (fun (seed, nodes, balanced, sum, source) ->
      let p =
        if balanced then
          Platform_gen.balanced_tree ~seed ~nodes ~arity:(1 + (seed mod 4)) ()
        else Platform_gen.random_tree ~seed ~nodes ()
      in
      let source = source mod nodes in
      (* every other node, from a seeded offset, is a target *)
      let targets =
        List.filter
          (fun v -> v <> source && (v + seed) mod 2 = 0)
          (P.nodes p)
      in
      let targets = if targets = [] then [ (source + 1) mod nodes ] else targets in
      let mode = if sum then Collective.Sum else Collective.Max in
      let sol = Collective.solve mode p ~source ~targets in
      let flows = sol.Collective.flows in
      let law e =
        let f = Array.map (fun fk -> fk.(e)) flows in
        R.mul (P.edge_cost p e)
          (if sum then Array.fold_left R.add R.zero f
           else Array.fold_left R.max R.zero f)
      in
      Tree_decomp.detect p ~root:source <> None
      && List.for_all
           (fun e -> R.equal sol.Collective.send_frac.(e) (law e))
           (P.edges p))

(* Words a call allocates: minor plus major less promoted, with the
   minor heap emptied on both sides so that the minor count is exact
   and every promotion counted is of a word the call allocated. *)
let allocated f =
  Gc.minor ();
  let minor0, promoted0, major0 = Gc.counters () in
  let r = f () in
  Gc.minor ();
  let minor1, promoted1, major1 = Gc.counters () in
  (r, minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))

(* The simulator keeps state only for what the schedule touches: on a
   10^5-node chain (w = 1, c = 1) the flow uses the master and P1, and
   running six periods of its schedule allocates the same few thousand
   words as on a 100-node chain.  A simulator sized by the platform
   allocated 5.8 million words here. *)
let test_sim_alloc () =
  let run n =
    let p =
      Platform_gen.chain ~weights:(List.init n (fun _ -> Ext_rat.one)) ~cost:R.one ()
    in
    let sched = Master_slave.schedule (Master_slave.solve p ~master:0) in
    Alcotest.(check (list int)) "computing nodes" [ 0; 1 ]
      (List.map fst sched.Schedule.compute);
    let done_, words =
      allocated (fun () -> Schedule.completed (Schedule.run ~periods:6 sched))
    in
    Alcotest.check rat "tasks" (R.of_int 11) done_;
    words
  in
  let small = run 100 and large = run 100_000 in
  if large > 20_000. then
    Alcotest.failf "Schedule.run allocated %.0f words on a 10^5-node chain" large;
  Alcotest.(check (float 0.)) "the same words at n = 10^2 and 10^5" small large

(* One solve-tree op, parse to simulation, on a 10^4-node random tree:
   505 859 words when this bound was set, about 1.25x under it (the
   parser, schedule and simulator sized by the platform allocated
   2 010 084). *)
let test_op_alloc () =
  let text =
    Platform_parse.to_string (Platform_gen.random_tree ~seed:7 ~nodes:10_000 ())
  in
  let _, words =
    allocated (fun () ->
        let p = Platform_parse.of_string text in
        let sol = Master_slave.solve p ~master:0 in
        let sched = Master_slave.schedule sol in
        (sched, Master_slave.simulate ~periods:6 sol))
  in
  if words > 632_000. then
    Alcotest.failf "a 10^4-node solve-tree op allocated %.0f words" words

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
      QCheck_alcotest.to_alcotest prop_graph_solve_full_lp;
      QCheck_alcotest.to_alcotest prop_pricing_is_the_certificate;
      Alcotest.test_case "generation: several rounds on a ring" `Quick
        test_generation_rounds;
      Alcotest.test_case "generation: the certificate refuses mutants" `Quick
        test_generation_mutants;
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
      Alcotest.test_case "shortest-path tree: of_parents = detect" `Quick
        test_shortest_path_decomp;
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
      QCheck_alcotest.to_alcotest prop_lazy_sweep_eager;
      Alcotest.test_case "tree sweep: 10^5-node chain" `Quick test_long_chain;
      Alcotest.test_case "simulator allocation follows the flow" `Quick
        test_sim_alloc;
      Alcotest.test_case "solve-tree op allocation" `Quick test_op_alloc;
      QCheck_alcotest.to_alcotest prop_collective_send_frac;
    ] )
