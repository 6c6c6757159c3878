module R = Rat
module P = Platform

type tree = P.edge list

(* Enumerate minimal arborescences by deciding, edge by edge, whether to
   include it, never giving a node two parents and never pointing an
   edge at the source.  A candidate is kept if its edges are all
   reachable from the source (then it is an arborescence), it covers the
   targets, and every leaf is a target (minimality — this also dedups:
   a non-minimal cover equals a minimal one plus junk edges, and the
   minimal one is generated on its own).

   The decision tree is embarrassingly parallel: the prefixes over the
   first few edges are enumerated sequentially (cheap), then each
   prefix's subtree is explored as an independent pool task with its own
   [has_parent] scratch and accumulator.  Concatenating the per-prefix
   results in reverse DFS order reproduces the sequential output
   exactly, list order included. *)
let enumerate_trees ?pool p ~source ~targets =
  let m = P.num_edges p in
  if m > 24 then
    invalid_arg "Multicast.enumerate_trees: platform too large (> 24 edges)";
  let n = P.num_nodes p in
  let max_edges = n - 1 in
  let is_target = Array.make n false in
  List.iter (fun t -> is_target.(t) <- true) targets;
  let check_and_emit acc chosen =
    (* reachability from source over chosen edges *)
    let chosen_list = List.rev chosen in
    let reached = Array.make n false in
    reached.(source) <- true;
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun e ->
          if reached.(P.edge_src p e) && not (reached.(P.edge_dst p e)) then begin
            reached.(P.edge_dst p e) <- true;
            changed := true
          end)
        chosen_list
    done;
    let all_reached =
      List.for_all (fun e -> reached.(P.edge_dst p e)) chosen_list
    in
    if all_reached && List.for_all (fun t -> reached.(t)) targets then begin
      (* minimality: every leaf (node with a parent but no chosen
         out-edge) must be a target *)
      let has_child = Array.make n false in
      List.iter (fun e -> has_child.(P.edge_src p e) <- true) chosen_list;
      let minimal =
        List.for_all
          (fun e ->
            let v = P.edge_dst p e in
            has_child.(v) || is_target.(v))
          chosen_list
      in
      if minimal && chosen_list <> [] then acc := chosen_list :: !acc
    end
  in
  (* explore decisions for edges [e .. m); [has_parent] and [acc] belong
     to the exploring task *)
  let rec go has_parent acc e chosen size =
    if e = m then check_and_emit acc chosen
    else begin
      (* skip edge e *)
      go has_parent acc (e + 1) chosen size;
      (* take edge e *)
      let dst = P.edge_dst p e in
      if size < max_edges && dst <> source && not has_parent.(dst) then begin
        has_parent.(dst) <- true;
        go has_parent acc (e + 1) (e :: chosen) (size + 1);
        has_parent.(dst) <- false
      end
    end
  in
  let pool = match pool with Some p -> p | None -> Pool.default () in
  let par = Pool.size pool in
  if par = 1 || m < 10 then begin
    let acc = ref [] in
    go (Array.make n false) acc 0 [] 0;
    !acc
  end
  else begin
    (* split deep enough that prefixes comfortably outnumber the pool *)
    let split = ref 0 in
    while (1 lsl !split) < 8 * par && !split < m do incr split done;
    let split = !split in
    let prefixes = ref [] in
    let gen_scratch = Array.make n false in
    let rec gen e chosen size =
      if e = split then
        prefixes := (chosen, size, Array.copy gen_scratch) :: !prefixes
      else begin
        gen (e + 1) chosen size;
        let dst = P.edge_dst p e in
        if size < max_edges && dst <> source && not gen_scratch.(dst) then begin
          gen_scratch.(dst) <- true;
          gen (e + 1) (e :: chosen) (size + 1);
          gen_scratch.(dst) <- false
        end
      end
    in
    gen 0 [] 0;
    let prefixes = Array.of_list (List.rev !prefixes) (* DFS order *) in
    let results =
      Pool.map_array pool
        (fun (chosen, size, has_parent) ->
          let acc = ref [] in
          go has_parent acc split chosen size;
          !acc)
        prefixes
    in
    (* each task list is its local reverse-emission order, so stacking
       them with later prefixes first equals the sequential output *)
    Array.fold_left (fun whole part -> part @ whole) [] results
  end

let max_lp_bound ?cache p ~source ~targets =
  Collective.solve ?cache Collective.Max p ~source ~targets

let scatter_lower_bound ?cache p ~source ~targets =
  Collective.solve ?cache Collective.Sum p ~source ~targets

type packing = {
  platform : P.t;
  source : P.node;
  targets : P.node list;
  trees : tree list;
  rates : R.t list;
  throughput : R.t;
}

(* per-message port busy time of a tree, per node *)
let port_loads p tree =
  let n = P.num_nodes p in
  let out_load = Array.make n R.zero and in_load = Array.make n R.zero in
  List.iter
    (fun e ->
      let c = P.edge_cost p e in
      let s = P.edge_src p e and d = P.edge_dst p e in
      out_load.(s) <- R.add out_load.(s) c;
      in_load.(d) <- R.add in_load.(d) c)
    tree;
  (out_load, in_load)

let packing_of_trees ?cache p ~source ~targets trees =
  if trees = [] then
    { platform = p; source; targets; trees = []; rates = []; throughput = R.zero }
  else begin
    let m = Lp.create () in
    let xs =
      List.mapi (fun i _ -> Lp.add_var m (Printf.sprintf "x%d" i)) trees
    in
    let n = P.num_nodes p in
    let out_terms = Array.make n [] and in_terms = Array.make n [] in
    List.iter2
      (fun x tree ->
        let out_load, in_load = port_loads p tree in
        for i = 0 to n - 1 do
          if R.sign out_load.(i) > 0 then
            out_terms.(i) <- Lp.term out_load.(i) x :: out_terms.(i);
          if R.sign in_load.(i) > 0 then
            in_terms.(i) <- Lp.term in_load.(i) x :: in_terms.(i)
        done)
      xs trees;
    for i = 0 to n - 1 do
      if out_terms.(i) <> [] then
        Lp.add_constraint m (Lp.sum out_terms.(i)) Lp.Le R.one;
      if in_terms.(i) <> [] then
        Lp.add_constraint m (Lp.sum in_terms.(i)) Lp.Le R.one
    done;
    Lp.set_objective m Lp.Maximize (Lp.sum (List.map Lp.var xs));
    match Lp.solve ?cache m with
    | Lp.Infeasible | Lp.Unbounded ->
      failwith "Multicast.best_tree_packing: LP not optimal (cannot happen)"
    | Lp.Optimal sol ->
      let used =
        List.filter_map
          (fun (x, tree) ->
            let v = Lp.value sol x in
            if R.sign v > 0 then Some (tree, v) else None)
          (List.combine xs trees)
      in
      {
        platform = p;
        source;
        targets;
        trees = List.map fst used;
        rates = List.map snd used;
        throughput = sol.Lp.objective;
      }
  end

let best_tree_packing ?cache p ~source ~targets =
  packing_of_trees ?cache p ~source ~targets
    (enumerate_trees p ~source ~targets)

(* Cheapest-insertion Steiner tree under a cost inflation map: connect
   each still-uncovered target by the cheapest (inflated) path from any
   node already in the tree.  Returns None if some target is
   unreachable. *)
let cheapest_insertion_tree p ~source ~targets inflate =
  (* inflated platform: same shape, scaled costs *)
  let q =
    P.create
      ~names:(Array.of_list (List.map (P.name p) (P.nodes p)))
      ~weights:(Array.of_list (List.map (P.weight p) (P.nodes p)))
      ~edges:
        (List.map
           (fun e -> (P.edge_src p e, P.edge_dst p e, inflate e))
           (P.edges p))
  in
  let in_tree = ref [ source ] in
  let tree = ref [] in
  let ok = ref true in
  List.iter
    (fun tgt ->
      if !ok && not (List.mem tgt !in_tree) then begin
        match P.multi_source_shortest_path q ~sources:!in_tree tgt with
        | None -> ok := false
        | Some path ->
          List.iter
            (fun e ->
              (* paths start at tree nodes, so every edge is new *)
              tree := e :: !tree;
              let d = P.edge_dst p e in
              if not (List.mem d !in_tree) then in_tree := d :: !in_tree)
            path
      end)
    targets;
  if !ok then Some (List.rev !tree) else None

let heuristic_trees ?(count = 4) p ~source ~targets =
  if count < 1 then invalid_arg "Multicast.heuristic_trees: count < 1";
  (* port load accumulated by previously built trees, per node side *)
  let n = P.num_nodes p in
  let out_load = Array.make n R.zero and in_load = Array.make n R.zero in
  let inflate e =
    let c = P.edge_cost p e in
    let congestion =
      R.add out_load.(P.edge_src p e) in_load.(P.edge_dst p e)
    in
    R.mul c (R.add R.one congestion)
  in
  let rec go k acc =
    if k = 0 then List.rev acc
    else begin
      match cheapest_insertion_tree p ~source ~targets inflate with
      | None -> List.rev acc
      | Some tree ->
        let fresh = not (List.exists (fun t -> t = tree) acc) in
        List.iter
          (fun e ->
            let c = P.edge_cost p e in
            let s = P.edge_src p e and d = P.edge_dst p e in
            out_load.(s) <- R.add out_load.(s) c;
            in_load.(d) <- R.add in_load.(d) c)
          tree;
        go (k - 1) (if fresh then tree :: acc else acc)
    end
  in
  go count []

let heuristic_packing ?count ?cache p ~source ~targets =
  packing_of_trees ?cache p ~source ~targets
    (heuristic_trees ?count p ~source ~targets)

let best_single_tree p ~source ~targets =
  let trees = enumerate_trees p ~source ~targets in
  let rate tree =
    let out_load, in_load = port_loads p tree in
    let worst = Array.fold_left R.max R.zero out_load in
    let worst = Array.fold_left R.max worst in_load in
    R.inv worst
  in
  List.fold_left
    (fun best tree ->
      let r = rate tree in
      match best with
      | Some (_, rb) when R.Infix.(rb >= r) -> best
      | Some _ | None -> Some (tree, r))
    None trees

(* depth of each edge inside its tree: edges out of the source have
   depth 0, edges out of a node at depth d have depth d+1 *)
let edge_depths p source tree =
  let n = P.num_nodes p in
  let node_depth = Array.make n (-1) in
  node_depth.(source) <- 0;
  let remaining = ref tree in
  let progress = ref true in
  while !remaining <> [] && !progress do
    progress := false;
    let still = ref [] in
    List.iter
      (fun e ->
        let s = P.edge_src p e in
        if node_depth.(s) >= 0 then begin
          node_depth.(P.edge_dst p e) <- node_depth.(s) + 1;
          progress := true
        end
        else still := e :: !still)
      !remaining;
    remaining := !still
  done;
  List.map (fun e -> (e, node_depth.(P.edge_src p e))) tree

let demands packing period =
  let p = packing.platform in
  List.concat
    (List.mapi
       (fun k (tree, rate) ->
         let items = R.mul period rate in
         List.map
           (fun (e, depth) ->
             {
               Schedule.d_edge = e;
               d_kind = k;
               d_items = items;
               d_item_size = Collective.message_size;
               d_delay = depth;
             })
           (edge_depths p packing.source tree))
       (List.combine packing.trees packing.rates))

let schedule_of_packing packing =
  let p = packing.platform in
  let period = Reconstruct.period packing.rates in
  Reconstruct.reconstruct p ~period
    ~transfers:(demands packing period)
    ~compute:[]
    ~delays:(Array.make (P.num_nodes p) 0)

type run = {
  elapsed : R.t;
  periods : int;
  delivered : R.t array;
  throughput : R.t;
}

let simulate_packing ?(periods = 8) packing =
  let p = packing.platform in
  let sched = schedule_of_packing packing in
  (* every tree into a target delivers it each message *)
  let delivered =
    Schedule.deliver ~periods sched
      (List.map
         (fun tgt d -> P.edge_dst p d.Schedule.d_edge = tgt)
         packing.targets)
  in
  {
    elapsed = R.mul (R.of_int periods) sched.Schedule.period;
    periods;
    delivered;
    throughput = packing.throughput;
  }
