module R = Rat
module P = Platform

type quantized = {
  period : R.t;
  edge_items : R.t array;
  node_tasks : R.t array;
  tasks_per_period : R.t;
  throughput : R.t;
}

(* Integral max flow from the master to a virtual sink.  Network nodes:
   0..n-1 are platform nodes, n is the sink.  Arcs: platform edges with
   capacity floor(T f_e) (only where f_e > 0, so the skeleton stays
   acyclic), plus one arc i -> sink with capacity floor(T rate_i).
   Capacities are integers, so Ford–Fulkerson terminates with an
   integral flow. *)
let max_flow_quantized sol period =
  let p = sol.Master_slave.platform in
  let n = P.num_nodes p in
  let sink = n in
  let master = sol.Master_slave.master in
  (* arc list: (from, to, capacity ref, flow ref, platform edge option) *)
  let arcs = ref [] in
  let add_arc u v cap tag = arcs := (u, v, cap, ref R.zero, tag) :: !arcs in
  Array.iteri
    (fun e f ->
      if R.sign f > 0 then begin
        let cap = R.of_bigint (R.floor (R.mul period f)) in
        if R.sign cap > 0 then
          add_arc (P.edge_src p e) (P.edge_dst p e) cap (Some e)
      end)
    sol.Master_slave.task_flow;
  List.iter
    (fun i ->
      let rate = R.mul sol.Master_slave.alpha.(i) (P.speed p i) in
      if R.sign rate > 0 then begin
        let cap = R.of_bigint (R.floor (R.mul period rate)) in
        if R.sign cap > 0 then add_arc i sink cap None
      end)
    (P.nodes p);
  let arcs = Array.of_list !arcs in
  (* adjacency: arc index and direction *)
  let adj = Array.make (n + 1) [] in
  Array.iteri
    (fun k (u, v, _, _, _) ->
      adj.(u) <- (k, true) :: adj.(u);
      adj.(v) <- (k, false) :: adj.(v))
    arcs;
  let residual (u, v, cap, flow, _) forward =
    ignore u;
    ignore v;
    if forward then R.sub cap !flow else !flow
  in
  (* BFS for an augmenting path (Edmonds–Karp) *)
  let rec augment () =
    let prev = Array.make (n + 1) None in
    let seen = Array.make (n + 1) false in
    seen.(master) <- true;
    let q = Queue.create () in
    Queue.add master q;
    while (not seen.(sink)) && not (Queue.is_empty q) do
      let u = Queue.pop q in
      List.iter
        (fun (k, forward) ->
          let (au, av, _, _, _) = arcs.(k) in
          let next = if forward then av else au in
          if (if forward then au = u else av = u)
             && (not seen.(next))
             && R.sign (residual arcs.(k) forward) > 0
          then begin
            seen.(next) <- true;
            prev.(next) <- Some (k, forward);
            Queue.add next q
          end)
        adj.(u)
    done;
    if seen.(sink) then begin
      (* find bottleneck *)
      let rec walk v acc =
        match prev.(v) with
        | None -> acc
        | Some (k, forward) ->
          let (au, av, _, _, _) = arcs.(k) in
          let u = if forward then au else av in
          walk u (R.min acc (residual arcs.(k) forward))
      in
      let bottleneck = walk sink (R.of_int max_int) in
      let rec push v =
        match prev.(v) with
        | None -> ()
        | Some (k, forward) ->
          let (au, av, _, flow, _) = arcs.(k) in
          let u = if forward then au else av in
          flow := (if forward then R.add else R.sub) !flow bottleneck;
          push u
      in
      push sink;
      augment ()
    end
  in
  augment ();
  let edge_items = Array.make (P.num_edges p) R.zero in
  let node_tasks = Array.make n R.zero in
  Array.iter
    (fun (u, _, _, flow, tag) ->
      match tag with
      | Some e -> edge_items.(e) <- !flow
      | None -> node_tasks.(u) <- !flow)
    arcs;
  (edge_items, node_tasks)

let quantize sol ~period =
  if R.sign period <= 0 then
    invalid_arg "Fixed_period.quantize: non-positive period";
  let edge_items, node_tasks = max_flow_quantized sol period in
  let tasks_per_period = R.sum (Array.to_list node_tasks) in
  {
    period;
    edge_items;
    node_tasks;
    tasks_per_period;
    throughput = R.div tasks_per_period period;
  }

let schedule_of ?strict sol q =
  let p = sol.Master_slave.platform in
  let period = q.period in
  let flow = Array.map (fun items -> R.div items period) q.edge_items in
  let delays = Flow.delays p flow in
  let compute =
    List.filter_map
      (fun i ->
        if R.sign q.node_tasks.(i) > 0 then Some (i, q.node_tasks.(i)) else None)
      (P.nodes p)
  in
  Reconstruct.reconstruct ?strict p ~period
    ~transfers:
      (Reconstruct.demands p ~period ~kind:0 ~item_size:R.one ~delays flow)
    ~compute ~delays

let series sol ~periods =
  List.map (fun t -> (t, quantize sol ~period:t)) periods

let sweep p ~master ~periods =
  let sol = Master_slave.solve p ~master in
  (sol, series sol ~periods)
