module R = Rat
module P = Platform

type solution = {
  platform : P.t;
  master : P.node;
  ntask : R.t;
  alpha : R.t array;
  send_frac : R.t array;
  task_flow : Flow.t;
}

type ports = Duplex of (P.node -> R.t) * (P.node -> R.t) | Half_duplex

let one_port = Duplex ((fun _ -> R.one), fun _ -> R.one)

let check_master fn p master =
  if master < 0 || master >= P.num_nodes p then
    invalid_arg (fn ^ ": master out of range")

let ports_lp fn ports p ~master =
  check_master fn p master;
  let m = Lp.create () in
  let n = P.num_nodes p in
  let unit_iv = Some R.one in
  let alpha_v =
    Array.init n (fun i ->
        Lp.add_var ~ub:unit_iv m (Printf.sprintf "alpha_%s" (P.name p i)))
  in
  let s_v =
    Array.init (P.num_edges p) (fun e ->
        Lp.add_var ~ub:unit_iv m (Printf.sprintf "s_%s" (P.edge_name p e)))
  in
  (* port constraints: the only rows the models of the family differ in *)
  let port name es budget =
    if es <> [] then
      Lp.add_constraint ~name m
        (Lp.sum (List.map (fun e -> Lp.var s_v.(e)) es))
        Lp.Le budget
  in
  List.iter
    (fun i ->
      let outs = P.out_edges p i and ins = P.in_edges p i in
      match ports with
      | Duplex (send, recv) ->
        port ("outport_" ^ P.name p i) outs (send i);
        port ("inport_" ^ P.name p i) ins (recv i)
      | Half_duplex -> port ("port_" ^ P.name p i) (outs @ ins) R.one)
    (P.nodes p);
  (* the master receives nothing *)
  List.iter
    (fun e ->
      Lp.add_constraint
        ~name:(Printf.sprintf "nomaster_%s" (P.edge_name p e))
        m (Lp.var s_v.(e)) Lp.Eq R.zero)
    (P.in_edges p master);
  (* conservation at every non-master node:
     sum_in s/c = alpha * speed + sum_out s/c *)
  List.iter
    (fun i ->
      if i <> master then begin
        let inflow =
          List.map
            (fun e -> Lp.term (R.inv (P.edge_cost p e)) s_v.(e))
            (P.in_edges p i)
        in
        let outflow =
          List.map
            (fun e -> Lp.term (R.neg (R.inv (P.edge_cost p e))) s_v.(e))
            (P.out_edges p i)
        in
        let consumed = Lp.term (R.neg (P.speed p i)) alpha_v.(i) in
        Lp.add_constraint
          ~name:(Printf.sprintf "conserve_%s" (P.name p i))
          m
          (Lp.sum ((consumed :: inflow) @ outflow))
          Lp.Eq R.zero
      end)
    (P.nodes p);
  Lp.set_objective m Lp.Maximize
    (Lp.sum
       (List.map (fun i -> Lp.term (P.speed p i) alpha_v.(i)) (P.nodes p)));
  (m, alpha_v, s_v)

let build_lp p ~master = ports_lp "Master_slave.build_lp" one_port p ~master

let solve_lp_only ?cache ?stats p ~master =
  let m, _, _ = ports_lp "Master_slave.solve_lp_only" one_port p ~master in
  (m, Lp.solve ?cache ?stats m)

(* Map an optimal LP solution back onto the platform: activity
   fractions per node, cycle-free task flow per edge. *)
let solution_of_sol ?stats p ~master alpha_v s_v (sol : Lp.solution) =
  let alpha = Array.map sol.Lp.values alpha_v in
  let raw_flow =
    Array.mapi (fun e sv -> R.div (sol.Lp.values sv) (P.edge_cost p e)) s_v
  in
  let task_flow = Reconstruct.cancel ?stats p raw_flow in
  let send_frac =
    Array.mapi (fun e f -> R.mul f (P.edge_cost p e)) task_flow
  in
  {
    platform = p;
    master;
    ntask = sol.Lp.objective;
    alpha;
    send_frac;
    task_flow;
  }

let solve_ports fn ports p ~master =
  let m, alpha_v, s_v = ports_lp fn ports p ~master in
  match Lp.solve m with
  | Lp.Optimal sol -> solution_of_sol p ~master alpha_v s_v sol
  | Lp.Infeasible | Lp.Unbounded ->
    failwith (fn ^ ": LP not optimal (invalid platform?)")

(* --- the tree closed form ------------------------------------------------

   The master–slave LP on a tree platform decomposes exactly
   (bandwidth-centric allocation): the maximal rate cap(i) at which the
   subtree rooted at i can absorb tasks is

     cap(i) = min( 1/c(parent->i),  speed(i) + K(i) )

   where K(i) — the rate i can usefully forward — is the tiny fractional
   knapsack  max sum_j y_j/c_j  s.t.  sum_j y_j <= 1,
   0 <= y_j <= c_j * cap(j)  over i's children.  Bottom-up those
   knapsacks determine ntask = speed(master) + K(master); a top-down
   sweep turns the saturated per-subtree plans into an actual flow by
   pure exact scaling (a node receiving f <= cap computes
   min(f, speed) itself and forwards the excess e <= K by scaling its
   knapsack plan by e/K — every constraint is linear, so the scaled
   plan stays feasible).  Two WLOG facts make the tree case complete:
   nodes unreachable from the master consume nothing in any feasible
   solution (sum conservation over the unreachable set: no task source),
   and upward flow is never needed (it only returns tasks toward the
   node that already holds them all; cancelling it frees port time).

   Any other platform takes the monolithic LP.

   Tree detection and the bottom-up sweep live in {!Tree_decomp},
   shared with the collective decompositions. *)

(* max sum y_e/c_e  s.t.  sum y_e <= 1,  0 <= y_e <= min(1, c_e*cap_e):
   how fast a node can push tasks through its child links.  Filling the
   cheapest links first is optimal, but ties in cost leave a choice of
   optimal plans, and the plan decides which subtree gets the flow.  The
   fill below returns the vertex the exact simplex kernel returns on this
   LP, so tree answers stay those of the LP formulation.  The first
   child whose bound is 1 starts basic at 1 in the kernel's crash basis
   (the outport row implies its bound row), so it takes whatever the
   strictly cheaper children leave of the port; those are filled
   cheapest first, ties to the later child.  Without such a child every
   child is filled that way.  The test suite holds the LP as the
   oracle. *)
let knapsack children =
  let items =
    Array.of_list
      (List.map (fun (e, c, cap) -> (e, c, R.min R.one (R.mul c cap))) children)
  in
  let n = Array.length items in
  let cost k = let _, c, _ = items.(k) in c in
  let first_full =
    let rec find k =
      if k = n then None
      else
        let _, _, ub = items.(k) in
        if R.equal ub R.one then Some k else find (k + 1)
    in
    find 0
  in
  let fill =
    List.init n (fun k -> n - 1 - k)
    |> List.filter (fun k ->
           match first_full with
           | None -> true
           | Some f -> R.compare (cost k) (cost f) < 0)
    (* stable on the reversed list: equal costs go to the later child *)
    |> List.stable_sort (fun a b -> R.compare (cost a) (cost b))
  in
  let y = Array.make n R.zero in
  let left =
    List.fold_left
      (fun left k ->
        let _, _, ub = items.(k) in
        let yk = R.min ub left in
        y.(k) <- yk;
        R.sub left yk)
      R.one fill
  in
  Option.iter (fun f -> y.(f) <- left) first_full;
  let value = ref R.zero in
  Array.iteri (fun k (_, c, _) -> value := R.add !value (R.div y.(k) c)) items;
  (!value, List.mapi (fun k (e, _, _) -> (e, y.(k))) children)

let solve_tree p ~master td =
  let order = td.Tree_decomp.order in
  (* bottom-up absorption: each node's value is (cap, K, plan) *)
  let absorbed =
    Tree_decomp.bottom_up p td ~default:(R.zero, R.zero, [])
      ~f:(fun i cs ->
        let children =
          List.map (fun (e, (c_cap, _, _)) -> (e, P.edge_cost p e, c_cap)) cs
        in
        let k, ys = knapsack children in
        let cap =
          if i = master then R.zero (* the root has no parent link *)
          else
            R.min
              (R.inv (P.edge_cost p td.Tree_decomp.parent_edge.(i)))
              (R.add (P.speed p i) k)
        in
        (cap, k, ys))
  in
  let kk = Array.map (fun (_, k, _) -> k) absorbed in
  let plan = Array.map (fun (_, _, ys) -> ys) absorbed in
  (* top-down: route the actual flow, scaling each saturated plan to
     the excess that really arrives *)
  let n = P.num_nodes p in
  let alpha = Array.make n R.zero in
  let send = Array.make (P.num_edges p) R.zero in
  let inflow = Array.make n R.zero in
  let consumed = ref R.zero in
  Array.iter
    (fun i ->
      let self, excess =
        if i = master then (P.speed p i, kk.(i))
        else
          let f = inflow.(i) in
          let self = R.min f (P.speed p i) in
          (self, R.sub f self)
      in
      if R.sign (P.speed p i) > 0 then
        alpha.(i) <- R.div self (P.speed p i);
      consumed := R.add !consumed self;
      if R.sign excess > 0 then begin
        let factor = R.div excess kk.(i) in
        List.iter
          (fun (e, y) ->
            let y' = R.mul factor y in
            if R.sign y' > 0 then begin
              send.(e) <- y';
              inflow.(P.edge_dst p e) <- R.div y' (P.edge_cost p e)
            end)
          plan.(i)
      end)
    order;
  let ntask = R.add (P.speed p master) kk.(master) in
  if not (R.equal !consumed ntask) then
    failwith "Master_slave.solve: consumption / ntask mismatch";
  let task_flow =
    Array.mapi
      (fun e y -> if R.is_zero y then R.zero else R.div y (P.edge_cost p e))
      send
  in
  { platform = p; master; ntask; alpha; send_frac = send; task_flow }

let try_solve_as fn ?cache ?stats p ~master =
  check_master fn p master;
  match Tree_decomp.detect p ~root:master with
  | Some td -> Ok (solve_tree p ~master td)
  | None -> (
    let m, alpha_v, s_v = ports_lp fn one_port p ~master in
    match Lp.solve ?cache ?stats m with
    | Lp.Infeasible -> Error `Infeasible
    | Lp.Unbounded -> Error `Unbounded
    | Lp.Optimal sol -> Ok (solution_of_sol ?stats p ~master alpha_v s_v sol))

let try_solve ?cache ?stats p ~master =
  try_solve_as "Master_slave.try_solve" ?cache ?stats p ~master

let solve ?cache ?stats p ~master =
  match try_solve_as "Master_slave.solve" ?cache ?stats p ~master with
  | Ok sol -> sol
  | Error (`Infeasible | `Unbounded) ->
    failwith "Master_slave.solve: LP not optimal (invalid platform?)"

let solve_reduced = solve

let schedule ?strict ?stats sol =
  let p = sol.platform in
  let period = Reconstruct.task_period p ~alpha:sol.alpha sol.task_flow in
  let delays = Flow.delays p sol.task_flow in
  let compute =
    List.filter_map
      (fun i ->
        if R.is_zero sol.alpha.(i) then None
        else
          (* per-node task rate: alpha_i / w_i *)
          let tasks = R.mul period (R.mul sol.alpha.(i) (P.speed p i)) in
          if R.sign tasks > 0 then Some (i, tasks) else None)
      (P.nodes p)
  in
  Reconstruct.reconstruct ?strict ?stats p ~period
    ~transfers:
      (Reconstruct.demands p ~period ~kind:0 ~item_size:R.one ~delays
         sol.task_flow)
    ~compute ~delays

type run = {
  elapsed : R.t;
  completed : R.t;
  upper_bound : R.t;
  expected : R.t;
}

let simulate ?(periods = 8) sol =
  let sched = schedule sol in
  let completed = Schedule.completed (Schedule.run ~periods sched) in
  let elapsed = R.mul (R.of_int periods) sched.Schedule.period in
  {
    elapsed;
    completed;
    upper_bound = R.mul sol.ntask elapsed;
    expected = Schedule.completed_after sched periods;
  }

let check_buffers sched ~master ~periods =
  let p = sched.Schedule.platform in
  let n = P.num_nodes p in
  let buffers = Array.make n R.zero in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  (* per-period volumes: receives count for the NEXT period's budget *)
  let result = ref (Ok ()) in
  for k = 0 to periods - 1 do
    if !result = Ok () then begin
      let received = Array.make n R.zero in
      let spent = Array.make n R.zero in
      List.iter
        (fun s ->
          List.iter
            (fun tr ->
              if tr.Schedule.delay <= k then begin
                let src = P.edge_src p tr.Schedule.edge in
                let dst = P.edge_dst p tr.Schedule.edge in
                spent.(src) <- R.add spent.(src) tr.Schedule.items;
                received.(dst) <- R.add received.(dst) tr.Schedule.items
              end)
            s.Schedule.transfers)
        sched.Schedule.slots;
      List.iter
        (fun (i, work) ->
          if sched.Schedule.delays.(i) <= k then
            spent.(i) <- R.add spent.(i) work)
        sched.Schedule.compute;
      for i = 0 to n - 1 do
        if i <> master && !result = Ok () then begin
          if R.compare spent.(i) buffers.(i) > 0 then
            result :=
              err "period %d: %s spends %s but only holds %s" k (P.name p i)
                (R.to_string spent.(i))
                (R.to_string buffers.(i))
          else buffers.(i) <- R.add (R.sub buffers.(i) spent.(i)) received.(i)
        end
      done
    end
  done;
  !result
