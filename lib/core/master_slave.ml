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
   0 <= y_j <= min(1, c_j * cap(j))  over i's children.  The knapsacks
   determine ntask = speed(master) + K(master); a top-down sweep turns
   the saturated per-subtree plans into an actual flow by pure exact
   scaling (a node receiving f <= cap computes min(f, speed) itself and
   forwards the excess e <= K by scaling its knapsack plan by e/K —
   every constraint is linear, so the scaled plan stays feasible).  Two
   WLOG facts make the tree case complete: nodes unreachable from the
   master consume nothing in any feasible solution (sum conservation
   over the unreachable set: no task source), and upward flow is never
   needed (it only returns tasks toward the node that already holds
   them all; cancelling it frees port time).

   Filling the cheapest links first is optimal, but ties in cost leave
   a choice of optimal plans, and the plan decides which subtree gets
   the flow.  Each knapsack returns the vertex the exact simplex kernel
   returns on its LP, so tree answers stay those of the LP formulation:
   the first child whose bound is 1 starts basic at 1 in the kernel's
   crash basis (the outport row implies its bound row), so it takes
   whatever the strictly cheaper children leave of the port; those are
   filled cheapest first, ties to the later child.  Without such a
   child every child is filled that way.  The test suite holds the LP
   and the eager sweep over every node as oracles.

   The sweep is bandwidth first.  A child j whose link is no faster
   than its CPU (c_j * speed(j) >= 1) has bound 1 whatever K(j) is, and
   it never receives more than 1/c_j <= speed(j): it keeps all it gets,
   so nothing below it matters.  A top-down pass marks the nodes whose
   K some knapsack needs: the master, and each child of a marked node
   that has children and a link faster than its CPU.  One pass in
   reverse BFS order then solves the marked nodes' knapsacks, children
   before parents; a fill stops once the port is full.  A node that
   receives more than it computes is marked, so the top-down sweep
   visits only the nodes the flow reaches.  Any other platform takes
   the monolithic LP. *)

let solve_tree p ~master td =
  let { Tree_decomp.order; parent_edge; child_lo; child_hi; _ } = td in
  let n = P.num_nodes p in
  let cost u = P.edge_cost p parent_edge.(u) in
  let inner u = child_lo.(u) < child_hi.(u) in
  let fast u = R.compare (R.mul (cost u) (P.speed p u)) R.one < 0 in
  (* top-down: the nodes whose K some knapsack needs *)
  let needs = Array.make n false in
  needs.(master) <- true;
  Array.iter
    (fun v ->
      if needs.(v) then
        for k = child_lo.(v) to child_hi.(v) - 1 do
          let u = order.(k) in
          if inner u && fast u then needs.(u) <- true
        done)
    order;
  (* bottom-up over those nodes: per node, K; per child, the share y of
     its parent's port that the saturated plan gives its link *)
  let kval = Array.make n R.zero in
  let y = Array.make n R.zero in
  (* child u's bound min(1, c * cap(u)) *)
  let bound u =
    let c = cost u and s = P.speed p u in
    let cs = R.mul c s in
    if R.compare cs R.one >= 0 then R.one
    else if not (inner u) then cs
    else R.min R.one (R.mul c (R.add s kval.(u)))
  in
  let knapsack v =
    let lo = child_lo.(v) and hi = child_hi.(v) in
    let b = Array.init (hi - lo) (fun k -> bound order.(lo + k)) in
    (* the first child whose bound is 1, if any, takes what the strictly
       cheaper ones leave of the port; they are filled cheapest first,
       ties to the later child *)
    let full = ref (-1) in
    for k = hi - lo - 1 downto 0 do
      if R.equal b.(k) R.one then full := k
    done;
    let ck k = cost order.(lo + k) in
    let cands =
      List.init (hi - lo) Fun.id
      |> List.filter (fun k -> !full < 0 || R.compare (ck k) (ck !full) < 0)
      |> List.sort (fun a b ->
             match R.compare (ck a) (ck b) with 0 -> compare b a | c -> c)
    in
    let rec fill left = function
      | k :: rest when R.sign left > 0 ->
        let yk = R.min b.(k) left in
        y.(order.(lo + k)) <- yk;
        fill (R.sub left yk) rest
      | _ -> left
    in
    let left = fill R.one cands in
    if !full >= 0 then y.(order.(lo + !full)) <- left;
    let kv = ref R.zero in
    for k = lo to hi - 1 do
      let u = order.(k) in
      if R.sign y.(u) > 0 then kv := R.add !kv (R.div y.(u) (cost u))
    done;
    kval.(v) <- !kv
  in
  for i = Array.length order - 1 downto 0 do
    if needs.(order.(i)) then knapsack order.(i)
  done;
  (* top-down: route the actual flow, scaling each saturated plan to
     the excess that really arrives *)
  let alpha = Array.make n R.zero in
  let m = P.num_edges p in
  let send = Array.make m R.zero and task_flow = Array.make m R.zero in
  let spread v excess stack =
    let factor = R.div excess kval.(v) in
    let stack = ref stack in
    for k = child_lo.(v) to child_hi.(v) - 1 do
      let u = order.(k) in
      if R.sign y.(u) > 0 then begin
        let e = parent_edge.(u) in
        let s = R.mul factor y.(u) in
        send.(e) <- s;
        task_flow.(e) <- R.div s (P.edge_cost p e);
        stack := u :: !stack
      end
    done;
    !stack
  in
  let sm = P.speed p master in
  if R.sign sm > 0 then alpha.(master) <- R.one;
  let consumed = ref sm in
  let rec route = function
    | [] -> ()
    | u :: rest ->
      let f = task_flow.(parent_edge.(u)) and s = P.speed p u in
      let self = R.min f s in
      if R.sign s > 0 then alpha.(u) <- R.div self s;
      consumed := R.add !consumed self;
      let excess = R.sub f self in
      route (if R.sign excess > 0 then spread u excess rest else rest)
  in
  let kk = kval.(master) in
  route (if R.sign kk > 0 then spread master kk [] else []);
  let ntask = R.add sm kk in
  if not (R.equal !consumed ntask) then
    failwith "Master_slave.solve: consumption / ntask mismatch";
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

(* Built from the solution's positive entries, found in one scan: on
   a tree the flow reaches a few nodes of thousands, and nothing here
   walks the rest. *)
let schedule ?strict ?stats sol =
  let p = sol.platform in
  let support = Flow.support sol.task_flow in
  let active = ref [] in
  for i = Array.length sol.alpha - 1 downto 0 do
    if not (R.is_zero sol.alpha.(i)) then active := i :: !active
  done;
  (* per-node task rate: alpha_i / w_i *)
  let rate i = R.mul sol.alpha.(i) (P.speed p i) in
  let period =
    Reconstruct.period
      (List.map (fun e -> sol.task_flow.(e)) support @ List.map rate !active)
  in
  let delays = Flow.support_delays p sol.task_flow support in
  let compute =
    List.filter_map
      (fun i ->
        let tasks = R.mul period (rate i) in
        if R.sign tasks > 0 then Some (i, tasks) else None)
      !active
  in
  Reconstruct.reconstruct ?strict ?stats p ~period
    ~transfers:
      (Reconstruct.demands ~support p ~period ~kind:0 ~item_size:R.one
         ~delays sol.task_flow)
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
