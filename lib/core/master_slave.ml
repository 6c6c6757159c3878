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

(* The LP on the kept nodes: their activity variables, the send
   variables of the edges between them, and their rows, under the names
   and in the relative order of the whole model's. *)
let ports_lp_on fn ports p ~master keep =
  check_master fn p master;
  let m = Lp.create () in
  let unit_iv = Some R.one in
  let kept_edge e = keep (P.edge_src p e) && keep (P.edge_dst p e) in
  let alpha_v =
    Array.init (P.num_nodes p) (fun i ->
        if keep i then
          Some (Lp.add_var ~ub:unit_iv m ("alpha_" ^ P.name p i))
        else None)
  in
  let s_v =
    Array.init (P.num_edges p) (fun e ->
        if kept_edge e then
          Some (Lp.add_var ~ub:unit_iv m ("s_" ^ P.edge_name p e))
        else None)
  in
  let s e = Option.get s_v.(e) in
  let nodes = List.filter keep (P.nodes p) in
  let outs i = List.filter kept_edge (P.out_edges p i)
  and ins i = List.filter kept_edge (P.in_edges p i) in
  (* port constraints: the only rows the models of the family differ in *)
  let port name es budget =
    if es <> [] then
      Lp.add_constraint ~name m
        (Lp.sum (List.map (fun e -> Lp.var (s e)) es))
        Lp.Le budget
  in
  List.iter
    (fun i ->
      let outs = outs i and ins = ins i in
      match ports with
      | Duplex (send, recv) ->
        port ("outport_" ^ P.name p i) outs (send i);
        port ("inport_" ^ P.name p i) ins (recv i)
      | Half_duplex -> port ("port_" ^ P.name p i) (outs @ ins) R.one)
    nodes;
  (* the master receives nothing *)
  List.iter
    (fun e ->
      Lp.add_constraint
        ~name:("nomaster_" ^ P.edge_name p e)
        m (Lp.var (s e)) Lp.Eq R.zero)
    (ins master);
  (* conservation at every non-master node:
     sum_in s/c = alpha * speed + sum_out s/c *)
  List.iter
    (fun i ->
      if i <> master then begin
        let inflow =
          List.map
            (fun e -> Lp.term (R.inv (P.edge_cost p e)) (s e))
            (ins i)
        in
        let outflow =
          List.map
            (fun e -> Lp.term (R.neg (R.inv (P.edge_cost p e))) (s e))
            (outs i)
        in
        let consumed =
          Lp.term (R.neg (P.speed p i)) (Option.get alpha_v.(i))
        in
        Lp.add_constraint
          ~name:("conserve_" ^ P.name p i)
          m
          (Lp.sum ((consumed :: inflow) @ outflow))
          Lp.Eq R.zero
      end)
    nodes;
  Lp.set_objective m Lp.Maximize
    (Lp.sum
       (List.map
          (fun i -> Lp.term (P.speed p i) (Option.get alpha_v.(i)))
          nodes));
  (m, alpha_v, s_v)

let ports_lp fn ports p ~master =
  let m, alpha_v, s_v = ports_lp_on fn ports p ~master (fun _ -> true) in
  (m, Array.map Option.get alpha_v, Array.map Option.get s_v)

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
   the row-and-column generation below, which starts from this form on
   a spanning tree. *)

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

(* --- off trees: row-and-column generation ---------------------------------

   Only the nodes behind fast enough links get work (§3), so the LP is
   solved on a kept node set K, grown until it provably suffices.  K
   starts as the support of the closed form on the shortest-path tree
   from the master (link cost as length): the master, every node that
   computes and both ends of every edge that carries flow.  Each round
   solves {!ports_lp_on} K and extends its duals to the whole model: an
   omitted node's conservation dual is -1 (a task there is worth 1,
   what computing it earns), its port and [ub:] rows price 0.  With t_u
   the value of a task at u (minus its conservation dual, 0 at the
   master), every reduced cost of the whole model is then one of the
   restriction's, except on the edges between K and the rest:
   - u -> v, u in K: violated when 1 - t_u > c * y(outport_u);
   - v -> u, u in K but not the master: violated when
     t_u - c * y(inport_u) > 1.
   The omitted end of every violated edge joins K.  Once none is
   violated, the restricted point (zero elsewhere) with the extended
   duals must pass [Lp.certify] on the whole model; should it fail, the
   next round keeps every node, which is the whole LP.  Each round adds
   a node, so there are at most n rounds. *)

let tree_support p ~master =
  let parents = P.shortest_path_tree p master in
  let td = Tree_decomp.of_parents p ~root:master parents in
  let tree = solve_tree p ~master td in
  let keep = Array.make (P.num_nodes p) false in
  keep.(master) <- true;
  Array.iteri (fun i a -> if R.sign a > 0 then keep.(i) <- true) tree.alpha;
  Array.iteri
    (fun e f ->
      if R.sign f > 0 then begin
        keep.(P.edge_src p e) <- true;
        keep.(P.edge_dst p e) <- true
      end)
    tree.task_flow;
  keep

(* One round: the LP on the kept nodes, solved, and its duals extended
   to the whole model by row name. *)
let solve_on fn ?cache ?stats p ~master keep =
  let m, alpha_v, s_v = ports_lp_on fn one_port p ~master (Array.get keep) in
  match Lp.solve ?cache ?stats m with
  | Lp.Infeasible -> Error `Infeasible
  | Lp.Unbounded -> Error `Unbounded
  | Lp.Optimal sol ->
    let dual = Hashtbl.create 64 in
    List.iter (fun (row, y) -> Hashtbl.replace dual row y) sol.Lp.duals;
    Array.iteri
      (fun v k ->
        if not k then
          Hashtbl.replace dual ("conserve_" ^ P.name p v) R.minus_one)
      keep;
    let y row = Option.value (Hashtbl.find_opt dual row) ~default:R.zero in
    Ok (sol, alpha_v, s_v, y)

(* A round's answer on the whole model [full]: zero off the kept nodes,
   with the extended duals. *)
let extend (full, full_alpha, full_s) (sol, alpha_v, s_v, y) =
  let values = Hashtbl.create 64 in
  let copy full_v =
    Array.iteri (fun i v ->
        Option.iter
          (fun v -> Hashtbl.replace values full_v.(i) (sol.Lp.values v))
          v)
  in
  copy full_alpha alpha_v;
  copy full_s s_v;
  {
    Lp.objective = sol.Lp.objective;
    values =
      (fun v -> Option.value (Hashtbl.find_opt values v) ~default:R.zero);
    duals = List.map (fun row -> (row, y row)) (Lp.row_names full);
  }

(* The omitted ends of the edges between the kept nodes and the rest
   whose reduced cost the extended duals [y] violate. *)
let priced p ~master keep y =
  let n = P.num_nodes p in
  let grow = Array.make n false in
  for u = 0 to n - 1 do
    if keep.(u) then begin
      let name = P.name p u in
      let t = if u = master then R.zero else R.neg (y ("conserve_" ^ name)) in
      let gain = R.sub R.one t and out_price = y ("outport_" ^ name) in
      List.iter
        (fun e ->
          let v = P.edge_dst p e in
          if (not keep.(v))
             && R.compare gain (R.mul (P.edge_cost p e) out_price) > 0
          then grow.(v) <- true)
        (P.out_edges p u);
      if u <> master then begin
        let in_price = y ("inport_" ^ name) in
        List.iter
          (fun e ->
            let v = P.edge_src p e in
            if (not keep.(v))
               && R.compare (R.sub t (R.mul (P.edge_cost p e) in_price)) R.one
                  > 0
            then grow.(v) <- true)
          (P.in_edges p u)
      end
    end
  done;
  grow

let generate_on fn ?cache ?stats p ~master full =
  let n = P.num_nodes p in
  let keep = tree_support p ~master in
  let model, _, _ = full in
  let rec round () =
    match solve_on fn ?cache ?stats p ~master keep with
    | Error _ as e -> e
    | Ok ((_, _, _, y) as solved) ->
      let grow = priced p ~master keep y in
      if Array.exists Fun.id grow then begin
        Array.iteri (fun v g -> if g then keep.(v) <- true) grow;
        round ()
      end
      else
        let answer = extend full solved in
        match Lp.certify model answer with
        | Ok () -> Ok (keep, answer)
        | Error e when Array.for_all Fun.id keep ->
          failwith (fn ^ ": the LP answer fails its certificate: " ^ e)
        | Error _ ->
          Array.fill keep 0 n true;
          round ()
  in
  round ()

let restricted ?cache ?stats p ~master ~kept =
  check_master "Master_slave.restricted" p master;
  if Array.length kept <> P.num_nodes p || not kept.(master) then
    invalid_arg
      "Master_slave.restricted: kept must be per node and keep the master";
  Result.map
    (fun ((_, _, _, y) as solved) ->
      let grow = priced p ~master kept y in
      ( extend (build_lp p ~master) solved,
        List.filter (Array.get grow) (P.nodes p) ))
    (solve_on "Master_slave.restricted" ?cache ?stats p ~master kept)

let generate ?cache ?stats p ~master =
  check_master "Master_slave.generate" p master;
  generate_on "Master_slave.generate" ?cache ?stats p ~master
    (build_lp p ~master)

let try_solve_as fn ?cache ?stats p ~master =
  check_master fn p master;
  match Tree_decomp.detect p ~root:master with
  | Some td -> Ok (solve_tree p ~master td)
  | None -> (
    let (_, alpha_v, s_v) as full = build_lp p ~master in
    match generate_on fn ?cache ?stats p ~master full with
    | Error _ as e -> e
    | Ok (_, answer) ->
      Ok (solution_of_sol ?stats p ~master alpha_v s_v answer))

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
