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

(* Row positions in a model of [ports_lp_on], -1 where the row does not
   exist: per node ([port_i] under [Half_duplex] is [outport]), and each
   edge's [nomaster] row. *)
type rows = { conserve : int array; outport : int array; inport : int array;
              nomaster : int array }

(* The LP on the kept nodes: their activity variables, the send
   variables of the edges between them, and their rows, under the names
   and in the relative order of the whole model's, with the rows'
   positions.  Each row is one pass over its node's CSR ranges, written
   in column order (the alphas come first, then the sends by edge), and
   each kept edge's inverse cost is computed once. *)
let ports_lp_on fn ports p ~master keep =
  check_master fn p master;
  let m = Lp.create () in
  let n = P.num_nodes p and ne = P.num_edges p in
  let none k = Array.make k (-1) in
  let rows = { conserve = none n; outport = none n; inport = none n;
               nomaster = none ne } in
  let row pos k ~name expr rel rhs =
    pos.(k) <- Lp.num_constraints m;
    Lp.add_constraint ~name m expr rel rhs
  in
  let unit_iv = Some R.one in
  let kept = Array.init n keep in
  let speed = Array.init n (fun i -> if kept.(i) then P.speed p i else R.zero) in
  let alpha_v =
    Array.init n (fun i ->
        if kept.(i) then
          Some (Lp.add_var ~ub:unit_iv m ("alpha_" ^ P.name p i))
        else None)
  in
  let edge_name prefix e =
    String.concat "" [ prefix; P.name p (P.edge_src p e); "->";
                       P.name p (P.edge_dst p e) ]
  in
  let s_v =
    Array.init ne (fun e ->
        if kept.(P.edge_src p e) && kept.(P.edge_dst p e) then
          Some (Lp.add_var ~ub:unit_iv m (edge_name "s_" e))
        else None)
  in
  let inv_c =
    Array.init ne (fun e ->
        if Option.is_none s_v.(e) then R.zero else R.inv (P.edge_cost p e))
  in
  (* a unit term on the send variable of each kept edge of the CSR
     range [lo, hi), consed in front of [acc] in range order *)
  let sends edge lo hi acc =
    let acc = ref acc in
    for k = hi - 1 downto lo do
      match s_v.(edge k) with Some v -> acc := (R.one, v) :: !acc | None -> ()
    done;
    !acc
  in
  let outs i tail = sends (P.out_edge p) (P.out_lo p i) (P.out_hi p i) tail
  and ins i tail = sends (P.in_edge p) (P.in_lo p i) (P.in_hi p i) tail in
  (* port constraints: the only rows the models of the family differ in *)
  let port pos i name terms budget =
    if terms <> [] then row pos i ~name (Lp.of_terms terms) Lp.Le budget
  in
  for i = 0 to n - 1 do
    if kept.(i) then
      match ports with
      | Duplex (send, recv) ->
        port rows.outport i ("outport_" ^ P.name p i) (outs i []) (send i);
        port rows.inport i ("inport_" ^ P.name p i) (ins i []) (recv i)
      | Half_duplex ->
        port rows.outport i ("port_" ^ P.name p i) (outs i (ins i [])) R.one
  done;
  (* the master receives nothing *)
  for k = P.in_lo p master to P.in_hi p master - 1 do
    let e = P.in_edge p k in
    match s_v.(e) with
    | Some v ->
      row rows.nomaster e ~name:(edge_name "nomaster_" e) (Lp.var v) Lp.Eq
        R.zero
    | None -> ()
  done;
  (* conservation at every non-master node:
     sum_in s/c = alpha * speed + sum_out s/c, the in- and out-edge
     ranges merged into edge order, so the row needs no sort *)
  for i = 0 to n - 1 do
    if kept.(i) && i <> master then begin
      let terms = ref [] in
      let a = ref (P.in_hi p i - 1) and b = ref (P.out_hi p i - 1) in
      let lo_in = P.in_lo p i and lo_out = P.out_lo p i in
      while !a >= lo_in || !b >= lo_out do
        let ein = if !a >= lo_in then P.in_edge p !a else -1
        and eout = if !b >= lo_out then P.out_edge p !b else -1 in
        let e, c =
          if ein > eout then begin
            decr a;
            (ein, inv_c.(ein))
          end
          else begin
            decr b;
            (eout, R.neg inv_c.(eout))
          end
        in
        match s_v.(e) with Some v -> terms := (c, v) :: !terms | None -> ()
      done;
      row rows.conserve i
        ~name:("conserve_" ^ P.name p i)
        (Lp.of_terms ((R.neg speed.(i), Option.get alpha_v.(i)) :: !terms))
        Lp.Eq R.zero
    end
  done;
  let objective = ref [] in
  for i = n - 1 downto 0 do
    match alpha_v.(i) with
    | Some a -> objective := (speed.(i), a) :: !objective
    | None -> ()
  done;
  Lp.set_objective m Lp.Maximize (Lp.of_terms !objective);
  (m, alpha_v, s_v, rows)

let ports_lp fn ports p ~master =
  let m, alpha_v, s_v, _ = ports_lp_on fn ports p ~master (fun _ -> true) in
  (m, Array.map Option.get alpha_v, Array.map Option.get s_v)

let build_lp p ~master = ports_lp "Master_slave.build_lp" one_port p ~master

let solve_lp_only ?stats p ~master =
  let m, _, _ = ports_lp "Master_slave.solve_lp_only" one_port p ~master in
  (m, Lp.solve ?stats m)

(* Map an optimal LP solution back onto the platform: activity
   fractions per node, cycle-free task flow per edge. *)
let solution_of_sol ?stats p ~master alpha_v s_v (sol : Lp.solution) =
  let alpha = Array.map (Lp.value sol) alpha_v in
  let raw_flow =
    Array.mapi (fun e sv -> R.div (Lp.value sol sv) (P.edge_cost p e)) s_v
  in
  let task_flow = Reconstruct.cancel ?stats p raw_flow in
  let send_frac = Array.mapi (fun e f -> R.mul f (P.edge_cost p e)) task_flow in
  { platform = p; master; ntask = sol.Lp.objective; alpha; send_frac;
    task_flow }

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

(* a growable array: [a] with [x] at [len], doubled when full *)
let push_at a len x =
  let a =
    if len < Array.length a then a
    else begin
      let b = Array.make (2 * len) x in
      Array.blit a 0 b 0 len;
      b
    end
  in
  a.(len) <- x;
  a

let solve_tree p ~master td =
  let { Tree_decomp.order; parent_edge; child_lo; child_hi; _ } = td in
  let n = P.num_nodes p in
  let cost u = P.edge_cost p parent_edge.(u) in
  let inner u = child_lo.(u) < child_hi.(u) in
  (* c / w < 1 (c * speed < 1, always for a relay), compared without
     dividing *)
  let fast u =
    match P.weight p u with Ext_rat.Inf -> true | Ext_rat.Fin w -> R.compare (cost u) w < 0
  in
  (* min(1, c / w), the bound of a child with no knapsack of its own *)
  let own_bound u =
    match P.weight p u with
    | Ext_rat.Inf -> R.zero
    | Ext_rat.Fin w -> if R.compare (cost u) w < 0 then R.div (cost u) w else R.one
  in
  (* Top-down: the nodes whose K some knapsack needs, in BFS order, the
     list read as a queue while it grows.  The children of the q-th
     marked node hold consecutive slots from [first.(q)], where [sub] is
     the child's own index in [marked], or -1 when it is not marked. *)
  let marked = ref (Array.make 16 master) and nm = ref 1 in
  let sub = ref (Array.make 16 0) and ns = ref 0 in
  let q = ref 0 in
  while !q < !nm do
    let v = !marked.(!q) in
    for k = child_lo.(v) to child_hi.(v) - 1 do
      let u = order.(k) in
      let s =
        if inner u && fast u then begin
          marked := push_at !marked !nm u;
          incr nm;
          !nm - 1
        end
        else -1
      in
      sub := push_at !sub !ns s;
      incr ns
    done;
    incr q
  done;
  let marked = !marked and nm = !nm and sub = !sub and ns = !ns in
  (* bottom-up over those nodes: per node, K; per child slot, the share
     y of its parent's port that the saturated plan gives its link *)
  let kval = Array.make nm R.zero and y = Array.make ns R.zero in
  let first = Array.make nm 0 in
  let knapsack q at =
    let v = marked.(q) in
    let lo = child_lo.(v) and hi = child_hi.(v) in
    first.(q) <- at;
    (* child u's bound min(1, c * cap(u)), in its slot for now *)
    for k = 0 to hi - lo - 1 do
      let u = order.(lo + k) and mu = sub.(at + k) in
      y.(at + k) <-
        (if mu >= 0 then R.min R.one (R.mul (cost u) (R.add (P.speed p u) kval.(mu)))
         else own_bound u)
    done;
    (* the first child whose bound is 1, if any, takes what the strictly
       cheaper ones leave of the port; they are filled cheapest first,
       ties to the later child *)
    let full = ref (-1) in
    for k = hi - lo - 1 downto 0 do
      if R.equal y.(at + k) R.one then full := k
    done;
    let ck k = cost order.(lo + k) in
    let cand k = !full < 0 || R.compare (ck k) (ck !full) < 0 in
    let count = ref 0 in
    for k = 0 to hi - lo - 1 do
      if cand k then incr count
    done;
    let cands = Array.make !count 0 in
    count := 0;
    for k = 0 to hi - lo - 1 do
      if cand k then begin
        cands.(!count) <- k;
        incr count
      end
    done;
    Array.sort
      (fun a b -> match R.compare (ck a) (ck b) with 0 -> Int.compare b a | c -> c)
      cands;
    let left = ref R.one in
    Array.iter
      (fun k ->
        let yk = if R.sign !left > 0 then R.min y.(at + k) !left else R.zero in
        y.(at + k) <- yk;
        left := R.sub !left yk)
      cands;
    for k = 0 to hi - lo - 1 do
      if not (cand k) then y.(at + k) <- (if k = !full then !left else R.zero)
    done;
    let kv = ref R.zero in
    for k = lo to hi - 1 do
      let yk = y.(at + k - lo) in
      if R.sign yk > 0 then kv := R.add !kv (R.div yk (cost order.(k)))
    done;
    kval.(q) <- !kv
  in
  let at = ref ns in
  for q = nm - 1 downto 0 do
    let v = marked.(q) in
    at := !at - (child_hi.(v) - child_lo.(v));
    knapsack q !at
  done;
  (* top-down: route the actual flow, scaling each saturated plan to
     the excess that really arrives *)
  let alpha = Array.make n R.zero in
  let m = P.num_edges p in
  let send = Array.make m R.zero and task_flow = Array.make m R.zero in
  let spread q excess stack =
    let v = marked.(q) in
    let lo = child_lo.(v) in
    let factor = R.div excess kval.(q) in
    let stack = ref stack in
    for k = lo to child_hi.(v) - 1 do
      let slot = first.(q) + k - lo in
      if R.sign y.(slot) > 0 then begin
        let u = order.(k) in
        let e = parent_edge.(u) in
        let s = R.mul factor y.(slot) in
        send.(e) <- s;
        task_flow.(e) <- R.div s (P.edge_cost p e);
        stack := (u, sub.(slot)) :: !stack
      end
    done;
    !stack
  in
  let sm = P.speed p master in
  if R.sign sm > 0 then alpha.(master) <- R.one;
  let consumed = ref sm in
  (* a node that receives more than it computes is marked *)
  let rec route = function
    | [] -> ()
    | (u, q) :: rest ->
      let f = task_flow.(parent_edge.(u)) and s = P.speed p u in
      let self = R.min f s in
      if R.sign s > 0 then alpha.(u) <- R.div self s;
      consumed := R.add !consumed self;
      let excess = R.sub f self in
      route (if R.sign excess > 0 then spread q excess rest else rest)
  in
  let kk = kval.(0) in
  route (if R.sign kk > 0 then spread 0 kk [] else []);
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
   solves {!ports_lp_on} K and extends its duals to the whole model by
   row position: an omitted node's conservation dual is -1 (a task
   there is worth 1, what computing it earns), its other rows 0.  With t_u
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

(* A round's answer on the whole model [full], by position: zero off the
   kept nodes, each kept row's dual copied, an omitted node's
   conservation row at -1 and every other row at 0.  Every variable is
   bounded, so variable v's [ub:] row is [num_constraints + v]. *)
let extend full (m, alpha_v, s_v, rows) keep (sol : Lp.solution) =
  let fm, full_alpha, full_s, full_rows = full in
  if m == fm then sol
  else
    let values = Array.make (Lp.num_vars fm) R.zero
    and duals = Array.make (Lp.num_rows fm) R.zero in
    let copy dst src ~at ~from =
      Array.iter2 (fun fk k -> if k >= 0 then dst.(at + fk) <- src.(from + k))
    in
    let col = Array.map (function Some (v : Lp.var) -> (v :> int) | None -> -1)
    and ub = Lp.num_constraints fm and ub_from = Lp.num_constraints m in
    List.iter2
      (fun full_v v ->
        copy values sol.Lp.values ~at:0 ~from:0 (col full_v) (col v);
        copy duals sol.Lp.duals ~at:ub ~from:ub_from (col full_v) (col v))
      [ full_alpha; full_s ] [ alpha_v; s_v ];
    List.iter2
      (copy duals sol.Lp.duals ~at:0 ~from:0)
      [ full_rows.conserve; full_rows.outport; full_rows.inport;
        full_rows.nomaster ]
      [ rows.conserve; rows.outport; rows.inport; rows.nomaster ];
    Array.iteri
      (fun i k -> if not k then duals.(full_rows.conserve.(i)) <- R.minus_one)
      keep;
    { sol with Lp.values; duals }

(* The omitted ends of the edges between the kept nodes and the rest
   whose reduced cost the round's duals violate. *)
let priced p ~master keep rows (sol : Lp.solution) =
  let y r = if r < 0 then R.zero else sol.Lp.duals.(r) in
  let n = P.num_nodes p in
  let grow = Array.make n false in
  for u = 0 to n - 1 do
    if keep.(u) then begin
      (* the master has no conservation row: a task there is worth 0 *)
      let t = R.neg (y rows.conserve.(u)) in
      let gain = R.sub R.one t and out_price = y rows.outport.(u) in
      for k = P.out_lo p u to P.out_hi p u - 1 do
        let e = P.out_edge p k in
        let v = P.edge_dst p e in
        if (not keep.(v))
           && R.compare gain (R.mul (P.edge_cost p e) out_price) > 0
        then grow.(v) <- true
      done;
      if u <> master then begin
        let in_price = y rows.inport.(u) in
        for k = P.in_lo p u to P.in_hi p u - 1 do
          let e = P.in_edge p k in
          let v = P.edge_src p e in
          if (not keep.(v))
             && R.compare (R.sub t (R.mul (P.edge_cost p e) in_price)) R.one > 0
          then grow.(v) <- true
        done
      end
    end
  done;
  grow

(* One round: the LP on the kept nodes ([full] itself when every node
   is kept), solved and priced. *)
let round fn ?cache ?stats p ~master full keep =
  let ((m, _, _, rows) as lp) =
    if Array.for_all Fun.id keep then full
    else ports_lp_on fn one_port p ~master (Array.get keep)
  in
  match Lp.solve ?cache ?stats m with
  | Lp.Infeasible -> Error `Infeasible
  | Lp.Unbounded -> Error `Unbounded
  | Lp.Optimal sol -> Ok (lp, sol, priced p ~master keep rows sol)

let full_lp fn p ~master = ports_lp_on fn one_port p ~master (fun _ -> true)

let generate_on fn ?cache ?stats p ~master full =
  let keep = tree_support p ~master in
  let fm, _, _, _ = full in
  let rec rounds () =
    match round fn ?cache ?stats p ~master full keep with
    | Error _ as e -> e
    | Ok (_, _, grow) when Array.exists Fun.id grow ->
      Array.iteri (fun v g -> if g then keep.(v) <- true) grow;
      rounds ()
    | Ok (lp, sol, _) -> (
      let answer = extend full lp keep sol in
      match Lp.certify fm answer with
      | Ok () -> Ok (keep, answer)
      | Error e when Array.for_all Fun.id keep ->
        failwith (fn ^ ": the LP answer fails its certificate: " ^ e)
      | Error _ ->
        Array.fill keep 0 (P.num_nodes p) true;
        rounds ())
  in
  rounds ()

let restricted ?stats p ~master ~kept =
  let fn = "Master_slave.restricted" in
  check_master fn p master;
  if Array.length kept <> P.num_nodes p || not kept.(master) then
    invalid_arg
      "Master_slave.restricted: kept must be per node and keep the master";
  let full = full_lp fn p ~master in
  Result.map
    (fun (lp, sol, grow) ->
      (extend full lp kept sol, List.filter (Array.get grow) (P.nodes p)))
    (round fn ?stats p ~master full kept)

let generate ?stats p ~master =
  let fn = "Master_slave.generate" in
  generate_on fn ?stats p ~master (full_lp fn p ~master)

let try_solve_as fn ?cache ?stats p ~master =
  check_master fn p master;
  match Tree_decomp.detect p ~root:master with
  | Some td -> Ok (solve_tree p ~master td)
  | None -> (
    let ((_, alpha_v, s_v, _) as full) = full_lp fn p ~master in
    match generate_on fn ?cache ?stats p ~master full with
    | Error _ as e -> e
    | Ok (_, answer) ->
      let get = Array.map Option.get in
      Ok (solution_of_sol ?stats p ~master (get alpha_v) (get s_v) answer))

let try_solve ?cache ?stats p ~master =
  try_solve_as "Master_slave.try_solve" ?cache ?stats p ~master

let solve ?cache ?stats p ~master =
  match try_solve_as "Master_slave.solve" ?cache ?stats p ~master with
  | Ok sol -> sol
  | Error (`Infeasible | `Unbounded) ->
    failwith "Master_slave.solve: LP not optimal (invalid platform?)"

let solve_reduced ?stats p ~master = solve ?stats p ~master

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
