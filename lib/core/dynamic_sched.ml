module R = Rat
module P = Platform

type strategy = Static | Reactive | Oracle | Robust

type scenario = {
  platform : P.t;
  master : P.node;
  cpu_traces : (P.node * Event_sim.trace) list;
  bw_traces : (P.edge * Event_sim.trace) list;
  phase : R.t;
  phases : int;
}

let validate_scenario ?(allow_outages = false) sc =
  if R.sign sc.phase <= 0 then
    invalid_arg "Dynamic_sched: non-positive phase length";
  if sc.phases <= 0 then invalid_arg "Dynamic_sched: no phases";
  let check (_, tr) =
    List.iter
      (fun (_, m) ->
        if R.sign m < 0 then
          invalid_arg "Dynamic_sched: negative multiplier";
        if (not allow_outages) && R.is_zero m then
          invalid_arg "Dynamic_sched: multipliers must stay positive")
      tr
  in
  List.iter check sc.cpu_traces;
  List.iter check sc.bw_traces;
  (* the planner and the simulator must read the same trace *)
  let once what size name traces =
    let seen = Array.make size false in
    List.iter
      (fun (k, _) ->
        if seen.(k) then
          invalid_arg
            (Printf.sprintf "Dynamic_sched: %s %s has two traces" what
               (name k));
        seen.(k) <- true)
      traces
  in
  let p = sc.platform in
  once "node" (P.num_nodes p) (P.name p) sc.cpu_traces;
  once "edge" (P.num_edges p) (P.edge_name p) sc.bw_traces

(* Traces are compiled once per run into breakpoint-sorted arrays and
   queried by binary search — [plan_for] asks for every node and every
   edge at every phase boundary, so the per-query cost matters.  Sorting
   also fixes a semantic trap: folding over the raw list makes the
   *textually last* matching entry win, so an out-of-order trace
   silently answers with the wrong segment.  Here the breakpoint with
   the largest time <= t wins, whatever the list order; among equal
   times the last entry wins (the sorted-input behaviour of the old
   fold). *)
type compiled = { bp_times : R.t array; bp_mults : R.t array }

let empty_compiled = { bp_times = [||]; bp_mults = [||] }

let compile_trace tr =
  let sorted = List.stable_sort (fun (t1, _) (t2, _) -> R.compare t1 t2) tr in
  let rec dedup = function
    | (t1, _) :: ((t2, _) :: _ as rest) when R.equal t1 t2 -> dedup rest
    | x :: rest -> x :: dedup rest
    | [] -> []
  in
  let l = dedup sorted in
  {
    bp_times = Array.of_list (List.map fst l);
    bp_mults = Array.of_list (List.map snd l);
  }

(* rightmost breakpoint <= time; implicit multiplier 1 before the first *)
let compiled_at ct time =
  let lo = ref 0 and hi = ref (Array.length ct.bp_times) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if R.compare ct.bp_times.(mid) time <= 0 then lo := mid + 1 else hi := mid
  done;
  if !lo = 0 then R.one else ct.bp_mults.(!lo - 1)

let multiplier_at trace time = compiled_at (compile_trace trace) time

(* sorted/deduplicated assoc form, for handing to the simulator *)
let normalize_trace tr =
  let ct = compile_trace tr in
  Array.to_list (Array.map2 (fun t m -> (t, m)) ct.bp_times ct.bp_mults)

(* per-node / per-edge compiled traces ([validate_scenario] allows one
   per subject) *)
let compile_scenario sc =
  let p = sc.platform in
  let node_cts = Array.make (P.num_nodes p) empty_compiled in
  let edge_cts = Array.make (P.num_edges p) empty_compiled in
  List.iter (fun (i, tr) -> node_cts.(i) <- compile_trace tr) sc.cpu_traces;
  List.iter (fun (e, tr) -> edge_cts.(e) <- compile_trace tr) sc.bw_traces;
  (node_cts, edge_cts)

(* platform scaled by per-node / per-edge multipliers: a multiplier m
   divides the time per unit, i.e. w' = w/m and c' = c/m *)
let scaled_platform sc node_mult edge_mult =
  let p = sc.platform in
  P.create
    ~names:(Array.of_list (List.map (P.name p) (P.nodes p)))
    ~weights:
      (Array.of_list
         (List.map
            (fun i ->
              match P.weight p i with
              | Ext_rat.Inf -> Ext_rat.Inf
              | Ext_rat.Fin w -> Ext_rat.Fin (R.div w (node_mult i)))
            (P.nodes p)))
    ~edges:
      (List.map
         (fun e ->
           ( P.edge_src p e,
             P.edge_dst p e,
             R.div (P.edge_cost p e) (edge_mult e) ))
         (P.edges p))

(* Whole tasks in a phase's share of a rate, saturating at [max_int]:
   a capacity past it only ever caps a count from above.  A count a
   plan actually uses goes through [planned], so one that does not fit
   a native int (an absurdly long phase or a huge speed-up multiplier)
   is rejected as bad input rather than overflowing. *)
let sat_floor x =
  match Bigint.to_int_opt (R.floor x) with Some k -> k | None -> max_int

let sat_add a b = if a > max_int - b then max_int else a + b

let planned k =
  if k = max_int then
    invalid_arg "Dynamic_sched: per-phase task count overflows";
  k

let task_count x = planned (sat_floor x)

(* A phase plan is one [(path, count)] per delivery path — [count]
   unit task files sent along the master-rooted [path], each computed
   at its terminal node — plus the master's own task count.  Plans are
   at single-task granularity so that a slave only computes what has
   actually been delivered (a stalled link therefore stalls the
   dependent computation, as it would in reality).

   On a platform that is not a tree, the plan comes from the LP.  The
   LP task flow is acyclic (cycle-cancelled by {!Reconstruct}) and
   conserved at every non-master node — in = alpha*speed + out, the
   LP's own conservation rows — so it decomposes exactly into
   master-rooted paths: repeatedly follow, from the master, the
   lowest-indexed edge with positive remaining flow until the first
   node with positive remaining compute rate, and subtract the
   bottleneck along the walk.  The invariant
   [rem_in = rem_comp + rem_out] is preserved by every subtraction, so
   a walk that cannot absorb at a node always finds an onward edge;
   acyclicity bounds its length, and each round zeroes an edge or a
   node, so there are at most |E| + |V| paths.

   Each path then carries floor(phase * rate) unit task files
   (delivered hop by hop, computing one unit at the terminal node);
   the master's own work is floored the same way.  What these floors
   lose depends on which optimal vertex the kernel returned; on a tree
   {!tree_plan} below loses nothing. *)
let path_floors sol phase =
  let p = sol.Master_slave.platform in
  let master = sol.Master_slave.master in
  let rem = Array.copy sol.Master_slave.task_flow in
  let comp =
    Array.init (P.num_nodes p) (fun i ->
        if i = master then R.zero
        else R.mul sol.Master_slave.alpha.(i) (P.speed p i))
  in
  let out_edges =
    Array.init (P.num_nodes p) (fun i -> List.sort compare (P.out_edges p i))
  in
  let next_edge v =
    List.find_opt (fun e -> R.sign rem.(e) > 0) out_edges.(v)
  in
  let paths = ref [] in
  let rec walk v acc bottleneck =
    if v <> master && R.sign comp.(v) > 0 then begin
      let amount = R.min bottleneck comp.(v) in
      comp.(v) <- R.sub comp.(v) amount;
      let path = List.rev acc in
      List.iter (fun e -> rem.(e) <- R.sub rem.(e) amount) path;
      paths := (path, amount) :: !paths
    end
    else
      match next_edge v with
      | Some e -> walk (P.edge_dst p e) (e :: acc) (R.min bottleneck rem.(e))
      | None ->
        invalid_arg
          "Dynamic_sched: task flow is not conserved (cannot decompose \
           into master-rooted paths)"
  in
  let rec drain () =
    match next_edge master with
    | None -> ()
    | Some e ->
      walk (P.edge_dst p e) [ e ] rem.(e);
      drain ()
  in
  drain ();
  let paths =
    List.filter_map
      (fun (path, rate) ->
        let items = task_count (R.mul phase rate) in
        if items > 0 then Some (path, items) else None)
      (List.rev !paths)
  in
  let master_tasks =
    task_count
      (R.mul phase (R.mul sol.Master_slave.alpha.(master) (P.speed p master)))
  in
  (paths, master_tasks)

(* The integral bandwidth-centric sweep of {!plan_phase} on a tree.
   With unit-size tasks, filling a port cheapest link first is its
   optimal fill, and any inflow up to [absorb u] is deliverable inside
   [u]'s subtree; so the bottom-up pass finds the one-phase integral
   optimum and the top-down pass realises it.  A link's fit is compared
   with the child's absorption before it becomes an int, so a very
   fast link whose [phase / c] exceeds [max_int] costs nothing when its
   subtree absorbs little. *)
let tree_plan p ~master td phase =
  let n = P.num_nodes p in
  let cost = P.edge_cost p in
  let { Tree_decomp.order; parent_edge; child_lo; child_hi; _ } = td in
  (* each node's children range of [order], cheapest link first, ties
     in BFS order *)
  let kids = Array.copy order in
  Array.iter
    (fun v ->
      let lo = child_lo.(v) and len = child_hi.(v) - child_lo.(v) in
      if len > 1 then begin
        let seg = Array.sub kids lo len in
        Array.stable_sort
          (fun a b -> R.compare (cost parent_edge.(a)) (cost parent_edge.(b)))
          seg;
        Array.blit seg 0 kids lo len
      end)
    order;
  let cpu =
    Array.init n (fun v ->
        match P.weight p v with
        | Ext_rat.Inf -> 0
        | Ext_rat.Fin w -> sat_floor (R.div phase w))
  in
  let take = Array.make (P.num_edges p) 0 in
  let absorb = Array.make n 0 in
  for idx = Array.length order - 1 downto 0 do
    let v = order.(idx) in
    let budget = ref phase and acc = ref cpu.(v) in
    for k = child_lo.(v) to child_hi.(v) - 1 do
      let u = kids.(k) in
      let e = parent_edge.(u) in
      let fit = R.div !budget (cost e) in
      let t =
        if R.compare (R.of_int absorb.(u)) fit <= 0 then absorb.(u)
        else sat_floor fit
      in
      take.(e) <- t;
      budget := R.sub !budget (R.mul_int (cost e) t);
      acc := sat_add !acc t
    done;
    absorb.(v) <- !acc
  done;
  let inflow = Array.make n 0 in
  let rev_path = Array.make n [] in
  let paths = ref [] in
  Array.iter
    (fun v ->
      let rest =
        ref
          (if v = master then max_int (* the master sends every take *)
           else begin
             let self = min inflow.(v) cpu.(v) in
             if self > 0 then paths := (List.rev rev_path.(v), self) :: !paths;
             inflow.(v) - self
           end)
      in
      for k = child_lo.(v) to child_hi.(v) - 1 do
        let u = kids.(k) in
        let e = parent_edge.(u) in
        let t = planned (min !rest take.(e)) in
        inflow.(u) <- t;
        rev_path.(u) <- e :: rev_path.(v);
        rest := !rest - t
      done)
    order;
  (List.rev !paths, planned cpu.(master))

(* The one phase planner of every executor: the integral sweep on a
   tree; elsewhere the LP (through the caller's [?cache]/[?stats]) and
   its per-path floors.  [None] when the LP has no optimum. *)
let plan_phase ?cache ?stats p ~master phase =
  match Tree_decomp.detect p ~root:master with
  | Some td -> Some (tree_plan p ~master td phase)
  | None -> (
    match Master_slave.try_solve ?cache ?stats p ~master with
    | Ok sol -> Some (path_floors sol phase)
    | Error (`Infeasible | `Unbounded) -> None)

let plan_exn ?cache ?stats p ~master phase =
  match plan_phase ?cache ?stats p ~master phase with
  | Some plan -> plan
  | None -> failwith "Dynamic_sched: plan LP not optimal (invalid platform?)"

type loss_report = {
  timed_out_transfers : int;
  cancelled_transfers : int;
  retries : int;
  lost_tasks : int;
  degraded_phases : int;
  dead_nodes : int;
  dead_edges : int;
}

let no_losses =
  {
    timed_out_transfers = 0;
    cancelled_transfers = 0;
    retries = 0;
    lost_tasks = 0;
    degraded_phases = 0;
    dead_nodes = 0;
    dead_edges = 0;
  }

type outcome = {
  strategy : strategy;
  completed : R.t;
  per_phase : R.t list;
  losses : loss_report;
}

(* Surviving subplatform: what the master still reaches over links with a
   positive multiplier, scaled by the given multipliers; a surviving node
   whose CPU multiplier is zero keeps relaying but cannot compute
   (weight +oo).  A non-positive multiplier marks the resource dead. *)
let surviving_scaled sc ~node_mult ~edge_mult =
  let p = sc.platform in
  let dead_bw e = R.sign (edge_mult e) <= 0 in
  let dead_cpu i = R.sign (node_mult i) <= 0 in
  let reachable =
    P.reachable_via p ~alive:(fun e -> not (dead_bw e)) sc.master
  in
  P.restrict p
    ~keep_node:(fun i -> reachable.(i))
    ~keep_edge:(fun e -> not (dead_bw e))
    ~weights:(fun i ->
      match P.weight p i with
      | Ext_rat.Fin w when not (dead_cpu i) -> Ext_rat.Fin (R.div w (node_mult i))
      | Ext_rat.Fin _ | Ext_rat.Inf -> Ext_rat.Inf)
    ~costs:(fun e -> R.div (P.edge_cost p e) (edge_mult e))

let surviving_platform sc ~at =
  validate_scenario ~allow_outages:true sc;
  let node_cts, edge_cts = compile_scenario sc in
  surviving_scaled sc
    ~node_mult:(fun i -> compiled_at node_cts.(i) at)
    ~edge_mult:(fun e -> compiled_at edge_cts.(e) at)

(* Forecasters for the subjects a trace names.  An untraced node or edge
   observes 1 at every boundary, so each of its predictors forecasts
   exactly 1, as a never-fed forecaster does: it needs none. *)
let forecasters cts =
  Array.map
    (fun ct ->
      if Array.length ct.bp_times = 0 then None else Some (Forecast.create ()))
    cts

(* feed every forecaster whose subject is alive its multiplier at [time] *)
let observe fcs cts ~alive time =
  Array.iteri
    (fun k fc ->
      match fc with
      | Some f when alive k -> Forecast.observe f (compiled_at cts.(k) time)
      | Some _ | None -> ())
    fcs

let predict fcs k =
  match fcs.(k) with None -> R.one | Some f -> Forecast.predict f

let is_computing p v =
  match P.weight p v with Ext_rat.Inf -> false | Ext_rat.Fin _ -> true

let has_compute sub = List.exists (is_computing sub) (P.nodes sub)

(* a scenario's traces as the simulator takes them *)
let normalized = List.map (fun (k, tr) -> (k, normalize_trace tr))

(* the simulator a run executes on, fed the normalised traces *)
let simulator_of sc =
  Event_sim.create ~cpu_traces:(normalized sc.cpu_traces)
    ~bw_traces:(normalized sc.bw_traces) sc.platform

(* Submit each [(path, count)] entry's [count] unit task files
   round-robin across the entries: one file per path per round, in list
   order, until every count is spent. *)
let round_robin submit batch =
  let q = Array.of_list batch in
  let counts = Array.map snd q in
  let remaining = ref (Array.fold_left ( + ) 0 counts) in
  while !remaining > 0 do
    Array.iteri
      (fun idx (path, _) ->
        if counts.(idx) > 0 then begin
          counts.(idx) <- counts.(idx) - 1;
          decr remaining;
          submit path
        end)
      q
  done

(* phase-boundary differences of the cumulative-work marks *)
let per_phase_of marks completed =
  match List.rev (completed :: marks) with
  | [] -> []
  | first :: rest ->
    let rec diffs prev = function
      | [] -> []
      | x :: xs -> R.sub x prev :: diffs x xs
    in
    diffs first rest

let run_classic ?cache ?stats sc strategy =
  let p = sc.platform in
  let node_cts, edge_cts = compile_scenario sc in
  let sim = simulator_of sc in
  (* off a tree, with [?cache], flat trace segments (repeated
     multipliers) hit it outright; without, every phase is solved *)
  let plan p = plan_exn ?cache ?stats p ~master:sc.master sc.phase in
  let plan_scaled node_mult edge_mult =
    plan (scaled_platform sc node_mult edge_mult)
  in
  let static_plan = plan p in
  (* the reactive strategy's forecasters *)
  let node_fc = forecasters node_cts and edge_fc = forecasters edge_cts in
  let marks = ref [] in
  let plan_for time =
    match strategy with
    | Robust -> assert false (* handled by [run_robust] *)
    | Static -> static_plan
    | Oracle ->
      plan_scaled
        (fun i -> compiled_at node_cts.(i) time)
        (fun e -> compiled_at edge_cts.(e) time)
    | Reactive ->
      (* probe current performance, fold into the forecasters, and plan
         with the prediction *)
      let alive _ = true in
      observe node_fc node_cts ~alive time;
      observe edge_fc edge_cts ~alive time;
      plan_scaled (predict node_fc) (predict edge_fc)
  in
  (* store-and-forward delivery of one unit task file along a path: each
     hop is submitted only when the previous one lands (so a stalled
     link stalls everything behind it, hop by hop), and the terminal
     arrival enables one unit of computation.  Single-hop paths reduce
     to the old direct submit *)
  let rec submit_chain sim path =
    match path with
    | [] -> ()
    | [ e ] ->
      let dst = P.edge_dst p e in
      Event_sim.submit sim (Event_sim.Transfer (e, R.one))
        ~on_done:(fun sim ->
          Event_sim.submit sim (Event_sim.Compute (dst, R.one)))
    | e :: rest ->
      Event_sim.submit sim (Event_sim.Transfer (e, R.one))
        ~on_done:(fun sim -> submit_chain sim rest)
  in
  for k = 0 to sc.phases - 1 do
    let t0 = R.mul (R.of_int k) sc.phase in
    Event_sim.at sim t0 (fun sim ->
        marks := Schedule.completed sim :: !marks;
        let transfers, master_tasks = plan_for t0 in
        (* unit task files, each enabling one unit of computation on
           terminal arrival *)
        round_robin (submit_chain sim) transfers;
        if master_tasks > 0 then
          Event_sim.submit sim
            (Event_sim.Compute (sc.master, R.of_int master_tasks)))
  done;
  let horizon = R.mul (R.of_int sc.phases) sc.phase in
  Event_sim.run_until sim horizon;
  let completed = Schedule.completed sim in
  {
    strategy;
    completed;
    per_phase = per_phase_of !marks completed;
    losses = no_losses;
  }

(* ---- crash recovery ---------------------------------------------------

   A checkpointed Robust run persists, at a configurable epoch cadence,
   its whole state at the start of a boundary callback: the executor's
   counters, retry backlog, static-floor arrears and work marks, its
   in-flight task files (operation id, remaining path, attempts), and
   the simulator's {!Event_sim.snapshot}.  [resume] decodes the record,
   restores the simulator, re-attaches each in-flight file's callbacks
   and each timer by its tag, runs the rest of that boundary's callback
   and continues the event loop: no boundary before the checkpoint runs
   again.  What the record leaves out is a function of the scenario and
   the epoch: the dead marks (a subject is dead at boundary j exactly
   when its multiplier at t_j is 0, since every breakpoint at or before
   t_j fires before the boundary timer), the forecasters' observations
   (the live multipliers at t_0 .. t_(k-1)), and the static floor plan.
   The one thing a live epoch hands the next, the decision it may
   reuse, is rebuilt by the resumed run's first live epoch, which
   plans.  Each epoch's decision is a function of that epoch's
   multipliers alone (the tree sweep, or a cold LP solve on the
   surviving platform they scale), so the resumed run needs no LP memo.
   A missing, truncated, corrupt or version-skewed record, or one that
   breaks an invariant the executor keeps, is quarantined and degrades
   to a cold full run. *)

module Checkpoint = struct
  type config = { dir : string; every : int }

  exception Halted of int
end

(* one boundary's planning decision, in original platform indices *)
type decision =
  | D_degraded
  | D_plan of (P.edge list * int) list * int
      (* per-path unit-file counts, raw master floor (pre-adjustment) *)

(* The executor's own state between events: with the simulator's, all a
   run carries from one boundary to the next. *)
type exec = {
  mutable deficit : int; (* master floor owed while its CPU was dead *)
  mutable cancelled : int;
  mutable retries : int;
  mutable lost : int;
  mutable degraded : int;
  mutable backlog : int list;
      (* attempt counts of task files waiting for a route, newest first *)
  mutable arrears : (P.edge list * int) list list; (* oldest batch first *)
  mutable marks : R.t list; (* completed work at each boundary, newest first *)
  live : (Event_sim.op_id, P.edge list * int) Hashtbl.t;
      (* in-flight task files: remaining path from the hop on the wire,
         attempts *)
}

(* a record: the boundary it was taken at and the state at the start of
   that boundary's callback *)
type point = { epoch : int; exec : exec; sim : Event_sim.snapshot }

let max_attempts = 4

(* timer tags: boundary [k] is [2k], the retry of a task file on its
   [a]-th attempt [2a + 1] *)
let boundary_tag k = 2 * k
let retry_tag a = (2 * a) + 1

(* Version 5 holds the simulator's state, so a resume continues instead
   of replaying the run's decision log, which versions 1-4 held (and
   version 1 a warm LP basis, version 2 a reuse flag, version 3 a log
   planned on the LP kernel's vertex); those are quarantined. *)
let ckpt_format = "steady-ckpt 5"

(* One item per line, its fields separated by single spaces, every
   number non-negative and in {!Rat.to_string}'s spelling; each list is
   a header line with its length, then its items. *)
let encode_ckpt { epoch; exec = st; sim = s } =
  let b = Buffer.create 1024 in
  let rec digits n =
    if n >= 10 then digits (n / 10);
    Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))
  in
  let first = ref true in
  let sep () = if !first then first := false else Buffer.add_char b ' ' in
  let w x =
    sep ();
    Buffer.add_string b x
  in
  let i n =
    sep ();
    if n >= 0 then digits n else Buffer.add_string b (string_of_int n)
  in
  let q x =
    sep ();
    match R.to_ints x with
    | Some (n, 1) when n >= 0 -> digits n
    | Some (n, d) when n >= 0 ->
      digits n;
      Buffer.add_char b '/';
      digits d
    | Some _ | None -> Buffer.add_string b (R.to_string x)
  in
  let nl () =
    Buffer.add_char b '\n';
    first := true
  in
  let header name n =
    w name;
    i n;
    nl ()
  in
  let kind = function
    | Event_sim.Compute (v, x) -> w "C"; i v; q x
    | Event_sim.Transfer (e, x) -> w "T"; i e; q x
  in
  let port (pt : Event_sim.port) = q pt.busy_closed; q pt.busy_since in
  w ckpt_format;
  nl ();
  header "epoch" epoch;
  w "counters";
  List.iter i [ st.deficit; st.cancelled; st.retries; st.lost; st.degraded ];
  nl ();
  w "backlog";
  i (List.length st.backlog);
  List.iter i st.backlog;
  nl ();
  header "arrears" (List.length st.arrears);
  List.iter
    (fun batch ->
      header "batch" (List.length batch);
      List.iter (fun (path, cnt) -> i cnt; List.iter i path; nl ()) batch)
    st.arrears;
  w "marks";
  i (List.length st.marks);
  List.iter q (List.rev st.marks);
  nl ();
  let live =
    Hashtbl.fold (fun id x acc -> (id, x) :: acc) st.live []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  header "live" (List.length live);
  List.iter (fun (id, (path, a)) -> i id; i a; List.iter i path; nl ()) live;
  w "clock";
  q s.Event_sim.s_clock;
  i s.s_next_id;
  nl ();
  header "nodes" (List.length s.s_nodes);
  List.iter
    (fun (n : Event_sim.node_snapshot) ->
      i n.n_node;
      port n.n_cpu;
      port n.n_send;
      port n.n_recv;
      q n.n_work;
      i n.n_computed;
      nl ())
    s.s_nodes;
  header "edges" (List.length s.s_edges);
  List.iter (fun (e, x) -> i e; q x; nl ()) s.s_edges;
  header "running" (List.length s.s_running);
  List.iter
    (fun (r : Event_sim.running) ->
      i r.r_id;
      kind r.r_kind;
      q r.r_remaining;
      q r.r_updated;
      nl ())
    s.s_running;
  header "queued" (List.length s.s_queued);
  List.iter
    (fun (o : Event_sim.queued) -> i o.q_id; kind o.q_kind; nl ())
    s.s_queued;
  header "events" (List.length s.s_events);
  List.iter
    (fun (time, ev) ->
      q time;
      (match ev with
      | Event_sim.Q_complete id -> w "C"; i id
      | Event_sim.Q_breakpoint (Event_sim.Cpu_of v, j) -> w "B c"; i v; i j
      | Event_sim.Q_breakpoint (Event_sim.Bw_of e, j) -> w "B b"; i e; i j
      | Event_sim.Q_timer tag -> w "T"; i tag);
      nl ())
    s.s_events;
  Buffer.contents b

(* Strict decoder, a scanner over the record's bytes: any deviation —
   bad magic, a missing or extra field, a number not in the encoder's
   spelling (a sign, a leading zero, a fraction not in lowest terms, an
   integer field past 18 digits), an index off the platform, a count
   past its bound — yields [None], and the caller quarantines the record
   and cold-starts.  It never raises.  Every list length is bounded by
   the bytes left (an item takes a line of at least two), and the work
   marks by the epoch.  What the fields mean together is checked later,
   against the run's static plan ([consistent]) and by
   {!Event_sim.restore}. *)
let decode_ckpt sc raw =
  let p = sc.platform in
  let n_nodes = P.num_nodes p and n_edges = P.num_edges p in
  let len = String.length raw in
  let pos = ref 0 in
  let fail () = raise Exit in
  let at c = !pos < len && Char.equal (String.unsafe_get raw !pos) c in
  let char c = if at c then incr pos else fail () in
  let sp () = char ' ' and nl () = char '\n' in
  let word w =
    let n = String.length w in
    if !pos + n > len then fail ();
    for k = 0 to n - 1 do
      if not (Char.equal raw.[!pos + k] w.[k]) then fail ()
    done;
    pos := !pos + n
  in
  let is_digit k = k < len && raw.[k] >= '0' && raw.[k] <= '9' in
  (* the digits at [pos]: their count, and their value when at most 18 *)
  let digits () =
    let start = !pos and v = ref 0 in
    while is_digit !pos do
      v := (!v * 10) + (Char.code raw.[!pos] - 48);
      incr pos
    done;
    let n = !pos - start in
    if n = 0 || (n > 1 && Char.equal raw.[start] '0') then fail ();
    (n, !v)
  in
  let int () =
    let n, v = digits () in
    if n > 18 then fail ();
    v
  in
  let below bound =
    let k = int () in
    if k >= bound then fail ();
    k
  in
  let rat () =
    let start = !pos in
    let n, v = digits () in
    if at '/' then begin
      incr pos;
      let m, d = digits () in
      if n > 18 || m > 18 then begin
        (* past native ints: the boxed path, with its spelling *)
        let s = String.sub raw start (!pos - start) in
        match R.of_string s with
        | x when String.equal (R.to_string x) s -> x
        | _ -> fail ()
        | exception (Invalid_argument _ | Failure _ | Division_by_zero) ->
          fail ()
      end
      else begin
        let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
        if d < 2 || gcd v d <> 1 then fail ();
        R.of_ints v d
      end
    end
    else if n > 18 then
      match R.of_string (String.sub raw start (!pos - start)) with
      | x -> x
      | exception (Invalid_argument _ | Failure _) -> fail ()
    else R.of_int v
  in
  let count () =
    let k = int () in
    if k > (len - !pos) / 2 then fail ();
    k
  in
  (* [n] items read in order: the reads are stateful *)
  let items n f = List.init n (fun _ -> f ()) in
  let header name =
    word name;
    sp ();
    let n = count () in
    nl ();
    n
  in
  (* the rest of a line: a path of at least one edge *)
  let path () =
    let rec more acc k =
      if at '\n' then (incr pos; List.rev acc)
      else begin
        sp ();
        if k >= n_edges then fail ();
        more (below n_edges :: acc) (k + 1)
      end
    in
    sp ();
    let e = below n_edges in
    more [ e ] 1
  in
  let kind () =
    if at 'C' then begin
      incr pos;
      sp ();
      let v = below n_nodes in
      sp ();
      Event_sim.Compute (v, rat ())
    end
    else begin
      word "T";
      sp ();
      let e = below n_edges in
      sp ();
      Event_sim.Transfer (e, rat ())
    end
  in
  let port () =
    sp ();
    let busy = rat () in
    sp ();
    { Event_sim.busy_closed = busy; busy_since = rat () }
  in
  try
    word ckpt_format;
    nl ();
    let epoch = header "epoch" in
    if epoch < 1 || epoch >= sc.phases then fail ();
    word "counters";
    let counter () = sp (); int () in
    let deficit = counter () in
    let cancelled = counter () in
    let retries = counter () in
    let lost = counter () in
    let degraded = counter () in
    nl ();
    word "backlog";
    sp ();
    let backlog =
      items (count ()) (fun () ->
          sp ();
          let a = below max_attempts in
          if a < 1 then fail ();
          a)
    in
    nl ();
    let arrears =
      items (header "arrears") (fun () ->
          let n = header "batch" in
          if n = 0 then fail ();
          items n (fun () ->
              let cnt = int () in
              (path (), cnt)))
    in
    word "marks";
    sp ();
    if count () <> epoch then fail ();
    let marks = List.rev (items epoch (fun () -> sp (); rat ())) in
    nl ();
    let live = Hashtbl.create 64 in
    for _ = 1 to header "live" do
      let id = int () in
      sp ();
      let a = below max_attempts in
      if Hashtbl.mem live id then fail ();
      Hashtbl.replace live id (path (), a)
    done;
    word "clock";
    sp ();
    let clock = rat () in
    sp ();
    let next_id = int () in
    nl ();
    let nodes =
      items (header "nodes") (fun () ->
          let v = below n_nodes in
          let cpu = port () in
          let send = port () in
          let recv = port () in
          sp ();
          let work = rat () in
          sp ();
          let computed = int () in
          nl ();
          { Event_sim.n_node = v; n_cpu = cpu; n_send = send; n_recv = recv;
            n_work = work; n_computed = computed })
    in
    let edges =
      items (header "edges") (fun () ->
          let e = below n_edges in
          sp ();
          let x = rat () in
          nl ();
          (e, x))
    in
    let running =
      items (header "running") (fun () ->
          let id = int () in
          sp ();
          let k = kind () in
          sp ();
          let left = rat () in
          sp ();
          let updated = rat () in
          nl ();
          { Event_sim.r_id = id; r_kind = k; r_remaining = left;
            r_updated = updated })
    in
    let queued =
      items (header "queued") (fun () ->
          let id = int () in
          sp ();
          let k = kind () in
          nl ();
          { Event_sim.q_id = id; q_kind = k })
    in
    let events =
      items (header "events") (fun () ->
          let time = rat () in
          sp ();
          let ev =
            if at 'C' then begin
              incr pos;
              sp ();
              Event_sim.Q_complete (int ())
            end
            else if at 'B' then begin
              incr pos;
              sp ();
              let cpu = at 'c' in
              if cpu then incr pos else char 'b';
              sp ();
              let k = below (if cpu then n_nodes else n_edges) in
              sp ();
              let j = int () in
              Event_sim.Q_breakpoint
                ((if cpu then Event_sim.Cpu_of k else Event_sim.Bw_of k), j)
            end
            else begin
              word "T";
              sp ();
              Event_sim.Q_timer (int ())
            end
          in
          nl ();
          (time, ev))
    in
    if !pos <> len then fail ();
    Some
      {
        epoch;
        exec =
          { deficit; cancelled; retries; lost; degraded; backlog; arrears;
            marks; live };
        sim =
          {
            Event_sim.s_clock = clock;
            s_next_id = next_id;
            s_nodes = nodes;
            s_edges = edges;
            s_running = running;
            s_queued = queued;
            s_events = events;
          };
      }
  with Exit -> None

(* canonical store key of a scenario: the checkpoint record binds to the
   exact platform, traces and horizon — a different run in the same
   store directory can never pick it up by accident *)
let scenario_key sc =
  let b = Buffer.create 512 in
  Buffer.add_string b "ckpt!v1!";
  let p = sc.platform in
  List.iter
    (fun i ->
      Buffer.add_string b (P.name p i);
      Buffer.add_char b '=';
      (match P.weight p i with
      | Ext_rat.Inf -> Buffer.add_string b "inf"
      | Ext_rat.Fin w -> Buffer.add_string b (R.to_string w));
      Buffer.add_char b ';')
    (P.nodes p);
  Buffer.add_char b '#';
  List.iter
    (fun e ->
      Buffer.add_string b (string_of_int (P.edge_src p e));
      Buffer.add_char b '>';
      Buffer.add_string b (string_of_int (P.edge_dst p e));
      Buffer.add_char b ':';
      Buffer.add_string b (R.to_string (P.edge_cost p e));
      Buffer.add_char b ';')
    (P.edges p);
  Buffer.add_char b '#';
  Buffer.add_string b (string_of_int sc.master);
  Buffer.add_char b '@';
  Buffer.add_string b (R.to_string sc.phase);
  Buffer.add_char b 'x';
  Buffer.add_string b (string_of_int sc.phases);
  let dump_traces tag l =
    Buffer.add_char b '#';
    Buffer.add_string b tag;
    List.iter
      (fun (i, tr) ->
        Buffer.add_string b (string_of_int i);
        Buffer.add_char b ':';
        List.iter
          (fun (t, mlt) ->
            Buffer.add_string b (R.to_string t);
            Buffer.add_char b ',';
            Buffer.add_string b (R.to_string mlt);
            Buffer.add_char b ';')
          (normalize_trace tr);
        Buffer.add_char b '|')
      l
  in
  dump_traces "cpu" sc.cpu_traces;
  dump_traces "bw" sc.bw_traces;
  Buffer.contents b

(* internal checkpoint context threaded through [robust] *)
type ckpt_ctx = {
  ck_store : Solve_store.t;
  ck_key : string;
  ck_every : int;
  ck_halt : int option; (* test hook: crash at this boundary *)
}

(* The executor's invariants over a decoded record, given this run's
   static plan: what a run leaves at the start of a boundary.  Every
   cancellation ends in exactly one of a retry, a loss, the backlog or
   a pending retry timer; the boundary timers after the record's are all
   queued, each at its time; every in-flight task file is a unit
   transfer on the first hop of a path to a computing node, every other
   operation a unit computation; arrears are entries of the static plan,
   and the master's deficit at most its floor at every boundary so far;
   the work marks never decrease and end at or below the work done.
   {!Event_sim.restore} checks the simulator's own. *)
let consistent sc ~static_transfers ~static_master { epoch; exec = st; sim = s }
    =
  let p = sc.platform in
  let t_of k = R.mul (R.of_int k) sc.phase in
  let horizon = t_of sc.phases in
  let retry_timers = ref 0 and next_boundary = ref (epoch + 1) in
  let timer (time, ev) =
    match ev with
    | Event_sim.Q_timer tag when tag land 1 = 0 ->
      let k = tag / 2 in
      let ok = k = !next_boundary && R.equal time (t_of k) in
      incr next_boundary;
      ok
    | Event_sim.Q_timer tag ->
      incr retry_timers;
      let a = tag / 2 in
      a >= 1 && a < max_attempts && R.compare time horizon < 0
    | Event_sim.Q_complete _ | Event_sim.Q_breakpoint _ -> true
  in
  let rec path_ok = function
    | [ e ] -> is_computing p (P.edge_dst p e)
    | e :: (e' :: _ as rest) -> P.edge_dst p e = P.edge_src p e' && path_ok rest
    | [] -> false
  in
  let transfers = ref 0 in
  let op id = function
    | Event_sim.Compute (_, x) -> R.equal x R.one
    | Event_sim.Transfer (e, x) -> (
      incr transfers;
      R.equal x R.one
      &&
      match Hashtbl.find_opt st.live id with
      | Some (e' :: _, _) -> e = e'
      | Some ([], _) | None -> false)
  in
  let rec non_decreasing = function
    | a :: (b :: _ as rest) -> R.compare a b >= 0 && non_decreasing rest
    | [ a ] -> R.sign a >= 0
    | [] -> true
  in
  let done_work =
    List.fold_left
      (fun acc (n : Event_sim.node_snapshot) ->
        if n.n_computed > 0 then R.add acc n.n_work else acc)
      R.zero s.Event_sim.s_nodes
  in
  R.equal s.s_clock (t_of epoch)
  && List.for_all timer s.s_events
  && !next_boundary = sc.phases
  && st.cancelled
     = st.retries + st.lost + List.length st.backlog + !retry_timers
  && List.for_all (fun (r : Event_sim.running) -> op r.r_id r.r_kind) s.s_running
  && List.for_all (fun (q : Event_sim.queued) -> op q.q_id q.q_kind) s.s_queued
  && !transfers = Hashtbl.length st.live
  && Hashtbl.fold (fun _ (path, _) ok -> ok && path_ok path) st.live true
  && List.compare_length_with st.arrears epoch <= 0
  && List.for_all
       (List.for_all (fun entry -> List.mem entry static_transfers))
       st.arrears
  && st.deficit <= epoch * static_master
  && non_decreasing st.marks
  && (match st.marks with mk :: _ -> R.compare mk done_work <= 0 | [] -> true)

(* The Robust executor, from epoch 0 or, given [from], from a decoded
   checkpoint: then [None] when the record breaks an invariant, before
   anything runs. *)
let robust ?cache ?stats ?ckpt ?from sc =
  let p = sc.platform in
  let n = P.num_nodes p and m = P.num_edges p in
  let node_cts, edge_cts = compile_scenario sc in
  let t_of k = R.mul (R.of_int k) sc.phase in
  let start = match from with Some pt -> pt.epoch | None -> 0 in
  (* Failure state.  Zero-crossing breakpoints fire simulator outage
     events, and breakpoint timers sort before the phase-boundary timers
     registered below, so at every boundary these arrays are current: a
     subject is dead exactly when its multiplier is 0.  Traces that
     start dead fire no event, and a resumed run starts mid-way: hence
     the initialisation. *)
  let dead cts k = R.is_zero (compiled_at cts.(k) (t_of start)) in
  let dead_cpu = Array.init n (dead node_cts) in
  let dead_bw = Array.init m (dead edge_cts) in
  let node_fc = forecasters node_cts and edge_fc = forecasters edge_cts in
  (* a resumed run's forecasters see what the boundaries before it
     observed: the multipliers of the subjects alive there *)
  for j = 0 to start - 1 do
    let tj = t_of j in
    let alive cts k = not (R.is_zero (compiled_at cts.(k) tj)) in
    observe node_fc node_cts ~alive:(alive node_cts) tj;
    observe edge_fc edge_cts ~alive:(alive edge_cts) tj
  done;
  let st =
    match from with
    | Some pt -> pt.exec
    | None ->
      { deficit = 0; cancelled = 0; retries = 0; lost = 0; degraded = 0;
        backlog = []; arrears = []; marks = []; live = Hashtbl.create 32 }
  in
  let horizon = t_of sc.phases in
  (* a route is now a whole master-rooted path; it is usable for a
     (re)send when every link is alive and the terminal CPU computes *)
  let path_links_alive path = List.for_all (fun e -> not dead_bw.(e)) path in
  let path_dst path =
    match List.rev path with
    | e :: _ -> P.edge_dst p e
    | [] -> invalid_arg "Dynamic_sched: empty path"
  in
  (* routes of the current phase's plan, consulted by mid-phase backoff
     retries; the cursor keeps re-routing round-robin across them.  Each
     boundary sets both before any retry reads them. *)
  let routes = ref [||] in
  let route_rr = ref 0 in
  let pick_route () =
    let q = !routes in
    let len = Array.length q in
    let rec scan k =
      if k >= len then None
      else
        let path = q.((!route_rr + k) mod len) in
        if path_links_alive path && not dead_cpu.(path_dst path) then begin
          route_rr := (!route_rr + k + 1) mod len;
          Some path
        end
        else scan (k + 1)
    in
    scan 0
  in
  let note_retry backoff =
    st.retries <- st.retries + 1;
    match stats with Some s -> Lp.Stats.add_retry s ~backoff | None -> ()
  in
  let backoff_base = R.div sc.phase (R.of_int 4) in
  let backoff attempts = R.mul backoff_base (R.of_int (1 lsl (attempts - 1))) in
  (* Store-and-forward delivery along a path: each hop is its own
     tracked operation, submitted when the previous hop lands; the
     terminal arrival enables one unit of computation.  A cancellation
     anywhere along the path abandons the partial progress and resends
     the whole file from the master on a route picked at retry time —
     the copy parked at the intermediate node is simply dropped (task
     files are replicable data, never unique state). *)
  let rec hop_callbacks idr e rest attempts =
    (* callbacks only fire from the event loop, after [idr] is set *)
    let unregister () =
      match !idr with None -> () | Some id -> Hashtbl.remove st.live id
    in
    (* No per-op timeout: cancelling a transfer discards its partial
       progress, and a transfer that is merely slow (or deeply queued
       behind the static supply floor) will finish — recycling it is
       the one way a "robust" executor falls behind the static one,
       which never cancels anything.  Genuine stalls are multiplier-0
       links, and those the boundary sweep detects and cancels
       eagerly through the outage events. *)
    let on_done sim =
      unregister ();
      match rest with
      | [] -> Event_sim.submit sim (Event_sim.Compute (P.edge_dst p e, R.one))
      | _ -> submit_path sim rest attempts
    in
    let on_cancel sim _ =
      unregister ();
      st.cancelled <- st.cancelled + 1;
      (* retry with exponential backoff and a per-transfer deadline:
         attempt [a] waits [phase/4 * 2^(a-1)] before resubmitting on a
         route alive at fire time (no such route: the task file waits in
         the backlog for the next boundary).  A retry whose backoff
         lands at or past the horizon is abandoned — it could never
         deliver in time anyway.  Every cancellation thus ends in
         exactly one of {retry, lost, backlog, pending retry}, which is
         the accounting identity [cancelled = retries + lost_tasks]
         the chaos harness asserts at the end of a run. *)
      let attempts = attempts + 1 in
      if attempts >= max_attempts then st.lost <- st.lost + 1
      else
        let due = R.add (Event_sim.now sim) (backoff attempts) in
        if R.compare due horizon >= 0 then st.lost <- st.lost + 1
        else Event_sim.at ~tag:(retry_tag attempts) sim due (retry attempts)
    in
    (on_done, on_cancel)
  and submit_path sim path attempts =
    match path with
    | [] -> ()
    | e :: rest ->
      let idr = ref None in
      let on_done, on_cancel = hop_callbacks idr e rest attempts in
      let id =
        Event_sim.submit_op sim (Event_sim.Transfer (e, R.one)) ~on_done
          ~on_cancel
      in
      idr := Some id;
      Hashtbl.replace st.live id (path, attempts)
  and retry attempts sim =
    match pick_route () with
    | Some path ->
      note_retry (backoff attempts);
      submit_path sim path attempts
    | None -> st.backlog <- attempts :: st.backlog
  in
  (* The static baseline plan doubles as a supply floor: on every route
     that survives (link alive, destination CPU alive) Robust submits at
     least as many task files per phase as Static would.  Re-planning on
     the surviving subplatform then only ever *adds* supply (and prunes
     the routes Static wastes the master's port on), so Robust dominates
     Static structurally instead of depending on forecast quality —
     forecast-lagged floors supplying less than the static queue was the
     one regime where a fault-free Robust run fell behind.  Physics
     still caps the executed work at the per-epoch LP bound: extra
     submissions merely queue.

     Static-floor supply owed on routes that were dead when the floor
     would have submitted is [st.arrears].  Static keeps queueing through
     an outage and its queued transfers flow the moment the link
     recovers, so flooring only the currently-alive routes loses exactly
     the recovery scenarios (patience beats re-planning there).  The
     arrears are kept as per-boundary batches and replayed oldest-first
     (round-robin within each batch) the moment their links are back —
     which is the submission order of Static's own backed-up queue, so
     the catch-up traffic crosses the one-port bottleneck in the same
     order Static's would, restoring [Robust >= Static] under churn with
     recovery. *)
  let static_transfers, static_master =
    plan_exn ?cache ?stats p ~master:sc.master sc.phase
  in
  (* A live decision is a function of the multipliers alone (dead marks
     zero them): the surviving subplatform they scale, planned by the
     tree sweep or, off a tree, a cold LP solve.  So a live epoch whose
     multipliers equal the previous live epoch's, entry for entry,
     reuses that epoch's decision.  That is the only state crossing
     epochs that no checkpoint stores: a resumed run's first live epoch
     plans, and gets the decision the uninterrupted run reused.  The
     only memo across runs is the caller's [?cache]: an identical
     multiplier snapshot builds an identical restriction, hence an
     identical LP, which hits it. *)
  let node_mults = Array.make n R.one in
  let edge_mults = Array.make m R.one in
  let last_decision = ref None in
  (* the decision for the current multipliers *)
  let plan_live () =
    let restr =
      surviving_scaled sc
        ~node_mult:(fun i -> node_mults.(i))
        ~edge_mult:(fun e -> edge_mults.(e))
    in
    let sub = restr.P.sub in
    let plan =
      if not (has_compute sub) then None
      else
        plan_phase ?cache ?stats sub
          ~master:restr.P.sub_of_node.(sc.master) sc.phase
    in
    match plan with
    | None -> D_degraded
    | Some (transfers, master_tasks_raw) ->
      (* plan indices live on the restriction; execute in original
         platform indices *)
      let transfers =
        List.map
          (fun (path, cnt) ->
            (List.map (fun se -> restr.P.edge_of_sub.(se)) path, cnt))
          transfers
      in
      D_plan (transfers, master_tasks_raw)
  in
  (* the state at the start of boundary [k]'s callback, committed when
     the cadence says so *)
  let write_ckpt k sim =
    match ckpt with
    | Some c when k mod c.ck_every = 0 ->
      Solve_store.add c.ck_store c.ck_key
        (encode_ckpt { epoch = k; exec = st; sim = Event_sim.snapshot sim })
    | _ -> ()
  in
  let halt_check k =
    match ckpt with
    | Some { ck_halt = Some h; _ } when h = k -> raise (Checkpoint.Halted k)
    | _ -> ()
  in
  (* boundary [k]'s callback after the point a checkpoint is taken at *)
  let step k sim =
    let t0 = t_of k in
    st.marks <- Schedule.completed sim :: st.marks;
    (* detection-driven cancellation: a task file whose current hop sits
       on a link now known dead is going nowhere — free the one-port
       slots it holds (or its queue position) and re-queue the task
       file.  Oldest operation first: the table's own order depends on
       its bucket count, which a table rebuilt from a checkpoint need
       not share *)
    Hashtbl.fold
      (fun id (path, _) acc ->
        match path with e :: _ when dead_bw.(e) -> id :: acc | _ -> acc)
      st.live []
    |> List.sort Int.compare
    |> List.iter (fun id -> ignore (Event_sim.cancel sim id));
    (* observations of resources that are actually alive feed the
       forecasters — the first live epoch's predictions depend on the
       whole history *)
    observe node_fc node_cts ~alive:(fun i -> not dead_cpu.(i)) t0;
    observe edge_fc edge_cts ~alive:(fun e -> not dead_bw.(e)) t0;
    (* route arrears accrue per branch below (a dead destination CPU
       does NOT block the floor — delivering to a reachable node whose
       CPU is down pre-positions the task files, which compute queues
       and runs at recovery, exactly what Static does through the
       then-idle port); the master's own floor only stalls on a dead
       master CPU *)
    if dead_cpu.(sc.master) then st.deficit <- st.deficit + static_master;
    (* plan on the surviving subplatform, scaled by the forecasts,
       unless they are the last live epoch's *)
    let decision =
      let same = ref (Option.is_some !last_decision) in
      let fill mults dead fcs =
        Array.iteri
          (fun k was ->
            let x = if dead.(k) then R.zero else predict fcs k in
            if !same && not (R.equal x was) then same := false;
            mults.(k) <- x)
          mults
      in
      fill node_mults dead_cpu node_fc;
      fill edge_mults dead_bw edge_fc;
      match !last_decision with
      | Some d when !same -> d
      | Some _ | None ->
        let d = plan_live () in
        last_decision := Some d;
        d
    in
    match decision with
    | D_degraded ->
      (* graceful degradation: no surviving compute power (e.g. the
         master is isolated) — nothing submitted, nothing raised;
         backlogged task files wait for the next boundary.  The whole
         static batch goes into arrears: even its link-alive routes got
         no floor this boundary. *)
      if static_transfers <> [] then
        st.arrears <- st.arrears @ [ static_transfers ];
      routes := [||];
      route_rr := 0;
      st.degraded <- st.degraded + 1
    | D_plan (transfers, master_tasks_raw) ->
      (* apply the static supply floor on every route whose links all
         still deliver (dead destination CPUs queue the work).  Supply
         is layered to mirror Static's own port queue: payable arrears
         batches (oldest first), then this boundary's floor batch, then
         the plan's extras — so the opportunistic extras never displace
         through the one-port queue the deliveries Static would have
         made. *)
      let static_alive =
        List.filter (fun (path, _) -> path_links_alive path) static_transfers
      in
      let owed =
        List.filter
          (fun (path, _) -> not (path_links_alive path))
          static_transfers
      in
      let payable, retained =
        List.fold_left
          (fun (pay, keep) batch ->
            let alive, still_dead =
              List.partition (fun (path, _) -> path_links_alive path) batch
            in
            ( (if alive <> [] then alive :: pay else pay),
              if still_dead <> [] then still_dead :: keep else keep ))
          ([], []) st.arrears
      in
      let payable = List.rev payable in
      st.arrears <- List.rev retained @ (if owed <> [] then [ owed ] else []);
      (* plan extras beyond the floor on each route (paths compare
         structurally — a route is its exact edge sequence) *)
      let extras =
        List.filter_map
          (fun (path, cnt) ->
            let f =
              match List.assoc_opt path static_alive with
              | Some c -> c
              | None -> 0
            in
            if cnt > f then Some (path, cnt - f) else None)
          transfers
      in
      let master_tasks =
        if dead_cpu.(sc.master) then master_tasks_raw
        else begin
          let t = max master_tasks_raw static_master + st.deficit in
          st.deficit <- 0;
          t
        end
      in
      let retry_items = st.backlog in
      st.backlog <- [];
      (* retry routes: the plan's routes plus the floored ones *)
      let route_paths =
        List.map fst transfers
        @ List.filter_map
            (fun (path, _) ->
              if List.mem_assoc path transfers then None else Some path)
            static_alive
      in
      routes := Array.of_list route_paths;
      route_rr := 0;
      (* each batch is submitted round-robin across its routes — the
         same interleaving Static's own per-phase loop uses *)
      let submit_batch = round_robin (fun path -> submit_path sim path 0) in
      List.iter submit_batch payable;
      submit_batch static_alive;
      submit_batch extras;
      (* re-route the backlog round-robin over this phase's routes; with
         no route it waits for the next boundary *)
      let nroutes = Array.length !routes in
      if nroutes = 0 then st.backlog <- retry_items
      else
        List.iteri
          (fun j a ->
            let path = !routes.(j mod nroutes) in
            note_retry R.zero;
            submit_path sim path a)
          retry_items;
      (* unit granularity so a partial phase still counts *)
      for _ = 1 to master_tasks do
        Event_sim.submit sim (Event_sim.Compute (sc.master, R.one))
      done
  in
  (* a boundary of a run: the checkpoint due there (none at the epoch a
     run resumes from: that record is the one it decoded), the crash
     hook, then the step *)
  let boundary k sim =
    if k > start then begin
      write_ckpt k sim;
      halt_check k
    end;
    step k sim
  in
  let sim =
    match from with
    | None ->
      let sim = simulator_of sc in
      for k = 0 to sc.phases - 1 do
        Event_sim.at ~tag:(boundary_tag k) sim (t_of k) (boundary k)
      done;
      Some sim
    | Some pt ->
      if not (consistent sc ~static_transfers ~static_master pt) then None
      else
        let callbacks id _ =
          match Hashtbl.find_opt st.live id with
          | Some (e :: rest, attempts) ->
            let on_done, on_cancel = hop_callbacks (ref (Some id)) e rest attempts in
            (Some on_done, Some on_cancel)
          | Some ([], _) | None -> (None, None)
        in
        let timer tag =
          if tag land 1 = 0 then boundary (tag / 2) else retry (tag / 2)
        in
        Result.to_option
          (Event_sim.restore ~cpu_traces:(normalized sc.cpu_traces)
             ~bw_traces:(normalized sc.bw_traces) p pt.sim ~callbacks ~timer)
  in
  match sim with
  | None -> None
  | Some sim ->
    Event_sim.on_outage sim (fun _ out ->
        match out.Event_sim.out_subject with
        | Event_sim.Cpu_of i ->
          dead_cpu.(i) <- R.is_zero out.Event_sim.out_multiplier
        | Event_sim.Bw_of e ->
          dead_bw.(e) <- R.is_zero out.Event_sim.out_multiplier);
    (* a restored simulator stands where the checkpoint was taken *)
    if Option.is_some from then step start sim;
    Event_sim.run_until sim horizon;
    let completed = Schedule.completed sim in
    let reachable =
      P.reachable_via p ~alive:(fun e -> not dead_bw.(e)) sc.master
    in
    let dead_nodes = ref 0 and dead_edges = ref 0 in
    for i = 0 to n - 1 do
      if dead_cpu.(i) || not reachable.(i) then incr dead_nodes
    done;
    for e = 0 to m - 1 do
      if dead_bw.(e) then incr dead_edges
    done;
    Some
      {
        strategy = Robust;
        completed;
        per_phase = per_phase_of st.marks completed;
        losses =
          {
            timed_out_transfers = 0;
            cancelled_transfers = st.cancelled;
            retries = st.retries;
            lost_tasks = st.lost + List.length st.backlog;
            degraded_phases = st.degraded;
            dead_nodes = !dead_nodes;
            dead_edges = !dead_edges;
          };
      }

(* a run from epoch 0 always runs *)
let run_robust ?cache ?stats ?ckpt sc =
  Option.get (robust ?cache ?stats ?ckpt sc)

(* fresh checkpoint context for a (re)started run *)
let ckpt_ctx_of config ~halt_at sc =
  if config.Checkpoint.every < 1 then
    invalid_arg "Dynamic_sched: checkpoint cadence must be >= 1";
  {
    ck_store = Solve_store.open_store config.Checkpoint.dir;
    ck_key = scenario_key sc;
    ck_every = config.Checkpoint.every;
    ck_halt = halt_at;
  }

let run ?cache ?stats ?checkpoint ?halt_at sc strategy =
  (match checkpoint, strategy with
  | Some _, (Static | Reactive | Oracle) ->
    invalid_arg "Dynamic_sched.run: ?checkpoint requires the Robust strategy"
  | _ -> ());
  (match halt_at, checkpoint with
  | Some _, None ->
    invalid_arg "Dynamic_sched.run: ?halt_at requires ?checkpoint"
  | _ -> ());
  match strategy with
  | Robust ->
    validate_scenario ~allow_outages:true sc;
    (* the halt hook fires at a boundary callback, and a run has
       boundaries 0 .. phases-1; epoch 0 precedes every checkpoint *)
    (match halt_at with
    | Some h when h < 1 || h >= sc.phases ->
      invalid_arg
        (Printf.sprintf "Dynamic_sched: halt epoch %d outside 1..%d" h
           (sc.phases - 1))
    | _ -> ());
    let ckpt = Option.map (fun c -> ckpt_ctx_of c ~halt_at sc) checkpoint in
    run_robust ?cache ?stats ?ckpt sc
  | Static ->
    (* outages are execution-time events the static plan never consults:
       the strategy runs (and suffers) fault scenarios as the baseline *)
    validate_scenario ~allow_outages:true sc;
    run_classic ?cache ?stats sc strategy
  | Reactive | Oracle ->
    (* these plan by dividing weights by observed/true multipliers, so a
       zero multiplier has no meaningful scaled platform *)
    validate_scenario sc;
    run_classic ?cache ?stats sc strategy

let outcomes_equal a b =
  a.strategy = b.strategy
  && R.equal a.completed b.completed
  && List.length a.per_phase = List.length b.per_phase
  && List.for_all2 R.equal a.per_phase b.per_phase
  && a.losses = b.losses

let resume ?(strict = false) ~checkpoint sc =
  validate_scenario ~allow_outages:true sc;
  let ctx = ckpt_ctx_of checkpoint ~halt_at:None sc in
  let store = ctx.ck_store and key = ctx.ck_key in
  (* a missing, corrupt, version-skewed or inconsistent record never
     raises and never reaches the simulator: it is quarantined
     (preserved for inspection, out of the live path) and the run
     cold-starts *)
  let resumed =
    match Solve_store.find store key with
    | None -> None
    | Some raw -> (
      match
        Option.bind (decode_ckpt sc raw) (fun pt ->
            Option.map
              (fun o -> (o, pt.epoch))
              (robust ~ckpt:ctx ~from:pt sc))
      with
      | Some _ as r -> r
      | None ->
        Solve_store.quarantine store key;
        None)
  in
  let outcome, resumed_from =
    match resumed with
    | Some (o, k) -> (o, Some k)
    | None -> (run_robust ~ckpt:ctx sc, None)
  in
  if strict then begin
    (* certification: an uninterrupted run (no LP memo, no checkpoint
       machinery) must reproduce the resumed outcome bit-identically *)
    let fresh = run_robust sc in
    if not (outcomes_equal outcome fresh) then
      failwith
        "Dynamic_sched.resume: strict certification failed (resumed outcome \
         differs from an uninterrupted cold run)"
  end;
  (outcome, resumed_from)

let fault_throughput_bound ?cache sc =
  validate_scenario ~allow_outages:true sc;
  let node_cts, edge_cts = compile_scenario sc in
  let total = ref R.zero in
  for k = 0 to sc.phases - 1 do
    let t0 = R.mul (R.of_int k) sc.phase in
    let restr =
      surviving_scaled sc
        ~node_mult:(fun i -> compiled_at node_cts.(i) t0)
        ~edge_mult:(fun e -> compiled_at edge_cts.(e) t0)
    in
    let sub = restr.P.sub in
    if has_compute sub then begin
      match
        Master_slave.try_solve ?cache sub
          ~master:restr.P.sub_of_node.(sc.master)
      with
      | Ok sol -> total := R.add !total (R.mul sc.phase sol.Master_slave.ntask)
      | Error (`Infeasible | `Unbounded) -> ()
    end
    (* a fully degraded epoch (master isolated, no compute) contributes 0 *)
  done;
  !total

(* With every multiplier positive, the surviving platform is the scaled
   one less the nodes the master cannot reach, which compute nothing:
   the same throughput, phase by phase *)
let oracle_throughput_bound ?cache sc =
  validate_scenario sc;
  fault_throughput_bound ?cache sc
