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
  let scaled =
    scaled_platform sc
      (fun i -> if dead_cpu i then R.one else node_mult i)
      (fun e -> if dead_bw e then R.one else edge_mult e)
  in
  P.restrict scaled
    ~keep_node:(fun i -> reachable.(i))
    ~keep_edge:(fun e -> not (dead_bw e))
    ~weights:(fun i ->
      if dead_cpu i then Ext_rat.Inf else P.weight scaled i)

let surviving_platform sc ~at =
  validate_scenario ~allow_outages:true sc;
  let node_cts, edge_cts = compile_scenario sc in
  surviving_scaled sc
    ~node_mult:(fun i -> compiled_at node_cts.(i) at)
    ~edge_mult:(fun e -> compiled_at edge_cts.(e) at)

let has_compute sub =
  List.exists
    (fun i ->
      match P.weight sub i with Ext_rat.Inf -> false | Ext_rat.Fin _ -> true)
    (P.nodes sub)

(* the simulator a run executes on, fed the normalised traces *)
let simulator_of sc =
  Event_sim.create
    ~cpu_traces:(List.map (fun (i, tr) -> (i, normalize_trace tr)) sc.cpu_traces)
    ~bw_traces:(List.map (fun (e, tr) -> (e, normalize_trace tr)) sc.bw_traces)
    sc.platform

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
  (* one forecaster per node and per edge (reactive strategy) *)
  let node_fc = Array.init (P.num_nodes p) (fun _ -> Forecast.create ()) in
  let edge_fc = Array.init (P.num_edges p) (fun _ -> Forecast.create ()) in
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
      List.iter
        (fun i -> Forecast.observe node_fc.(i) (compiled_at node_cts.(i) time))
        (P.nodes p);
      List.iter
        (fun e -> Forecast.observe edge_fc.(e) (compiled_at edge_cts.(e) time))
        (P.edges p);
      plan_scaled
        (fun i -> Forecast.predict node_fc.(i))
        (fun e -> Forecast.predict edge_fc.(e))
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
   everything needed to continue the run bit-identically after a crash:
   the per-epoch *decision log* (what each boundary's planner decided,
   in original platform indices), then the encoding of the executor's
   boundary-start state (arrears, backlog, deficits, loss counters,
   failure flags, work marks — all exact).  [resume] decodes the log,
   replays it through a fresh simulator — deterministic event replay,
   no LP solves — checks at the checkpointed boundary that the rebuilt
   state encodes to the stored bytes, and continues live from there.
   The state has that one encoding, written and compared, never
   parsed.  Plans of the live suffix coincide with the uninterrupted
   run's because every plan is cold (the tree sweep, or a cold LP
   solve): each epoch's plan is a function of that epoch's platform
   alone, so no solver state needs restoring and the resumed run needs
   no LP memo: it runs without one.  A missing, truncated, corrupt,
   version-skewed or mismatching checkpoint is quarantined and degrades
   to a cold full run — recovery can cost time, never answers. *)

module Checkpoint = struct
  type config = { dir : string; every : int }

  exception Halted of int
end

(* one boundary's planning decision, in original platform indices *)
type decision =
  | D_degraded
  | D_plan of (P.edge list * int) list * int
      (* per-path unit-file counts, raw master floor (pre-adjustment) *)

(* version 2 dropped the warm LP basis block version 1 ended with;
   version 3 drops the reuse flag and the timed-out counter; version 4
   has version 3's layout, but its decision log comes from the integral
   tree planner, so a version 3 prefix (planned on the LP kernel's
   vertex) is quarantined rather than resumed into a mix of both *)
let ckpt_format = "steady-ckpt 4"

let add_int b i =
  Buffer.add_string b (string_of_int i);
  Buffer.add_char b '\n'

let add_batch b bt =
  add_int b (List.length bt);
  List.iter
    (fun (path, cnt) ->
      add_int b cnt;
      add_int b (List.length path);
      List.iter (add_int b) path)
    bt

(* A record is the format line, the boundary [epoch] it was taken at,
   the decision log of the boundaries before it (oldest first), then
   [state]: the executor's own encoding of its state at the start of
   that boundary's callback, which [decode_ckpt] leaves opaque *)
let encode_ckpt ~epoch ~log ~state =
  let b = Buffer.create 1024 in
  Buffer.add_string b ckpt_format;
  Buffer.add_char b '\n';
  add_int b epoch;
  add_int b (List.length log);
  List.iter
    (function
      | D_degraded -> Buffer.add_string b "D\n"
      | D_plan (paths, mt) ->
        Buffer.add_string b "P\n";
        add_int b mt;
        add_batch b paths)
    log;
  Buffer.add_string b state;
  Buffer.contents b

(* Strict structural decoder of a record's decision log: any deviation —
   bad magic, counts out of range, indices off the platform — yields
   [None], and the caller quarantines the record and cold-starts.  This
   must never raise.  [max_tasks] bounds every logged task count: the
   replay submits tasks one by one, so a forged count would otherwise
   make it run for as long as the count says.  The bytes after the log
   come back as they are: the replay checks them against the state it
   rebuilds. *)
let decode_ckpt ~edges ~phases ~max_tasks raw =
  let len = String.length raw in
  let pos = ref 0 in
  let fail () = raise Exit in
  let line () =
    if !pos >= len then fail ();
    match String.index_from_opt raw !pos '\n' with
    | None -> fail ()
    | Some j ->
      let s = String.sub raw !pos (j - !pos) in
      pos := j + 1;
      s
  in
  let int () =
    match int_of_string_opt (line ()) with Some i -> i | None -> fail ()
  in
  let nonneg () =
    let i = int () in
    if i < 0 then fail ();
    i
  in
  (* explicit in-order loop: the order of the stateful reads matters *)
  let list n f =
    if n < 0 || n > 1_000_000 then fail ();
    let rec go n acc = if n = 0 then List.rev acc else go (n - 1) (f () :: acc) in
    go n []
  in
  let tasks () =
    let i = nonneg () in
    if i > max_tasks then fail ();
    i
  in
  let path_entry () =
    let cnt = tasks () in
    let plen = int () in
    if plen < 1 || plen > edges then fail ();
    let path =
      list plen (fun () ->
          let e = int () in
          if e < 0 || e >= edges then fail ();
          e)
    in
    (path, cnt)
  in
  let batch () = list (int ()) path_entry in
  try
    if not (String.equal (line ()) ckpt_format) then fail ();
    let epoch = int () in
    if epoch < 1 || epoch >= phases then fail ();
    let nlog = int () in
    if nlog <> epoch then fail ();
    let log =
      list nlog (fun () ->
          match line () with
          | "D" -> D_degraded
          | "P" ->
            let mt = tasks () in
            let paths = batch () in
            D_plan (paths, mt)
          | _ -> fail ())
    in
    Some (Array.of_list log, String.sub raw !pos (len - !pos))
  with Exit | Failure _ | Invalid_argument _ -> None

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

(* internal checkpoint context threaded through [run_robust] *)
type ckpt_ctx = {
  ck_store : Solve_store.t;
  ck_key : string;
  ck_every : int;
  ck_halt : int option; (* test hook: crash at this boundary *)
  ck_replay : (decision array * string) option;
      (* decision log and the encoded state at its end *)
}

exception Resume_mismatch

let run_robust ?cache ?stats ?ckpt sc =
  let p = sc.platform in
  let n = P.num_nodes p and m = P.num_edges p in
  let node_cts, edge_cts = compile_scenario sc in
  let sim = simulator_of sc in
  (* Failure state.  Zero-crossing breakpoints fire simulator outage
     events, and breakpoint timers sort before the phase-boundary timers
     registered below, so at every boundary these arrays are current.
     Traces that start dead fire no event — hence the initialisation. *)
  let dead_cpu =
    Array.init n (fun i -> R.is_zero (compiled_at node_cts.(i) R.zero))
  in
  let dead_bw =
    Array.init m (fun e -> R.is_zero (compiled_at edge_cts.(e) R.zero))
  in
  Event_sim.on_outage sim (fun _ out ->
      match out.Event_sim.out_subject with
      | Event_sim.Cpu_of i ->
        dead_cpu.(i) <- R.is_zero out.Event_sim.out_multiplier
      | Event_sim.Bw_of e ->
        dead_bw.(e) <- R.is_zero out.Event_sim.out_multiplier);
  let node_fc = Array.init n (fun _ -> Forecast.create ()) in
  let edge_fc = Array.init m (fun _ -> Forecast.create ()) in
  (* in-flight task files (op id -> remaining path starting at the hop
     currently on the wire, attempt count) and the retry backlog of
     task files waiting for a surviving route *)
  let live = Hashtbl.create 32 in
  let backlog = ref [] in
  let boundary_cancelled = ref 0 in
  let retries = ref 0 and lost = ref 0 and degraded = ref 0 in
  let max_attempts = 4 in
  let horizon = R.mul (R.of_int sc.phases) sc.phase in
  (* a route is now a whole master-rooted path; it is usable for a
     (re)send when every link is alive and the terminal CPU computes *)
  let path_links_alive path = List.for_all (fun e -> not dead_bw.(e)) path in
  let path_dst path =
    match List.rev path with
    | e :: _ -> P.edge_dst p e
    | [] -> invalid_arg "Dynamic_sched: empty path"
  in
  (* routes of the current phase's plan, consulted by mid-phase backoff
     retries; the cursor keeps re-routing round-robin across them *)
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
    incr retries;
    match stats with Some s -> Lp.Stats.add_retry s ~backoff | None -> ()
  in
  let backoff_base = R.div sc.phase (R.of_int 4) in
  (* Store-and-forward delivery along a path: each hop is its own
     tracked operation, submitted when the previous hop lands; the
     terminal arrival enables one unit of computation.  A cancellation
     anywhere along the path abandons the partial progress and resends
     the whole file from the master on a route picked at retry time —
     the copy parked at the intermediate node is simply dropped (task
     files are replicable data, never unique state). *)
  let rec submit_path sim path attempts =
    match path with
    | [] -> ()
    | e :: rest ->
      let idr = ref None in
      (* callbacks only fire from the event loop, after [idr] is set *)
      let unregister () =
        match !idr with None -> () | Some id -> Hashtbl.remove live id
      in
      (* No per-op timeout: cancelling a transfer discards its partial
         progress, and a transfer that is merely slow (or deeply queued
         behind the static supply floor) will finish — recycling it is
         the one way a "robust" executor falls behind the static one,
         which never cancels anything.  Genuine stalls are multiplier-0
         links, and those the boundary sweep detects and cancels
         eagerly through the outage events. *)
      let id =
        Event_sim.submit_op sim
          (Event_sim.Transfer (e, R.one))
          ~on_done:(fun sim ->
            unregister ();
            match rest with
            | [] ->
              Event_sim.submit sim (Event_sim.Compute (P.edge_dst p e, R.one))
            | _ -> submit_path sim rest attempts)
          ~on_cancel:(fun sim _ ->
            unregister ();
            incr boundary_cancelled;
            (* retry with exponential backoff and a per-transfer deadline:
               attempt [a] waits [phase/4 * 2^(a-1)] before resubmitting on
               a route alive at fire time (no such route: the task file
               waits in the backlog for the next boundary).  A retry whose
               backoff lands at or past the horizon is abandoned — it could
               never deliver in time anyway.  Every cancellation thus ends
               in exactly one of {retry, lost, backlog}, which is the
               accounting identity [cancelled = retries + lost_tasks]
               the chaos harness asserts. *)
            let attempts = attempts + 1 in
            if attempts >= max_attempts then incr lost
            else
              let delay =
                R.mul backoff_base (R.of_int (1 lsl (attempts - 1)))
              in
              let due = R.add (Event_sim.now sim) delay in
              if R.compare due horizon >= 0 then incr lost
              else
                Event_sim.at sim due (fun sim ->
                    match pick_route () with
                    | Some path' ->
                      note_retry delay;
                      submit_path sim path' attempts
                    | None -> backlog := attempts :: !backlog))
      in
      idr := Some id;
      Hashtbl.replace live id (e :: rest, attempts)
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
     submissions merely queue. *)
  let static_transfers, static_master =
    plan_exn ?cache ?stats p ~master:sc.master sc.phase
  in
  (* Static-floor supply owed on routes that were dead when the floor
     would have submitted.  Static keeps queueing through an outage and
     its queued transfers flow the moment the link recovers, so flooring
     only the currently-alive routes loses exactly the recovery
     scenarios (patience beats re-planning there).  The arrears are kept
     as per-boundary batches and replayed oldest-first (round-robin
     within each batch) the moment their links are back — which is the
     submission order of Static's own backed-up queue, so the catch-up
     traffic crosses the one-port bottleneck in the same order Static's
     would, restoring [Robust >= Static] under churn with recovery. *)
  let arrears = ref [] in
  let master_deficit = ref 0 in
  (* No state crosses epochs under churn.  Every epoch is planned from
     its surviving subplatform alone (off a tree, by a cold LP solve and
     everything after it), so no epoch holds solver state a checkpoint
     would have to store.  The only memo is the caller's [?cache]: an
     identical multiplier snapshot builds an identical restriction,
     hence an identical LP, which hits it. *)
  let node_mults = Array.make n R.one in
  let edge_mults = Array.make m R.one in
  let marks = ref [] in
  (* ---- checkpoint plumbing ----
     [replay] is the decision prefix of a resumed run: boundaries
     [0 .. resume_epoch-1] re-execute the logged decisions through the
     simulator (deterministic, no LP work), boundary [resume_epoch]
     checks that the rebuilt state encodes to the stored bytes, and
     everything from there runs live.  A fresh run has
     [resume_epoch = 0] and every boundary is live. *)
  let replay = Option.bind ckpt (fun c -> c.ck_replay) in
  let resume_epoch =
    match replay with Some (log, _) -> Array.length log | None -> 0
  in
  let dlog = ref [] in
  (* newest first; length = boundaries processed so far *)
  (* executor state at the *start* of a boundary callback (before the
     marks push and the cancel sweep) — everything a replay must
     reproduce exactly, all of it exact *)
  let encode_state () =
    let b = Buffer.create 256 in
    let bits a =
      Buffer.add_string b
        (String.init (Array.length a) (fun i -> if a.(i) then '1' else '0'));
      Buffer.add_char b '\n'
    in
    List.iter (add_int b)
      [ !master_deficit; !boundary_cancelled; !retries; !lost; !degraded;
        List.length !backlog ];
    List.iter (add_int b) !backlog;
    add_int b (List.length !arrears);
    List.iter (add_batch b) !arrears;
    bits dead_cpu;
    bits dead_bw;
    (* newest first, as maintained by the run *)
    add_int b (List.length !marks);
    List.iter
      (fun mk ->
        Buffer.add_string b (R.to_string mk);
        Buffer.add_char b '\n')
      !marks;
    Buffer.contents b
  in
  let write_ckpt k =
    match ckpt with
    | Some c when k > 0 && k mod c.ck_every = 0 ->
      Solve_store.add c.ck_store c.ck_key
        (encode_ckpt ~epoch:k ~log:(List.rev !dlog) ~state:(encode_state ()))
    | _ -> ()
  in
  let halt_check k =
    match ckpt with
    | Some { ck_halt = Some h; _ } when h = k -> raise (Checkpoint.Halted k)
    | _ -> ()
  in
  for k = 0 to sc.phases - 1 do
    let t0 = R.mul (R.of_int k) sc.phase in
    Event_sim.at sim t0 (fun sim ->
        (* resume point: the stored state was encoded exactly here, at
           the start of this boundary's callback *)
        (match replay with
        | Some (_, state) when k = resume_epoch ->
          if not (String.equal (encode_state ()) state) then
            raise Resume_mismatch
        | _ -> ());
        if k >= resume_epoch then begin
          (* the record due at [resume_epoch] is the one just decoded:
             committing it again would rewrite the same bytes *)
          if k > resume_epoch then write_ckpt k;
          halt_check k
        end;
        marks := Schedule.completed sim :: !marks;
        (* detection-driven cancellation: a task file whose current hop
           sits on a link now known dead is going nowhere — free the
           one-port slots it holds (or its queue position) and re-queue
           the task file *)
        Hashtbl.fold
          (fun id (path, _) acc ->
            match path with
            | e :: _ when dead_bw.(e) -> id :: acc
            | _ -> acc)
          live []
        |> List.iter (fun id -> ignore (Event_sim.cancel sim id));
        (* observations of resources that are actually alive feed the
           forecasters during replay and live planning alike — the first
           live epoch's predictions depend on the whole history *)
        List.iter
          (fun i ->
            if not dead_cpu.(i) then
              Forecast.observe node_fc.(i) (compiled_at node_cts.(i) t0))
          (P.nodes p);
        List.iter
          (fun e ->
            if not dead_bw.(e) then
              Forecast.observe edge_fc.(e) (compiled_at edge_cts.(e) t0))
          (P.edges p);
        (* route arrears accrue per branch below (a dead destination CPU
           does NOT block the floor — delivering to a reachable node
           whose CPU is down pre-positions the task files, which compute
           queues and runs at recovery, exactly what Static does through
           the then-idle port); the master's own floor only stalls on a
           dead master CPU *)
        if dead_cpu.(sc.master) then
          master_deficit := !master_deficit + static_master;
        let decision =
          match replay with
          | Some (log, _) when k < resume_epoch -> log.(k)
          | _ ->
            (* live planning: plan on the surviving subplatform, scaled
               by the forecasts *)
            for i = 0 to n - 1 do
              node_mults.(i) <-
                (if dead_cpu.(i) then R.zero else Forecast.predict node_fc.(i))
            done;
            for e = 0 to m - 1 do
              edge_mults.(e) <-
                (if dead_bw.(e) then R.zero else Forecast.predict edge_fc.(e))
            done;
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
            (match plan with
            | None -> D_degraded
            | Some (transfers, master_tasks_raw) ->
              (* plan indices live on the restriction; record (and
                 execute) in original platform indices *)
              let transfers =
                List.map
                  (fun (path, cnt) ->
                    (List.map (fun se -> restr.P.edge_of_sub.(se)) path, cnt))
                  transfers
              in
              D_plan (transfers, master_tasks_raw))
        in
        dlog := decision :: !dlog;
        match decision with
        | D_degraded ->
          (* graceful degradation: no surviving compute power (e.g. the
             master is isolated) — nothing submitted, nothing raised;
             backlogged task files wait for the next boundary.  The whole
             static batch goes into arrears: even its link-alive routes
             got no floor this boundary. *)
          if static_transfers <> [] then
            arrears := !arrears @ [ static_transfers ];
          routes := [||];
          route_rr := 0;
          incr degraded
        | D_plan (transfers, master_tasks_raw) ->
          (* apply the static supply floor on every route whose links
             all still deliver (dead destination CPUs queue the work).
             Supply is layered to mirror Static's own port queue:
             payable arrears batches (oldest first), then this
             boundary's floor batch, then the plan's extras — so the
             opportunistic extras never displace through the one-port
             queue the deliveries Static would have made. *)
          let static_alive =
            List.filter
              (fun (path, _) -> path_links_alive path)
              static_transfers
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
                  List.partition
                    (fun (path, _) -> path_links_alive path)
                    batch
                in
                ( (if alive <> [] then alive :: pay else pay),
                  if still_dead <> [] then still_dead :: keep else keep ))
              ([], []) !arrears
          in
          let payable = List.rev payable in
          arrears :=
            List.rev retained @ (if owed <> [] then [ owed ] else []);
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
              let t = max master_tasks_raw static_master + !master_deficit in
              master_deficit := 0;
              t
            end
          in
          let retry_items = !backlog in
          backlog := [];
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
          (* each batch is submitted round-robin across its routes —
             the same interleaving Static's own per-phase loop uses *)
          let submit_batch = round_robin (fun path -> submit_path sim path 0) in
          List.iter submit_batch payable;
          submit_batch static_alive;
          submit_batch extras;
          (* re-route the backlog round-robin over this phase's routes;
             with no route it waits for the next boundary *)
          let nroutes = Array.length !routes in
          if nroutes = 0 then backlog := retry_items
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
          done)
  done;
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
  {
    strategy = Robust;
    completed;
    per_phase = per_phase_of !marks completed;
    losses =
      {
        timed_out_transfers = 0;
        cancelled_transfers = !boundary_cancelled;
        retries = !retries;
        lost_tasks = !lost + List.length !backlog;
        degraded_phases = !degraded;
        dead_nodes = !dead_nodes;
        dead_edges = !dead_edges;
      };
  }

(* fresh checkpoint context for a (re)started run *)
let ckpt_ctx_of config ~halt_at sc =
  if config.Checkpoint.every < 1 then
    invalid_arg "Dynamic_sched: checkpoint cadence must be >= 1";
  {
    ck_store = Solve_store.open_store config.Checkpoint.dir;
    ck_key = scenario_key sc;
    ck_every = config.Checkpoint.every;
    ck_halt = halt_at;
    ck_replay = None;
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

(* No genuine plan moves more tasks in a phase than the whole platform
   computes in one at the largest multiplier a CPU trace reaches
   (forecasts stay within the observed range).  A bound that is too
   tight would only cost a cold start, never an answer. *)
let max_phase_tasks sc =
  let top =
    List.fold_left
      (fun acc (_, tr) -> List.fold_left (fun acc (_, x) -> R.max acc x) acc tr)
      R.one sc.cpu_traces
  in
  let rate = R.sum (List.map (P.speed sc.platform) (P.nodes sc.platform)) in
  match Bigint.to_int_opt (R.floor (R.mul sc.phase (R.mul top rate))) with
  | Some k -> k
  | None -> max_int

let resume ?(strict = false) ~checkpoint sc =
  validate_scenario ~allow_outages:true sc;
  let ctx = ckpt_ctx_of checkpoint ~halt_at:None sc in
  let store = ctx.ck_store and key = ctx.ck_key in
  (* a missing, corrupt or version-skewed record never raises and never
     changes an answer: it is quarantined (preserved for inspection, out
     of the live path) and the run cold-starts *)
  let record =
    match Solve_store.find store key with
    | None -> None
    | Some raw -> (
      match
        decode_ckpt ~edges:(P.num_edges sc.platform) ~phases:sc.phases
          ~max_tasks:(max_phase_tasks sc) raw
      with
      | Some _ as r -> r
      | None ->
        Solve_store.quarantine store key;
        None)
  in
  let cold () = (run_robust ~ckpt:ctx sc, None) in
  let outcome, resumed_from =
    match record with
    | None -> cold ()
    | Some ((log, _) as replay) -> (
      match run_robust ~ckpt:{ ctx with ck_replay = Some replay } sc with
      | o -> (o, Some (Array.length log))
      | exception Resume_mismatch ->
        (* the replayed prefix does not encode to the stored state: the
           record lied (a damaged state tail, bit rot that survived the
           structural decode, or a foreign record under a colliding
           key) — demote it and certify the answer by running cold *)
        Solve_store.quarantine store key;
        cold ())
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
