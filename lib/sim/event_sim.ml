(* Exact-time discrete-event engine.

   Key invariants:
   - for every running operation, no speed-trace breakpoint lies strictly
     between [last_update] and the current clock (breakpoints are
     registered as timer events that touch the affected operation), so
     progress integration is always "elapsed * rate" with a constant
     rate;
   - completion events carry a generation number; any reschedule bumps
     the generation, so a stale completion is recognised and discarded
     when it reaches the head of the queue, without moving the clock —
     cancellation reuses the same mechanism to invalidate the in-flight
     completion of a cancelled operation;
   - after every scan of the queued operations, each one waits on a
     busy resource (see [try_start_pending]);
   - an edge transfer occupies exactly the sender's send port and the
     receiver's receive port, hence at most one operation runs per
     rate key (node CPU or edge) at any time;
   - every live (queued or running) operation is in [ops]; completion
     and cancellation both remove it, so [run]'s stranding sweep can
     prove emptiness;
   - state is created on first use: a node's three resources and CPU
     lane the first time a submission (or a trace) names the node, an
     edge's lane likewise, so a simulator costs what its operations
     touch, not the platform's size.  An operation holds its resources
     and lane, so dispatching its events looks nothing up;
   - no queued event hides what it will do: a breakpoint names its
     subject and trace index, and a client timer carries its client's
     tag, so [snapshot] can write the queue down as plain data. *)

module R = Rat

type op_kind = Compute of Platform.node * R.t | Transfer of Platform.edge * R.t

type resource = Cpu of Platform.node | Send of Platform.node | Recv of Platform.node

exception Conflict of string

type trace = (R.t * R.t) list

type subject = Cpu_of of Platform.node | Bw_of of Platform.edge

type outage = {
  out_subject : subject;
  out_multiplier : R.t;
  out_was : R.t;
}

type op_id = int

type cancel_reason = Cancelled | Stranded

type cancelled = {
  c_kind : op_kind;
  c_reason : cancel_reason;
  c_remaining : R.t;
  c_time : R.t;
}

type rate_key = Knode of int | Kedge of int

type op_state = Queued | Running | Finished

(* One unit-capacity resource: a node's CPU, send port or receive
   port. *)
type res = {
  slot : int; (* 3 * node + 0 (cpu), 1 (send) or 2 (recv) *)
  mutable occ : op option;
  mutable busy : R.t; (* closed busy time *)
  mutable since : R.t; (* start of the open busy interval *)
}

(* What one rate key (a node's CPU or an edge) keeps: its speed trace,
   the operation running on it, and what it has finished. *)
and lane = {
  trace : (R.t * R.t) array; (* ascending times; empty when untraced *)
  mutable runner : op option;
  mutable amount : R.t; (* work computed / data transferred *)
  mutable count : int; (* computations finished *)
}

and op = {
  oid : int;
  kind : op_kind;
  res : res list;
  key : rate_key;
  lane : lane;
  base : R.t; (* time per unit at multiplier 1: w_i or c_e *)
  mutable remaining : R.t; (* work units left *)
  mutable last_update : R.t;
  mutable gen : int;
  mutable state : op_state;
  mutable prev : op option; (* neighbours in the pending FIFO *)
  mutable next : op option;
  on_done : (t -> unit) option;
  on_cancel : (t -> cancel_reason -> unit) option;
}

and event =
  | Complete of op * int
  | Timer of int * (t -> unit) (* the client's tag, -1 when untagged *)
  | Breakpoint of subject * lane * int (* index into the lane's trace *)

(* A queued event.  The queue is a binary heap ordered by (time,
   priority, seq): at equal times, completions (priority 0) fire before
   timers (priority 1) — an operation ending at [t] frees its resources
   before anything submitted at [t] needs them — and FIFO order breaks
   remaining ties.  [seq] is unique, so the order is total. *)
and entry = { time : R.t; prio : int; seq : int; ev : event }

(* A node's three resources and its CPU lane, created together. *)
and node_state = { cpu : res; send : res; recv : res; nlane : lane }

and t = {
  p : Platform.t;
  mutable clock : R.t;
  mutable heap : entry array; (* slots [0, size) are the queue *)
  mutable size : int;
  mutable next_seq : int;
  nodes : (int, node_state) Hashtbl.t; (* the nodes used so far *)
  edges : (int, lane) Hashtbl.t; (* the edges used so far *)
  mutable first : op option; (* the pending FIFO, oldest first *)
  mutable last : op option;
  mutable npending : int;
  mutable freed : res list; (* released since the last pending scan *)
  running_by_key : (rate_key, op) Hashtbl.t;
      (* the running ops; [run] strands them in this table's order *)
  ops : (int, op) Hashtbl.t; (* live (queued or running) ops by oid *)
  mutable next_oid : int;
  mutable cancel_log : cancelled list; (* newest first *)
  mutable outage_handlers : (t -> outage -> unit) list; (* newest first *)
}

let resource_name p slot =
  let i = slot / 3 in
  let kind = match slot mod 3 with 0 -> "cpu" | 1 -> "send" | _ -> "recv" in
  Printf.sprintf "%s.%s" (Platform.name p i) kind

let check_trace label tr =
  let rec go prev = function
    | [] -> ()
    | (t, m) :: rest ->
      if R.sign t < 0 then invalid_arg (label ^ ": negative breakpoint time");
      if R.sign m < 0 then invalid_arg (label ^ ": negative multiplier");
      (match prev with
      | Some tp when R.compare t tp <= 0 ->
        invalid_arg (label ^ ": breakpoints not strictly increasing")
      | Some _ | None -> ());
      go (Some t) rest
  in
  go None tr

let check_node fn p i =
  if i < 0 || i >= Platform.num_nodes p then
    invalid_arg ("Event_sim." ^ fn ^ ": node out of range")

let check_edge fn p e =
  if e < 0 || e >= Platform.num_edges p then
    invalid_arg ("Event_sim." ^ fn ^ ": edge out of range")

let new_lane trace = { trace; runner = None; amount = R.zero; count = 0 }

let new_res slot = { slot; occ = None; busy = R.zero; since = R.zero }

let new_node i trace =
  {
    cpu = new_res (3 * i);
    send = new_res ((3 * i) + 1);
    recv = new_res ((3 * i) + 2);
    nlane = new_lane trace;
  }

(* the state of an in-range node or edge, created on first use *)
let node_state t i =
  match Hashtbl.find_opt t.nodes i with
  | Some s -> s
  | None ->
    let s = new_node i [||] in
    Hashtbl.add t.nodes i s;
    s

let edge_lane t e =
  match Hashtbl.find_opt t.edges e with
  | Some l -> l
  | None ->
    let l = new_lane [||] in
    Hashtbl.add t.edges e l;
    l

(* a node's lane for a query, if any submission or trace created it *)
let node_lane fn t i =
  check_node fn t.p i;
  Option.map (fun s -> s.nlane) (Hashtbl.find_opt t.nodes i)

(* The traces passed, the later of two for one subject, in index
   order. *)
let traces label given =
  let by = Hashtbl.create 8 in
  List.iter
    (fun (k, tr) ->
      check_trace (label k) tr;
      Hashtbl.replace by k (Array.of_list tr))
    given;
  Hashtbl.fold (fun k tr acc -> (k, tr) :: acc) by []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let platform t = t.p
let now t = t.clock

(* --- event queue --- *)

(* what an empty heap slot holds, so the heap keeps no dead closure *)
let hole = { time = R.zero; prio = 0; seq = -1; ev = Timer (-1, ignore) }

let before a b =
  let c = R.compare a.time b.time in
  c < 0 || (c = 0 && (a.prio < b.prio || (a.prio = b.prio && a.seq < b.seq)))

let prio_of = function Complete _ -> 0 | Timer _ | Breakpoint _ -> 1

let push_event t time ev =
  let e = { time; prio = prio_of ev; seq = t.next_seq; ev } in
  t.next_seq <- t.next_seq + 1;
  if t.size = Array.length t.heap then begin
    let bigger = Array.make (max 16 (2 * t.size)) hole in
    Array.blit t.heap 0 bigger 0 t.size;
    t.heap <- bigger
  end;
  let h = t.heap in
  let rec up i =
    let parent = (i - 1) / 2 in
    if i > 0 && before e h.(parent) then begin
      h.(i) <- h.(parent);
      up parent
    end
    else h.(i) <- e
  in
  up t.size;
  t.size <- t.size + 1

(* remove and return the earliest entry of a non-empty queue *)
let pop t =
  let h = t.heap in
  let top = h.(0) in
  let n = t.size - 1 in
  let last = h.(n) in
  h.(n) <- hole;
  t.size <- n;
  let rec down i =
    let l = (2 * i) + 1 in
    if l >= n then h.(i) <- last
    else begin
      let c = if l + 1 < n && before h.(l + 1) h.(l) then l + 1 else l in
      if before h.(c) last then begin
        h.(i) <- h.(c);
        down c
      end
      else h.(i) <- last
    end
  in
  if n > 0 then down 0;
  top

(* whether a live entry heads the queue, after discarding the stale
   completions ahead of it *)
let rec live_head t =
  t.size > 0
  &&
  match t.heap.(0).ev with
  | Complete (op, gen) when gen <> op.gen ->
    ignore (pop t);
    live_head t
  | Complete _ | Timer _ | Breakpoint _ -> true

(* --- rates --- *)

let mult_at trace time =
  let n = Array.length trace in
  let rec go j m =
    if j = n then m
    else
      let tb, mb = trace.(j) in
      if R.compare tb time <= 0 then go (j + 1) mb else m
  in
  go 0 R.one

let trace_multiplier tr time = mult_at (Array.of_list tr) time

let multiplier_of t subj =
  let lane =
    match subj with
    | Cpu_of i -> node_lane "multiplier_of" t i
    | Bw_of e ->
      check_edge "multiplier_of" t.p e;
      Hashtbl.find_opt t.edges e
  in
  match lane with None -> R.one | Some l -> mult_at l.trace t.clock

let on_outage t f = t.outage_handlers <- f :: t.outage_handlers

let fire_outage t out =
  List.iter (fun f -> f t out) (List.rev t.outage_handlers)

(* --- operation lifecycle --- *)

let schedule_completion t op =
  op.gen <- op.gen + 1;
  if R.is_zero op.remaining then push_event t t.clock (Complete (op, op.gen))
  else begin
    let mult = mult_at op.lane.trace t.clock in
    if R.sign mult > 0 then begin
      let tc = R.add t.clock (R.div (R.mul op.remaining op.base) mult) in
      push_event t tc (Complete (op, op.gen))
    end
    (* multiplier 0: stalled; the breakpoint timer that restores a
       positive rate will reschedule *)
  end

(* integrate progress since last_update (constant rate on the interval) *)
let touch_op t op =
  let elapsed = R.sub t.clock op.last_update in
  if R.sign elapsed > 0 then begin
    let mult = mult_at op.lane.trace op.last_update in
    if R.sign mult > 0 then begin
      let done_work = R.div (R.mul elapsed mult) op.base in
      op.remaining <- R.sub op.remaining done_work;
      (* exact arithmetic: completion events land exactly on zero *)
      if R.sign op.remaining < 0 then op.remaining <- R.zero
    end
  end;
  op.last_update <- t.clock

let start_op t op =
  List.iter
    (fun r ->
      assert (r.occ = None);
      r.occ <- Some op;
      r.since <- t.clock)
    op.res;
  op.lane.runner <- Some op;
  Hashtbl.replace t.running_by_key op.key op;
  op.state <- Running;
  op.last_update <- t.clock;
  schedule_completion t op

let is_free r = match r.occ with None -> true | Some _ -> false

let resources_free op = List.for_all is_free op.res

(* --- the pending FIFO --- *)

let enqueue t op =
  let cell = Some op in
  op.prev <- t.last;
  (match t.last with None -> t.first <- cell | Some l -> l.next <- cell);
  t.last <- cell;
  t.npending <- t.npending + 1

let dequeue t op =
  (match op.prev with None -> t.first <- op.next | Some p -> p.next <- op.next);
  (match op.next with None -> t.last <- op.prev | Some n -> n.prev <- op.prev);
  op.prev <- None;
  op.next <- None;
  t.npending <- t.npending - 1

(* Start, oldest first, every queued operation whose resources are all
   free.  After a scan each queued operation waits on a busy resource,
   and only [release_slots] frees one; so once every resource freed
   since the last scan is busy again, the rest of the queue is still
   blocked and the scan stops, with the start order of a full scan. *)
let try_start_pending t =
  let rec go = function
    | Some op when List.exists is_free t.freed ->
      let next = op.next in
      if resources_free op then begin
        dequeue t op;
        start_op t op
      end;
      go next
    | Some _ | None -> ()
  in
  go t.first;
  t.freed <- []

let release_slots t op =
  List.iter
    (fun r ->
      r.busy <- R.add r.busy (R.sub t.clock r.since);
      r.occ <- None;
      t.freed <- r :: t.freed)
    op.res;
  op.lane.runner <- None;
  Hashtbl.remove t.running_by_key op.key

let finish_op t op =
  release_slots t op;
  op.state <- Finished;
  Hashtbl.remove t.ops op.oid;
  (match op.kind with
  | Compute (_, w) ->
    op.lane.amount <- R.add op.lane.amount w;
    op.lane.count <- op.lane.count + 1
  | Transfer (_, sz) -> op.lane.amount <- R.add op.lane.amount sz);
  (match op.on_done with None -> () | Some f -> f t);
  try_start_pending t

let do_cancel t op reason =
  match op.state with
  | Finished -> false
  | Queued ->
    op.state <- Finished;
    dequeue t op;
    Hashtbl.remove t.ops op.oid;
    t.cancel_log <-
      { c_kind = op.kind; c_reason = reason; c_remaining = op.remaining;
        c_time = t.clock }
      :: t.cancel_log;
    (match op.on_cancel with None -> () | Some f -> f t reason);
    true
  | Running ->
    (* integrate progress first so [c_remaining] is the true leftover;
       the partial work itself is discarded, not credited *)
    touch_op t op;
    op.state <- Finished;
    op.gen <- op.gen + 1;
    release_slots t op;
    Hashtbl.remove t.ops op.oid;
    t.cancel_log <-
      { c_kind = op.kind; c_reason = reason; c_remaining = op.remaining;
        c_time = t.clock }
      :: t.cancel_log;
    (match op.on_cancel with None -> () | Some f -> f t reason);
    try_start_pending t;
    true

(* --- breakpoint timers: keep the constant-rate invariant --- *)

let touch_lane t lane =
  match lane.runner with
  | None -> ()
  | Some op ->
    touch_op t op;
    schedule_completion t op

(* the [j]-th breakpoint of a lane's trace takes effect *)
let breakpoint t subject lane j =
  touch_lane t lane;
  let mb = snd lane.trace.(j) in
  let prev = if j = 0 then R.one else snd lane.trace.(j - 1) in
  if R.sign prev > 0 <> (R.sign mb > 0) then
    fire_outage t { out_subject = subject; out_multiplier = mb; out_was = prev }

(* one event per positive breakpoint of a lane's trace; [create]
   registers the CPUs', then the edges', each in index order, so the
   events get the sequence numbers (the tie order) a dense engine that
   scans every node and edge gives them *)
let register_breakpoints t subject lane =
  Array.iteri
    (fun j (tb, _) ->
      if R.sign tb > 0 then push_event t tb (Breakpoint (subject, lane, j)))
    lane.trace

(* a simulator at time 0 holding the traced lanes; [register] queues
   their breakpoints *)
let init ~register ~cpu_traces ~bw_traces p =
  let cpu_traces =
    traces (fun i -> Printf.sprintf "cpu trace of %s" (Platform.name p i))
      cpu_traces
  in
  let bw_traces =
    traces (fun e -> Printf.sprintf "bw trace of %s" (Platform.edge_name p e))
      bw_traces
  in
  let t =
    {
      p;
      clock = R.zero;
      heap = [||];
      size = 0;
      next_seq = 0;
      nodes = Hashtbl.create 16;
      edges = Hashtbl.create 16;
      first = None;
      last = None;
      npending = 0;
      freed = [];
      running_by_key = Hashtbl.create 32;
      ops = Hashtbl.create 32;
      next_oid = 0;
      cancel_log = [];
      outage_handlers = [];
    }
  in
  List.iter
    (fun (i, tr) ->
      let s = new_node i tr in
      Hashtbl.add t.nodes i s;
      if register then register_breakpoints t (Cpu_of i) s.nlane)
    cpu_traces;
  List.iter
    (fun (e, tr) ->
      let l = new_lane tr in
      Hashtbl.add t.edges e l;
      if register then register_breakpoints t (Bw_of e) l)
    bw_traces;
  t

let create ?(cpu_traces = []) ?(bw_traces = []) p =
  init ~register:true ~cpu_traces ~bw_traces p

(* --- submission --- *)

(* a queued operation [oid] of this kind, not yet in any table *)
let new_op t oid kind on_done on_cancel =
  let res, key, lane, base, amount =
    match kind with
    | Compute (i, w) ->
      if R.sign w < 0 then invalid_arg "Event_sim.submit: negative work";
      (match Platform.weight t.p i with
      | Ext_rat.Inf ->
        invalid_arg
          (Printf.sprintf "Event_sim.submit: node %s cannot compute"
             (Platform.name t.p i))
      | Ext_rat.Fin w_i ->
        let s = node_state t i in
        ([ s.cpu ], Knode i, s.nlane, w_i, w))
    | Transfer (e, sz) ->
      if R.sign sz < 0 then invalid_arg "Event_sim.submit: negative size";
      let src = Platform.edge_src t.p e and dst = Platform.edge_dst t.p e in
      ( [ (node_state t src).send; (node_state t dst).recv ],
        Kedge e,
        edge_lane t e,
        Platform.edge_cost t.p e,
        sz )
  in
  {
    oid;
    kind;
    res;
    key;
    lane;
    base;
    remaining = amount;
    last_update = t.clock;
    gen = 0;
    state = Queued;
    prev = None;
    next = None;
    on_done;
    on_cancel;
  }

let submit_op ?(strict = false) ?on_done ?on_cancel t kind =
  let op = new_op t t.next_oid kind on_done on_cancel in
  t.next_oid <- t.next_oid + 1;
  if resources_free op then begin
    Hashtbl.replace t.ops op.oid op;
    start_op t op
  end
  else if strict then begin
    let blocked =
      List.filter (fun r -> not (is_free r)) op.res
      |> List.map (fun r -> resource_name t.p r.slot)
      |> String.concat ", "
    in
    raise
      (Conflict
         (Printf.sprintf "at t=%s: resource(s) %s busy" (R.to_string t.clock)
            blocked))
  end
  else begin
    Hashtbl.replace t.ops op.oid op;
    enqueue t op
  end;
  op.oid

let submit ?strict ?on_done t kind =
  ignore (submit_op ?strict ?on_done t kind)

let cancel t id =
  match Hashtbl.find_opt t.ops id with
  | None -> false
  | Some op -> do_cancel t op Cancelled

let at ?tag t time f =
  if R.compare time t.clock < 0 then
    invalid_arg "Event_sim.at: time in the past";
  let tag =
    match tag with
    | None -> -1
    | Some k when k < 0 -> invalid_arg "Event_sim.at: negative tag"
    | Some k -> k
  in
  push_event t time (Timer (tag, f))

(* --- main loop --- *)

let dispatch t ev =
  match ev with
  | Timer (_, f) -> f t
  | Breakpoint (subject, lane, j) -> breakpoint t subject lane j
  | Complete (op, _) ->
    (* [live_head] discarded the stale completions *)
    touch_op t op;
    assert (R.is_zero op.remaining);
    finish_op t op

let run_until t limit =
  let continue = ref true in
  while !continue do
    if live_head t && R.compare t.heap.(0).time limit <= 0 then begin
      let e = pop t in
      t.clock <- e.time;
      dispatch t e.ev
    end
    else continue := false
  done;
  if R.compare t.clock limit < 0 then t.clock <- limit

let drain t =
  let continue = ref true in
  while !continue do
    if live_head t then begin
      let e = pop t in
      t.clock <- e.time;
      dispatch t e.ev
    end
    else continue := false
  done

let run t =
  (* Drain the queue, then sweep for provably-stuck work.  With the
     queue empty there is no future breakpoint and no pending
     completion, so every still-running operation sits at multiplier 0
     forever: strand it.  Stranding frees ports, which may start queued
     operations with positive rates — hence the re-drain loop.  Each
     sweep removes at least one live operation, so the loop
     terminates. *)
  let progress = ref true in
  while !progress do
    drain t;
    progress := false;
    match Hashtbl.fold (fun _ op acc -> op :: acc) t.running_by_key [] with
    | op :: _ ->
      ignore (do_cancel t op Stranded);
      progress := true
    | [] ->
      (* every queued operation waits on a busy resource, so with
         nothing running nothing is queued *)
      assert (t.npending = 0)
  done

(* --- measurements: a node or edge no submission used reads zero --- *)

let completed_work t i =
  match node_lane "completed_work" t i with
  | None -> R.zero
  | Some l -> l.amount

let completed_compute_count t i =
  match node_lane "completed_compute_count" t i with
  | None -> 0
  | Some l -> l.count

let computed_nodes t =
  Hashtbl.fold (fun i s acc -> if s.nlane.count > 0 then i :: acc else acc)
    t.nodes []
  |> List.sort Int.compare

let transferred t e =
  check_edge "transferred" t.p e;
  match Hashtbl.find_opt t.edges e with None -> R.zero | Some l -> l.amount

let busy_time t r =
  let i = match r with Cpu i | Send i | Recv i -> i in
  check_node "busy_time" t.p i;
  match Hashtbl.find_opt t.nodes i with
  | None -> R.zero
  | Some s -> (
    let r = match r with Cpu _ -> s.cpu | Send _ -> s.send | Recv _ -> s.recv in
    match r.occ with
    | None -> r.busy
    | Some _ -> R.add r.busy (R.sub t.clock r.since))

let pending_ops t = t.npending

let running_ops t = Hashtbl.length t.running_by_key

let cancelled_ops t = List.rev t.cancel_log

(* --- snapshots --- *)

type running = {
  r_id : op_id;
  r_kind : op_kind;
  r_remaining : R.t;
  r_updated : R.t;
}

type queued = { q_id : op_id; q_kind : op_kind }

type port = { busy_closed : R.t; busy_since : R.t }

type node_snapshot = {
  n_node : Platform.node;
  n_cpu : port;
  n_send : port;
  n_recv : port;
  n_work : R.t;
  n_computed : int;
}

type queued_event =
  | Q_complete of op_id
  | Q_breakpoint of subject * int
  | Q_timer of int

type snapshot = {
  s_clock : R.t;
  s_next_id : op_id;
  s_nodes : node_snapshot list;
  s_edges : (Platform.edge * R.t) list;
  s_running : running list;
  s_queued : queued list;
  s_events : (R.t * queued_event) list;
}

let port_of r = { busy_closed = r.busy; busy_since = r.since }

let snapshot t =
  let nodes =
    Hashtbl.fold
      (fun i s acc ->
        { n_node = i; n_cpu = port_of s.cpu; n_send = port_of s.send;
          n_recv = port_of s.recv; n_work = s.nlane.amount;
          n_computed = s.nlane.count }
        :: acc)
      t.nodes []
    |> List.sort (fun a b -> Int.compare a.n_node b.n_node)
  in
  let edges =
    Hashtbl.fold (fun e l acc -> (e, l.amount) :: acc) t.edges []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  let running =
    Hashtbl.fold
      (fun _ op acc ->
        { r_id = op.oid; r_kind = op.kind; r_remaining = op.remaining;
          r_updated = op.last_update }
        :: acc)
      t.running_by_key []
    |> List.sort (fun a b -> Int.compare a.r_id b.r_id)
  in
  let rec fifo acc = function
    | None -> List.rev acc
    | Some op -> fifo ({ q_id = op.oid; q_kind = op.kind } :: acc) op.next
  in
  let order a b = if before a b then -1 else if before b a then 1 else 0 in
  let events =
    Array.sub t.heap 0 t.size |> Array.to_list
    |> List.filter (fun e ->
           match e.ev with
           | Complete (op, gen) -> gen = op.gen && op.state = Running
           | Timer _ | Breakpoint _ -> true)
    |> List.sort order
    |> List.map (fun e ->
           ( e.time,
             match e.ev with
             | Complete (op, _) -> Q_complete op.oid
             | Breakpoint (subject, _, j) -> Q_breakpoint (subject, j)
             | Timer (tag, _) ->
               if tag < 0 then
                 invalid_arg "Event_sim.snapshot: a queued timer has no tag";
               Q_timer tag ))
  in
  { s_clock = t.clock; s_next_id = t.next_oid; s_nodes = nodes;
    s_edges = edges; s_running = running; s_queued = fifo [] t.first;
    s_events = events }

exception Inconsistent of string

(* Every check that [restore] makes raises [Inconsistent]: a snapshot
   that passes them all continues without tripping an invariant. *)
let restore ?(cpu_traces = []) ?(bw_traces = []) p s ~callbacks ~timer =
  let t = init ~register:false ~cpu_traces ~bw_traces p in
  let bad what = raise (Inconsistent what) in
  let check ok what = if not ok then bad what in
  let exact x = R.sign x >= 0 && R.compare x s.s_clock <= 0 in
  let rec ascending key = function
    | a :: (b :: _ as rest) -> key a < key b && ascending key rest
    | [ _ ] | [] -> true
  in
  try
    check (R.sign s.s_clock >= 0) "negative clock";
    t.clock <- s.s_clock;
    check (s.s_next_id >= 0) "negative operation count";
    t.next_oid <- s.s_next_id;
    check (ascending (fun n -> n.n_node) s.s_nodes) "nodes out of order";
    List.iter
      (fun n ->
        let i = n.n_node in
        check (i >= 0 && i < Platform.num_nodes p) "node off the platform";
        let st = node_state t i in
        let port r q =
          check
            (R.sign q.busy_closed >= 0 && exact q.busy_since)
            "busy time out of range";
          r.busy <- q.busy_closed;
          r.since <- q.busy_since
        in
        port st.cpu n.n_cpu;
        port st.send n.n_send;
        port st.recv n.n_recv;
        check (R.sign n.n_work >= 0 && n.n_computed >= 0) "negative work";
        st.nlane.amount <- n.n_work;
        st.nlane.count <- n.n_computed)
      s.s_nodes;
    check (ascending fst s.s_edges) "edges out of order";
    List.iter
      (fun (e, amount) ->
        check (e >= 0 && e < Platform.num_edges p) "edge off the platform";
        check (R.sign amount >= 0) "negative transferred amount";
        (edge_lane t e).amount <- amount)
      s.s_edges;
    (* an operation of the snapshot, on state the snapshot lists *)
    let make id kind =
      check (id >= 0 && id < s.s_next_id) "operation id out of range";
      check (not (Hashtbl.mem t.ops id)) "operation listed twice";
      let listed i =
        check
          (i >= 0 && i < Platform.num_nodes p && Hashtbl.mem t.nodes i)
          "operation on an unlisted node"
      in
      (match kind with
      | Compute (i, _) -> listed i
      | Transfer (e, _) ->
        check
          (e >= 0 && e < Platform.num_edges p && Hashtbl.mem t.edges e)
          "operation on an unlisted edge";
        listed (Platform.edge_src p e);
        listed (Platform.edge_dst p e));
      let on_done, on_cancel = callbacks id kind in
      let op =
        try new_op t id kind on_done on_cancel
        with Invalid_argument m -> bad m
      in
      Hashtbl.replace t.ops id op;
      op
    in
    check
      (ascending (fun r -> r.r_id) s.s_running)
      "running operations out of order";
    List.iter
      (fun r ->
        let op = make r.r_id r.r_kind in
        check
          (R.sign r.r_remaining >= 0
          && R.compare r.r_remaining op.remaining <= 0
          && exact r.r_updated)
          "running progress out of range";
        op.remaining <- r.r_remaining;
        op.last_update <- r.r_updated;
        op.state <- Running;
        List.iter
          (fun res ->
            check (is_free res) "two running operations on one port";
            res.occ <- Some op)
          op.res;
        check (op.lane.runner = None) "two running operations on one lane";
        op.lane.runner <- Some op;
        Hashtbl.replace t.running_by_key op.key op)
      s.s_running;
    List.iter (fun q -> enqueue t (make q.q_id q.q_kind)) s.s_queued;
    (* the pending scan's invariant: each queued operation waits *)
    let rec waiting = function
      | None -> ()
      | Some op ->
        check (not (resources_free op)) "a queued operation could start";
        waiting op.next
    in
    waiting t.first;
    (* the queue, in its order: each entry at or after the clock and
       where the engine would have put it *)
    (* the breakpoints queued, as (lane, index) *)
    let queued_bp = ref [] in
    let is_queued lane j =
      List.exists (fun (l, k) -> l == lane && k = j) !queued_bp
    in
    let lane_of = function
      | Cpu_of i -> Option.map (fun s -> s.nlane) (Hashtbl.find_opt t.nodes i)
      | Bw_of e -> Hashtbl.find_opt t.edges e
    in
    let last = ref None in
    List.iter
      (fun (time, qe) ->
        check (R.compare time s.s_clock >= 0) "event before the clock";
        let ev =
          match qe with
          | Q_complete id ->
            let op =
              match Hashtbl.find_opt t.ops id with
              | Some op when op.state = Running && op.gen = 0 -> op
              | Some _ | None -> bad "completion of no running operation"
            in
            let mult = mult_at op.lane.trace op.last_update in
            check (R.sign mult > 0) "completion of a stalled operation";
            check
              (R.equal time
                 (R.add op.last_update
                    (R.div (R.mul op.remaining op.base) mult)))
              "completion at the wrong time";
            op.gen <- 1;
            Complete (op, 1)
          | Q_breakpoint (subject, j) ->
            let lane =
              match lane_of subject with
              | Some l
                when j >= 0 && j < Array.length l.trace
                     && R.sign (fst l.trace.(j)) > 0 ->
                l
              | Some _ | None -> bad "breakpoint off its trace"
            in
            check (R.equal time (fst lane.trace.(j))) "breakpoint at the wrong time";
            check (not (is_queued lane j)) "breakpoint twice";
            queued_bp := (lane, j) :: !queued_bp;
            Breakpoint (subject, lane, j)
          | Q_timer tag ->
            check (tag >= 0) "negative timer tag";
            Timer (tag, timer tag)
        in
        let e = { time; prio = prio_of ev; seq = t.next_seq; ev } in
        (match !last with
        | Some l -> check (before l e) "events out of order"
        | None -> ());
        last := Some e;
        push_event t time ev)
      s.s_events;
    (* every breakpoint after the clock is queued, and no running
       operation has crossed one since its progress was integrated *)
    let traced lane =
      let from =
        match lane.runner with Some op -> op.last_update | None -> s.s_clock
      in
      Array.iteri
        (fun j (tb, _) ->
          let c = R.compare tb s.s_clock in
          let queued = is_queued lane j in
          check (c <= 0 || queued) "a breakpoint is missing";
          check
            (R.compare tb from <= 0 || queued)
            "a running operation skipped a breakpoint")
        lane.trace
    in
    Hashtbl.iter (fun _ ns -> traced ns.nlane) t.nodes;
    Hashtbl.iter (fun _ l -> traced l) t.edges;
    Hashtbl.iter
      (fun _ op ->
        check
          (op.gen = 1 || R.sign (mult_at op.lane.trace op.last_update) = 0)
          "a running operation has no completion")
      t.running_by_key;
    Ok t
  with Inconsistent what -> Error what
