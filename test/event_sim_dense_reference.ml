(* SEED SNAPSHOT — do not edit.  Verbatim copy of the dense engine
   (git show 6d1d936:lib/sim/event_sim.ml), which sized its resource,
   trace and counter tables by the platform's node and edge counts at
   [create].  The library now creates a resource's state the first time
   a submission needs it; the tests run both engines on the same inputs
   and require equal measurements, cancel logs, outage callbacks and
   conflict messages. *)

(* Exact-time discrete-event engine.

   Key invariants:
   - for every running operation, no speed-trace breakpoint lies strictly
     between [last_update] and the current clock (breakpoints are
     registered as timer events that touch the affected operation), so
     progress integration is always "elapsed * rate" with a constant
     rate;
   - completion events carry a generation number; any reschedule bumps
     the generation, so stale completions are recognised and dropped —
     cancellation reuses the same mechanism to invalidate the in-flight
     completion of a cancelled operation;
   - an edge transfer occupies exactly the sender's send port and the
     receiver's receive port, hence at most one operation runs per
     rate key (node CPU or edge) at any time;
   - every live (queued or running) operation is in [ops]; completion
     and cancellation both remove it, so [run]'s stranding sweep can
     prove emptiness. *)

module R = Rat

module Emap = Map.Make (struct
  (* (time, priority, seq): at equal times, completions (priority 0)
     fire before timers (priority 1) — an operation ending at [t] frees
     its resources before anything submitted at [t] needs them — and
     FIFO order breaks remaining ties. *)
  type t = R.t * int * int

  let compare (ta, pa, sa) (tb, pb, sb) =
    let c = R.compare ta tb in
    if c <> 0 then c
    else begin
      let c = Stdlib.compare pa pb in
      if c <> 0 then c else Stdlib.compare sa sb
    end
end)

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

type op = {
  oid : int;
  kind : op_kind;
  res : int list; (* resource slot indices *)
  key : rate_key;
  base : R.t; (* time per unit at multiplier 1: w_i or c_e *)
  mutable remaining : R.t; (* work units left *)
  mutable last_update : R.t;
  mutable gen : int;
  mutable state : op_state;
  mutable ev_key : (R.t * int * int) option;
      (* queue key of the op's live completion event, if any — removed
         eagerly on reschedule/cancel so stale completions never drag
         the clock forward *)
  on_done : (t -> unit) option;
  on_cancel : (t -> cancel_reason -> unit) option;
}

and event = Complete of op * int | Timer of (t -> unit)

and t = {
  p : Platform.t;
  mutable clock : R.t;
  mutable queue : event Emap.t; (* keyed by (time, seq): FIFO within a time *)
  mutable next_seq : int;
  occupied : op option array;
  busy : R.t array;
  busy_since : R.t array;
  mutable pending : op list; (* FIFO: oldest first *)
  cpu_trace : (R.t * R.t) array array; (* per node, ascending times *)
  bw_trace : (R.t * R.t) array array; (* per edge *)
  running_by_key : (rate_key, op) Hashtbl.t;
  ops : (int, op) Hashtbl.t; (* live (queued or running) ops by oid *)
  mutable next_oid : int;
  work_done : R.t array;
  compute_count : int array;
  transferred_tot : R.t array;
  mutable cancel_log : cancelled list; (* newest first *)
  mutable outage_handlers : (t -> outage -> unit) list; (* newest first *)
}

(* resource slots: 3 per node *)
let slot_cpu i = 3 * i
let slot_send i = (3 * i) + 1
let slot_recv i = (3 * i) + 2

let slot_of_resource = function
  | Cpu i -> slot_cpu i
  | Send i -> slot_send i
  | Recv i -> slot_recv i

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

let create ?(cpu_traces = []) ?(bw_traces = []) p =
  let n = Platform.num_nodes p and m = Platform.num_edges p in
  let cpu_trace = Array.make n [||] in
  let bw_trace = Array.make m [||] in
  List.iter
    (fun (i, tr) ->
      check_trace (Printf.sprintf "cpu trace of %s" (Platform.name p i)) tr;
      cpu_trace.(i) <- Array.of_list tr)
    cpu_traces;
  List.iter
    (fun (e, tr) ->
      check_trace (Printf.sprintf "bw trace of %s" (Platform.edge_name p e)) tr;
      bw_trace.(e) <- Array.of_list tr)
    bw_traces;
  let t =
    {
      p;
      clock = R.zero;
      queue = Emap.empty;
      next_seq = 0;
      occupied = Array.make (3 * n) None;
      busy = Array.make (3 * n) R.zero;
      busy_since = Array.make (3 * n) R.zero;
      pending = [];
      cpu_trace;
      bw_trace;
      running_by_key = Hashtbl.create 32;
      ops = Hashtbl.create 32;
      next_oid = 0;
      work_done = Array.make n R.zero;
      compute_count = Array.make n 0;
      transferred_tot = Array.make m R.zero;
      cancel_log = [];
      outage_handlers = [];
    }
  in
  t

let platform t = t.p
let now t = t.clock

(* --- event queue --- *)

let push_event t time ev =
  let prio = match ev with Complete _ -> 0 | Timer _ -> 1 in
  t.queue <- Emap.add (time, prio, t.next_seq) ev t.queue;
  t.next_seq <- t.next_seq + 1

let push_completion t time op =
  let key = (time, 0, t.next_seq) in
  t.queue <- Emap.add key (Complete (op, op.gen)) t.queue;
  t.next_seq <- t.next_seq + 1;
  op.ev_key <- Some key

let drop_completion t op =
  match op.ev_key with
  | None -> ()
  | Some key ->
    t.queue <- Emap.remove key t.queue;
    op.ev_key <- None

(* --- rates --- *)

let trace_of_key t = function
  | Knode i -> t.cpu_trace.(i)
  | Kedge e -> t.bw_trace.(e)

let mult_at trace time =
  let m = ref R.one in
  (try
     Array.iter
       (fun (tb, mb) ->
         if R.compare tb time <= 0 then m := mb else raise Exit)
       trace
   with Exit -> ());
  !m

let trace_multiplier tr time = mult_at (Array.of_list tr) time

let trace_of_subject t = function
  | Cpu_of i -> t.cpu_trace.(i)
  | Bw_of e -> t.bw_trace.(e)

let multiplier_of t subj = mult_at (trace_of_subject t subj) t.clock

let on_outage t f = t.outage_handlers <- f :: t.outage_handlers

let fire_outage t out =
  List.iter (fun f -> f t out) (List.rev t.outage_handlers)

let rate_key_of_kind = function
  | Compute (i, _) -> Knode i
  | Transfer (e, _) -> Kedge e

(* --- operation lifecycle --- *)

let schedule_completion t op =
  op.gen <- op.gen + 1;
  drop_completion t op;
  if R.is_zero op.remaining then push_completion t t.clock op
  else begin
    let mult = mult_at (trace_of_key t op.key) t.clock in
    if R.sign mult > 0 then begin
      let tc = R.add t.clock (R.div (R.mul op.remaining op.base) mult) in
      push_completion t tc op
    end
    (* multiplier 0: stalled; the breakpoint timer that restores a
       positive rate will reschedule *)
  end

(* integrate progress since last_update (constant rate on the interval) *)
let touch_op t op =
  let elapsed = R.sub t.clock op.last_update in
  if R.sign elapsed > 0 then begin
    let mult = mult_at (trace_of_key t op.key) op.last_update in
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
    (fun s ->
      assert (t.occupied.(s) = None);
      t.occupied.(s) <- Some op;
      t.busy_since.(s) <- t.clock)
    op.res;
  Hashtbl.replace t.running_by_key op.key op;
  op.state <- Running;
  op.last_update <- t.clock;
  schedule_completion t op

let resources_free t op = List.for_all (fun s -> t.occupied.(s) = None) op.res

let try_start_pending t =
  let rec go acc = function
    | [] -> List.rev acc
    | op :: rest ->
      if resources_free t op then begin
        start_op t op;
        go acc rest
      end
      else go (op :: acc) rest
  in
  t.pending <- go [] t.pending

let release_slots t op =
  List.iter
    (fun s ->
      t.busy.(s) <- R.add t.busy.(s) (R.sub t.clock t.busy_since.(s));
      t.occupied.(s) <- None)
    op.res;
  Hashtbl.remove t.running_by_key op.key

let finish_op t op =
  release_slots t op;
  op.state <- Finished;
  Hashtbl.remove t.ops op.oid;
  (match op.kind with
  | Compute (i, w) ->
    t.work_done.(i) <- R.add t.work_done.(i) w;
    t.compute_count.(i) <- t.compute_count.(i) + 1
  | Transfer (e, sz) ->
    t.transferred_tot.(e) <- R.add t.transferred_tot.(e) sz);
  (match op.on_done with None -> () | Some f -> f t);
  try_start_pending t

let do_cancel t op reason =
  match op.state with
  | Finished -> false
  | Queued ->
    op.state <- Finished;
    t.pending <- List.filter (fun o -> o != op) t.pending;
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
    drop_completion t op;
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

let touch_key t key =
  match Hashtbl.find_opt t.running_by_key key with
  | None -> ()
  | Some op ->
    touch_op t op;
    schedule_completion t op

let register_breakpoints t =
  let register subject key tr =
    Array.iteri
      (fun j (tb, mb) ->
        if R.sign tb > 0 then begin
          let prev = if j = 0 then R.one else snd tr.(j - 1) in
          let crossing = R.sign prev > 0 <> (R.sign mb > 0) in
          push_event t tb
            (Timer
               (fun t ->
                 touch_key t key;
                 if crossing then
                   fire_outage t
                     { out_subject = subject; out_multiplier = mb;
                       out_was = prev }))
        end)
      tr
  in
  Array.iteri (fun i tr -> register (Cpu_of i) (Knode i) tr) t.cpu_trace;
  Array.iteri (fun e tr -> register (Bw_of e) (Kedge e) tr) t.bw_trace

let create ?cpu_traces ?bw_traces p =
  let t = create ?cpu_traces ?bw_traces p in
  register_breakpoints t;
  t

(* --- submission --- *)

let submit_op ?(strict = false) ?on_done ?on_cancel t kind =
  let res, base, amount =
    match kind with
    | Compute (i, w) ->
      if R.sign w < 0 then invalid_arg "Event_sim.submit: negative work";
      (match Platform.weight t.p i with
      | Ext_rat.Inf ->
        invalid_arg
          (Printf.sprintf "Event_sim.submit: node %s cannot compute"
             (Platform.name t.p i))
      | Ext_rat.Fin w_i -> ([ slot_cpu i ], w_i, w))
    | Transfer (e, sz) ->
      if R.sign sz < 0 then invalid_arg "Event_sim.submit: negative size";
      let src = Platform.edge_src t.p e and dst = Platform.edge_dst t.p e in
      ([ slot_send src; slot_recv dst ], Platform.edge_cost t.p e, sz)
  in
  let op =
    {
      oid = t.next_oid;
      kind;
      res;
      key = rate_key_of_kind kind;
      base;
      remaining = amount;
      last_update = t.clock;
      gen = 0;
      state = Queued;
      ev_key = None;
      on_done;
      on_cancel;
    }
  in
  t.next_oid <- t.next_oid + 1;
  if resources_free t op then begin
    Hashtbl.replace t.ops op.oid op;
    start_op t op
  end
  else if strict then begin
    let blocked =
      List.filter (fun s -> t.occupied.(s) <> None) op.res
      |> List.map (resource_name t.p)
      |> String.concat ", "
    in
    raise
      (Conflict
         (Printf.sprintf "at t=%s: resource(s) %s busy" (R.to_string t.clock)
            blocked))
  end
  else begin
    Hashtbl.replace t.ops op.oid op;
    t.pending <- t.pending @ [ op ]
  end;
  op.oid

let submit ?strict ?on_done t kind =
  ignore (submit_op ?strict ?on_done t kind)

let cancel t id =
  match Hashtbl.find_opt t.ops id with
  | None -> false
  | Some op -> do_cancel t op Cancelled

let at t time f =
  if R.compare time t.clock < 0 then
    invalid_arg "Event_sim.at: time in the past";
  push_event t time (Timer f)

(* --- main loop --- *)

let dispatch t ev =
  match ev with
  | Timer f -> f t
  | Complete (op, gen) ->
    if gen = op.gen then begin
      op.ev_key <- None;
      touch_op t op;
      assert (R.is_zero op.remaining);
      finish_op t op
    end

let run_until t limit =
  let continue = ref true in
  while !continue do
    match Emap.min_binding_opt t.queue with
    | Some (((time, _, _) as key), ev) when R.compare time limit <= 0 ->
      t.queue <- Emap.remove key t.queue;
      t.clock <- time;
      dispatch t ev
    | Some _ | None -> continue := false
  done;
  if R.compare t.clock limit < 0 then t.clock <- limit

let drain t =
  let continue = ref true in
  while !continue do
    match Emap.min_binding_opt t.queue with
    | Some (((time, _, _) as key), ev) ->
      t.queue <- Emap.remove key t.queue;
      t.clock <- time;
      dispatch t ev
    | None -> continue := false
  done

let run t =
  (* Drain the queue, then sweep for provably-stuck work.  With the
     queue empty there is no future breakpoint and no pending
     completion, so every still-running operation sits at multiplier 0
     forever: strand it.  Stranding frees ports, which may start queued
     operations with positive rates — hence the re-drain loop.  Each
     sweep removes at least one live operation (or starts pending ones,
     which either complete or are themselves stranded next sweep), so
     the loop terminates. *)
  let progress = ref true in
  while !progress do
    drain t;
    progress := false;
    match Hashtbl.fold (fun _ op acc -> op :: acc) t.running_by_key [] with
    | op :: _ ->
      ignore (do_cancel t op Stranded);
      progress := true
    | [] ->
      if t.pending <> [] then begin
        (* no runner, so every resource is free: start the queue *)
        try_start_pending t;
        progress := true
      end
  done

(* --- measurements --- *)

let completed_work t i = t.work_done.(i)
let completed_compute_count t i = t.compute_count.(i)
let transferred t e = t.transferred_tot.(e)

let busy_time t r =
  let s = slot_of_resource r in
  match t.occupied.(s) with
  | None -> t.busy.(s)
  | Some _ -> R.add t.busy.(s) (R.sub t.clock t.busy_since.(s))

let pending_ops t = List.length t.pending

let running_ops t = Hashtbl.length t.running_by_key

let cancelled_ops t = List.rev t.cancel_log
