(** Discrete-event simulator of the full-overlap one-port platform model
    (§2 of the paper).

    The simulator is the stand-in for the heterogeneous testbed the paper
    assumes: schedules — reconstructed periodic ones and online baselines
    alike — are executed against it, and measured throughput is compared
    with LP bounds.  Time is an exact rational, so "the schedule meets
    the bound" is an equality test.

    Each node owns three unit-capacity resources: a send port, a receive
    port and a CPU.  A transfer over edge [e : Pi -> Pj] occupies
    [Send Pi] and [Recv Pj] for [size * c_e] time units; a computation
    occupies [Cpu Pi] for [work * w_i].  Resource speeds can follow
    piecewise-constant traces (multiplier 1 = nominal, 0 = outage), which
    is how dynamic-platform experiments (§5.5) inject load variation.

    Two submission modes:
    - {b queued} (default): operations wait until their resources free
      up (FIFO by submission time, work-conserving) — for demand-driven
      controllers;
    - {b strict}: submitting while a needed resource is busy raises
      {!Conflict} — executing a reconstructed schedule in strict mode is
      a machine-checked proof that it respects the one-port model. *)

type t

type op_kind =
  | Compute of Platform.node * Rat.t (** node, work in computational units *)
  | Transfer of Platform.edge * Rat.t (** edge, size in data units *)

type resource =
  | Cpu of Platform.node
  | Send of Platform.node
  | Recv of Platform.node

exception Conflict of string
(** Raised by strict submissions that violate the one-port (or
    CPU-exclusivity) model. *)

type trace = (Rat.t * Rat.t) list
(** Piecewise-constant speed multiplier: [(t, m)] means "multiplier [m]
    from time [t] on".  Implicit start is multiplier 1 at time 0.  Times
    must be non-negative and strictly increasing; multipliers must be
    non-negative ([0] = outage). *)

val trace_multiplier : trace -> Rat.t -> Rat.t
(** The engine's interpretation of a (validated, strictly increasing)
    trace at a time: the last entry with breakpoint [<= t], implicit 1
    before the first.  Exposed so planners can certify that they agree
    with the simulator on every trace they hand over. *)

val create :
  ?cpu_traces:(Platform.node * trace) list ->
  ?bw_traces:(Platform.edge * trace) list ->
  Platform.t ->
  t
(** A simulator at time 0 with nothing submitted.  It keeps state only
    for the nodes and edges that a trace or a submission names, so
    creating one costs the same on any platform.
    @raise Invalid_argument on a trace with a negative time or
    multiplier, or breakpoints that are not strictly increasing. *)

val platform : t -> Platform.t
val now : t -> Rat.t

(** {1 Failure observability} *)

type subject =
  | Cpu_of of Platform.node  (** the CPU rate of a node *)
  | Bw_of of Platform.edge  (** the bandwidth of an edge *)

type outage = {
  out_subject : subject;
  out_multiplier : Rat.t;  (** the multiplier just set; [0] = outage *)
  out_was : Rat.t;  (** the multiplier in force before the breakpoint *)
}
(** Emitted at every trace breakpoint that crosses zero in either
    direction: a positive-to-zero transition is a fail-stop outage, a
    zero-to-positive transition is a recovery.  Plain slowdowns and
    speedups (positive to positive) are not reported — they degrade, not
    fail.  A trace that {e starts} at zero (breakpoint at time 0) fires
    no event; query {!multiplier_of} for the initial state. *)

val on_outage : t -> (t -> outage -> unit) -> unit
(** Register an outage/recovery observer.  Observers run inside the
    event loop, after the affected operation's progress has been
    integrated, and may submit, cancel or schedule further work.
    Multiple observers fire in registration order. *)

val multiplier_of : t -> subject -> Rat.t
(** Current speed multiplier of a resource (1 when untraced). *)

(** {1 Operations} *)

type op_id = int
(** Handle to a submitted operation, for cancellation and queries.  A
    simulator numbers its operations 0, 1, 2, ... in submission order. *)

type cancel_reason =
  | Cancelled  (** explicit {!cancel} *)
  | Stranded
      (** {!run} proved the operation can never finish: it was running
          on (or queued behind) a resource stuck at multiplier 0 with no
          future breakpoint *)

type cancelled = {
  c_kind : op_kind;
  c_reason : cancel_reason;
  c_remaining : Rat.t;  (** work/data units left when cancelled *)
  c_time : Rat.t;  (** simulated time of the cancellation *)
}

val submit :
  ?strict:bool -> ?on_done:(t -> unit) -> t -> op_kind -> unit
(** Submit an operation.  [on_done] fires when it completes (and may
    submit further operations).  Zero-work operations complete at the
    current time, still through the event queue.
    @raise Conflict in strict mode if a needed resource is busy.
    @raise Invalid_argument on negative work/size. *)

val submit_op :
  ?strict:bool ->
  ?on_done:(t -> unit) ->
  ?on_cancel:(t -> cancel_reason -> unit) ->
  t ->
  op_kind ->
  op_id
(** Like {!submit}, returning a handle.  [on_cancel] fires on any
    cancellation (explicit or stranding); partial progress of a
    cancelled operation is discarded — it never counts towards
    {!completed_work} or {!transferred}. *)

val cancel : t -> op_id -> bool
(** Cancel a queued or running operation: frees its resources, drops its
    remaining work and fires its [on_cancel].  Returns [false] (and does
    nothing) if the operation already completed or was already
    cancelled. *)

val at : ?tag:int -> t -> Rat.t -> (t -> unit) -> unit
(** Run a callback at an absolute time ([>= now]).  [?tag] (a
    non-negative int of the caller's choosing) names the callback in a
    {!snapshot}; a simulator holding an untagged timer has none.
    @raise Invalid_argument on times in the past or a negative tag. *)

val run_until : t -> Rat.t -> unit
(** Process events up to and including the given time; [now] afterwards
    equals that time. *)

val run : t -> unit
(** Process events until the queue is empty.  Operations that can never
    finish — running at multiplier 0 with no future breakpoint for
    their resource, or queued behind such an operation — are not
    silently stranded: they are cancelled with {!Stranded} (newly
    startable queued work is started and drained first), so after [run]
    returns there is no pending or running operation left and every
    casualty is visible through [on_cancel] and {!cancelled_ops}. *)

(** {1 Measurements}

    A node or edge that no submission has used reads zero.  The
    queries raise [Invalid_argument] on a node or edge out of range. *)

val completed_work : t -> Platform.node -> Rat.t
(** Total computational units finished on this node so far. *)

val completed_compute_count : t -> Platform.node -> int

val computed_nodes : t -> Platform.node list
(** The nodes with at least one finished computation, ascending: every
    other node's {!completed_work} is zero. *)

val transferred : t -> Platform.edge -> Rat.t
(** Total data units whose transfer over this edge has completed. *)

val busy_time : t -> resource -> Rat.t
(** Total time this resource has been occupied (outage time while an
    operation is stalled on it counts as busy). *)

val pending_ops : t -> int
(** Operations submitted but not yet started. *)

val running_ops : t -> int

val cancelled_ops : t -> cancelled list
(** All cancellations so far, oldest first. *)

(** {1 Snapshots}

    A snapshot is the simulator's whole state as plain data, with no
    closure in it: taken between runs or from inside a timer, it
    restores into a simulator that continues exactly as the original
    would have — same completion times, same start order, same tie
    breaks — provided the client attaches the same callbacks again.
    (Inside an [on_done] or [on_cancel] the operations the freed ports
    unblock have not started yet: {!restore} refuses a snapshot that
    holds one.)

    It holds the clock and the next operation id; every live operation
    (kind, the rational work left and when it was last integrated for a
    running one, the pending FIFO in order); every live queue entry in
    the engine's (time, priority, sequence) order, stale completions
    dropped; and, for each node and edge touched so far, the busy time
    of its ports and what it has computed or carried.  The queue names
    its entries by what they do: an operation's completion, a trace's
    [j]-th breakpoint, or a client timer's tag.  Taking a snapshot walks
    the state; the per-event path pays nothing for it.

    On {!restore} the entries are queued again in that order, so every
    later tie breaks as before.  Running operations re-enter the
    running table in ascending id order, which is what {!run}'s
    stranding sweep walks, so that sweep's order after a restore is the
    restored table's.  A restored simulator's {!cancelled_ops} starts
    empty and it has no outage observers: register them again with
    {!on_outage}. *)

type running = {
  r_id : op_id;
  r_kind : op_kind;
  r_remaining : Rat.t;  (** units left at [r_updated] *)
  r_updated : Rat.t;  (** when its progress was last integrated *)
}

type queued = { q_id : op_id; q_kind : op_kind }

type port = {
  busy_closed : Rat.t;  (** busy time of the closed intervals *)
  busy_since : Rat.t;  (** start of the open interval, while occupied *)
}

type node_snapshot = {
  n_node : Platform.node;
  n_cpu : port;
  n_send : port;
  n_recv : port;
  n_work : Rat.t;  (** {!completed_work} *)
  n_computed : int;  (** {!completed_compute_count} *)
}

type queued_event =
  | Q_complete of op_id  (** a running operation's completion *)
  | Q_breakpoint of subject * int
      (** the trace's breakpoint at this index takes effect *)
  | Q_timer of int  (** the client timer with this tag *)

type snapshot = {
  s_clock : Rat.t;
  s_next_id : op_id;  (** the id the next submission gets *)
  s_nodes : node_snapshot list;  (** the nodes touched, ascending *)
  s_edges : (Platform.edge * Rat.t) list;
      (** the edges touched, ascending, with the data they carried *)
  s_running : running list;  (** ascending id *)
  s_queued : queued list;  (** the pending FIFO, oldest first *)
  s_events : (Rat.t * queued_event) list;  (** in queue order *)
}

val snapshot : t -> snapshot
(** @raise Invalid_argument if an untagged timer is queued. *)

val restore :
  ?cpu_traces:(Platform.node * trace) list ->
  ?bw_traces:(Platform.edge * trace) list ->
  Platform.t ->
  snapshot ->
  callbacks:
    (op_id -> op_kind -> (t -> unit) option * (t -> cancel_reason -> unit) option) ->
  timer:(int -> t -> unit) ->
  (t, string) result
(** A simulator in the snapshot's state, over the traces the original
    was created with.  [callbacks id kind] gives each live operation its
    [on_done] and [on_cancel] again, and [timer tag] each tagged timer
    its callback.  [Error] names the first inconsistency of a snapshot
    that no run of the engine can leave: a node, edge or operation off
    the platform or listed twice, a time before zero or a queue entry
    before the clock, more work left than submitted, two running
    operations on one port or lane, a queued operation whose resources
    are all free, a completion or breakpoint at a time other than the
    one the engine computes, entries out of queue order, a breakpoint
    after the clock that is not queued, a running operation whose rate
    changed since its progress was integrated.  Beyond those checks a
    snapshot is trusted.
    @raise Invalid_argument on a malformed trace, as {!create}. *)
