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

type op_id
(** Handle to a submitted operation, for cancellation and queries. *)

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

val at : t -> Rat.t -> (t -> unit) -> unit
(** Run a callback at an absolute time ([>= now]).
    @raise Invalid_argument on times in the past. *)

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
