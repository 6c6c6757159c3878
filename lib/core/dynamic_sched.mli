(** Dynamic steady-state scheduling (§5.5).

    Work is divided into phases.  At each phase boundary the scheduler
    observes resource performance, predicts the next phase, re-plans
    the steady state on the predicted platform in whole tasks
    ({!plan_phase}), and runs the new plan for one phase.  Four
    strategies are compared:

    - {!Static}: solve once for nominal speeds, never adapt;
    - {!Reactive}: probe at each boundary, forecast with an NWS-style
      adaptive predictor ({!Forecast}), re-solve;
    - {!Oracle}: re-solve with the {e true} next-phase performance —
      the reference the reactive strategy chases;
    - {!Robust}: like Reactive, but failure-aware — it detects dead
      CPUs and cut links (multiplier 0) through the simulator's outage
      events, re-plans on the surviving subplatform at each
      boundary, cancels in-flight transfers stuck on dead links and
      retries them with exponential backoff (attempt [a] waits
      [phase/4 * 2^(a-1)], at most 3 retries, and a retry whose backoff
      lands past the horizon is abandoned — a per-transfer deadline),
      and degrades to a structured {!loss_report} instead of raising
      when no feasible plan survives.  Its per-phase transfer counts
      are floored by the static plan's counts on surviving routes, so
      [Robust >= Static] holds structurally (re-planning only adds
      supply and prunes dead routes) rather than resting on forecast
      quality.

      Under churn no solver state crosses epochs: each epoch's plan
      is computed from its surviving restriction alone (on a tree by
      the integral sweep; elsewhere by a cold LP solve, cycle
      cancellation and path decomposition), so a checkpoint stores no
      solver state.  The only memo is the caller's [?cache], as for
      {!Lp.solve}: with one, an exactly repeated LP (an identical
      multiplier snapshot builds an identical restriction) is served
      from it; without one, every LP is solved.

    Plans are executed in queued (non-strict) mode: if reality is slower
    than the plan assumed, operations stack up and throughput drops —
    exactly the failure mode adaptation is meant to avoid. *)

type strategy = Static | Reactive | Oracle | Robust

type scenario = {
  platform : Platform.t;
  master : Platform.node;
  cpu_traces : (Platform.node * Event_sim.trace) list;
      (** Multipliers must stay strictly positive for the strategies
          that plan by {e dividing} by them ({!Reactive}, {!Oracle});
          zero multipliers (outages) are accepted for {!Static} — which
          never consults them and simply suffers the faults — and for
          {!Robust}, which routes them through failure detection and
          re-plans on the surviving subplatform. *)
  bw_traces : (Platform.edge * Event_sim.trace) list;
  phase : Rat.t; (** phase length; align trace breakpoints with it for
                     the oracle to be a true per-phase optimum *)
  phases : int;
}

val validate_scenario : ?allow_outages:bool -> scenario -> unit
(** @raise Invalid_argument on non-positive phase/phases, a negative
    multiplier, a node or edge given two traces (naming it), or —
    unless [~allow_outages:true] (the failure-aware paths) — a zero
    multiplier in a trace. *)

val multiplier_at : Event_sim.trace -> Rat.t -> Rat.t
(** Multiplier of a trace at a time: the entry with the largest
    breakpoint [<= t] wins (implicit 1 before the first breakpoint),
    regardless of the order the entries are listed in; among equal
    breakpoints the last entry wins.  This is the interpretation used
    for planning and for the traces handed to the simulator — traces
    need not be pre-sorted.  Internally {!run} compiles every trace
    into a sorted array once and binary-searches it per query. *)

val normalize_trace : Event_sim.trace -> Event_sim.trace
(** Sorted, breakpoint-deduplicated form of a trace (last entry wins
    among equal breakpoints) — the form handed to the simulator.  For
    any trace [tr] and time [t],
    [Event_sim.trace_multiplier (normalize_trace tr) t
     = multiplier_at tr t]. *)

type loss_report = {
  timed_out_transfers : int;
      (** always [0] — the executor sets no per-operation timeout;
          kept so report consumers keep their schema *)
  cancelled_transfers : int;
      (** transfers cancelled at a boundary because their link died *)
  retries : int;  (** task-file re-submissions performed *)
  lost_tasks : int;
      (** task files abandoned: retry budget exhausted, backoff past
          the horizon, or still in the backlog with no surviving route
          at the horizon.  Every cancellation is accounted exactly
          once: [cancelled_transfers = retries + lost_tasks]. *)
  degraded_phases : int;
      (** phases with no feasible plan (no reachable compute power) *)
  dead_nodes : int;
      (** nodes unreachable from the master or compute-dead at the end *)
  dead_edges : int;  (** edges at multiplier 0 at the end *)
}
(** Structured degradation accounting of a {!Robust} run; all-zero
    ({!no_losses}) for the other strategies. *)

val no_losses : loss_report

type outcome = {
  strategy : strategy;
  completed : Rat.t; (** tasks finished within the horizon *)
  per_phase : Rat.t list; (** tasks finished per phase *)
  losses : loss_report;
}

val plan_phase :
  ?cache:Lp.Cache.t ->
  ?stats:Lp.Stats.t ->
  Platform.t ->
  master:Platform.node ->
  Rat.t ->
  ((Platform.edge list * int) list * int) option
(** [plan_phase p ~master phase] is the one phase planner every
    strategy uses, for its nominal plan and for every re-plan: one
    [(path, count)] per delivery path ([count] unit task files sent
    along the master-rooted edge list [path] and computed at its last
    node) and the master's own task count.

    When the part of [p] reachable from [master] is a tree
    ({!Tree_decomp.detect}), the plan is the integral bandwidth-centric
    sweep, with no LP.  Bottom-up, node [v] computes
    [floor(phase / w_v)] tasks (0 at [w_v = +oo]), and its subtree
    absorbs that plus what [v]'s out-port can forward in the phase: the
    children are filled in increasing link cost (ties in child order),
    child [u] behind link cost [c] taking
    [min(absorb u, floor(budget / c))] whole tasks out of the budget
    [phase].  Top-down, the master keeps its own count and sends each
    child its take; every other node computes [min(inflow, cpu)] itself
    and forwards the rest in the same order.  That is the integral
    optimum of one phase: every port and CPU stays within the phase,
    and it moves at least as many tasks as the per-path floors of any
    optimal LP vertex.  [?cache] and [?stats] are untouched there.

    Any other platform takes {!Master_slave.try_solve} (the LP, through
    [?cache], counted in [?stats]) and floors [phase * rate] on each
    path of its flow's decomposition; [None] when that LP has no
    optimum.
    @raise Invalid_argument when a count the plan uses overflows a
    native int. *)

(** {1 Crash recovery}

    A {!Robust} run given a [Checkpoint.config] persists, every
    [every] epochs, its whole state at the start of that boundary — the
    executor's counters, retry backlog, static-floor arrears and work
    marks, its in-flight task files (operation id, attempts, remaining
    path), and the simulator's {!Event_sim.snapshot} — as one
    checksummed, atomically committed {!Solve_store} record (format
    [steady-ckpt 5]), overwritten at each checkpoint.  Every LP solve is
    cold, a function of its epoch's platform alone, so no solver state
    or LP memo is stored, and the record does not depend on whether the
    run had a [?cache].  {!resume} decodes the record, restores the
    simulator and continues from that boundary {e bit-identically}: no
    earlier boundary runs again.  What the record leaves out is a
    function of the scenario and the epoch and is rebuilt without
    simulating: the dead marks, the forecasters' observations, the
    static floor.  A record that is truncated, corrupt, version-skewed
    (older [steady-ckpt] records, whose decision log a resume replayed,
    included) or breaks an invariant the executor or the simulator
    keeps is quarantined and degrades to a cold full run.  A record
    that passes every check is trusted; [~strict:true] is the
    certificate. *)

module Checkpoint : sig
  type config = {
    dir : string;
        (** {!Solve_store} directory holding the checkpoint record *)
    every : int;  (** write cadence, in epochs (>= 1) *)
  }

  exception Halted of int
  (** Raised by {!run} at the [?halt_at] boundary (after any checkpoint
      due there is committed) — the chaos harness's crash injection:
      the simulator dies mid-run exactly as [kill -9] would, and the
      test then certifies {!resume} against an uninterrupted run. *)
end

val run :
  ?cache:Lp.Cache.t ->
  ?stats:Lp.Stats.t ->
  ?checkpoint:Checkpoint.config ->
  ?halt_at:int ->
  scenario ->
  strategy ->
  outcome
(** Every phase plan is {!plan_phase}'s: on a tree the integral sweep,
    with no LP; elsewhere the LP's per-path floors.  Every per-phase LP
    solve is cold.  [?cache] and [?stats] only touch the plans of
    platforms that are not trees.  [?cache] is the only memo, with
    {!Lp.solve}'s rule: with it, every plan LP goes through the cache,
    so exactly repeated instances (flat trace segments, the nominal
    platform) cost one solve, across runs too when the cache is shared
    (e.g. between strategies of the same scenario); without it, every
    plan LP — the nominal plan, plus one per phase for every strategy
    but {!Static} — goes to the kernel.  [?stats] accumulates
    solver/retry counters across all phases.  A cache hit is
    bit-identical to recomputing, so [?cache] changes no answer: the
    outcome is {!outcomes_equal} to the run without it.

    [?checkpoint] (Robust only) enables crash recovery as described
    above.  It only adds the record commits: the run is otherwise the
    same, and memoises through [?cache] like any other run.
    [?halt_at] (requires [?checkpoint]) injects a crash: the run raises
    {!Checkpoint.Halted} at the start of that boundary's callback,
    after the checkpoint due there (if [halt_at] is a multiple of
    [every]) is committed.
    @raise Invalid_argument on [?checkpoint] with a non-Robust
    strategy, a cadence [< 1], [?halt_at] without [?checkpoint],
    [?halt_at] outside
    [1 .. phases - 1], or a phase plan whose task count overflows a
    native int. *)

val resume :
  ?strict:bool ->
  checkpoint:Checkpoint.config ->
  scenario ->
  outcome * int option
(** Continue a crashed checkpointed {!Robust} run from its record's
    boundary.  Returns the outcome and the epoch the run resumed from
    ([None]: no usable checkpoint was found and the run started cold —
    which is also the recovery path for a corrupt, version-skewed,
    wrong-platform or inconsistent record, after quarantining it).  The
    resumed outcome is bit-identical to the uninterrupted run's, with
    or without a [?cache] on that run (cache hits are bit-identical to
    re-solves), for every record a run wrote; a forged record that
    passes the decoder's checks is trusted.  With [~strict:true] the
    outcome is certified on the spot against an uninterrupted run (no
    checkpoint machinery).  The resumed run, and that certifying run,
    have no LP memo, like a {!run} without [?cache].
    @raise Failure if strict certification fails.
    @raise Invalid_argument on a cadence [< 1]. *)

val outcomes_equal : outcome -> outcome -> bool
(** Exact equality of two outcomes: strategy, completed work, per-phase
    marks (rational equality) and the loss report. *)

val oracle_throughput_bound : ?cache:Lp.Cache.t -> scenario -> Rat.t
(** Sum over phases of [phase * ntask(platform scaled by the true
    multipliers at the phase start)] — an upper bound on any
    phase-planned strategy when breakpoints are phase-aligned.
    [?cache] as in {!run}: without it every phase's LP is solved; the
    bound itself is bit-identical either way.  It is
    {!fault_throughput_bound} after the stricter validation: with every
    multiplier positive, the surviving platform is the scaled one less
    the nodes the master cannot reach, which compute nothing.  Each
    phase takes {!Master_slave.try_solve} (the closed form on a tree,
    which consults no cache). *)

(** {1 Failure-aware utilities} *)

val surviving_platform : scenario -> at:Rat.t -> Platform.restriction
(** The surviving subplatform at a time: nodes the master still reaches
    over links with a positive multiplier, scaled by the true
    multipliers at [at]; a reachable node whose CPU multiplier is zero
    survives as a pure relay (weight [+oo]).  The restriction carries
    the index maps back to the full platform.  This is exactly the
    platform {!Robust} re-plans on (with true multipliers in place of
    forecasts) and the one per-epoch LP bounds are computed on. *)

val fault_throughput_bound : ?cache:Lp.Cache.t -> scenario -> Rat.t
(** Outage-tolerant analogue of {!oracle_throughput_bound}: sum over
    phases of [phase * ntask(surviving platform at the phase start)],
    with fully degraded epochs (no reachable compute power)
    contributing zero.  Memoised through [?cache] like the oracle
    bound; never raises on outage scenarios. *)
