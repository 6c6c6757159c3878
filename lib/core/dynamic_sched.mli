(** Dynamic steady-state scheduling (§5.5).

    Work is divided into phases.  At each phase boundary the scheduler
    observes resource performance, predicts the next phase, re-solves
    the steady-state LP on the predicted platform, and runs the new plan
    for one phase.  Three strategies are compared:

    - {!Static}: solve once for nominal speeds, never adapt;
    - {!Reactive}: probe at each boundary, forecast with an NWS-style
      adaptive predictor ({!Forecast}), re-solve;
    - {!Oracle}: re-solve with the {e true} next-phase performance —
      the reference the reactive strategy chases;
    - {!Robust}: like Reactive, but failure-aware — it detects dead
      CPUs and cut links (multiplier 0) through the simulator's outage
      events, re-solves the LP on the surviving subplatform at each
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

      Under churn no solver state crosses epochs: each epoch's LP is
      solved cold on its surviving restriction, and everything
      downstream of the LP — cycle cancellation, path decomposition —
      is recomputed from that epoch's solution alone, so a checkpoint
      stores no solver state.  Reuse is memoisation only: the
      restriction is memoised on the multiplier snapshot (identical
      consecutive epochs reuse the previous sub-platform outright), and
      exactly repeated LPs hit the {!Lp.Cache}.

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
    multiplier, or — unless [~allow_outages:true] (the failure-aware
    paths) — a zero multiplier in a trace. *)

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
      (** in-flight transfers cancelled by the per-op timeout *)
  cancelled_transfers : int;
      (** transfers cancelled at a boundary because their link died *)
  retries : int;  (** task-file re-submissions performed *)
  lost_tasks : int;
      (** task files abandoned: retry budget exhausted, backoff past
          the horizon, or still in the backlog with no surviving route
          at the horizon.  Every cancellation is accounted exactly
          once: [timed_out_transfers + cancelled_transfers
          = retries + lost_tasks]. *)
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

(** {1 Crash recovery}

    A {!Robust} run given a [Checkpoint.config] persists, every
    [every] epochs, an exact record of its progress — the per-epoch
    decision log in original platform indices, a snapshot of the
    executor state at the boundary (arrears, backlog, deficits, loss
    counters, failure flags, work marks — all rational-exact) — through
    the same checksummed atomic-commit machinery as the LP disk cache
    ({!Solve_store}).  No solver state is stored: every LP solve is
    cold, a function of its epoch's platform alone.  {!resume}
    continues such a run after a crash {e bit-identically}: the logged
    decisions are replayed through a fresh simulator (pure
    deterministic event replay, no LP work), the rebuilt state is
    validated against the stored snapshot, and the remaining epochs run
    live against the same disk-tier LP memo the original run wrote
    through.  Corruption in
    any form — truncation, bit flips, version skew, a snapshot the
    replay cannot reproduce — is quarantined and degrades to a cold
    full run: recovery can cost time, never answers. *)

module Checkpoint : sig
  type config = {
    dir : string;
        (** {!Solve_store} directory holding the checkpoint record and
            the run's disk-tier LP cache *)
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
  ?reuse:bool ->
  ?stats:Lp.Stats.t ->
  ?checkpoint:Checkpoint.config ->
  ?halt_at:int ->
  scenario ->
  strategy ->
  outcome
(** Every phase plan is the kernel's vertex of the master–slave LP
    ({!Master_slave.try_solve_lp}), on a tree too: a plan's per-path
    task counts are floors of [phase * rate], and the tree closed
    form's vertex can lose more to them.  Every per-phase LP solve is
    cold.  With [reuse] (the default),
    exactly repeated instances are memoised — flat trace segments and
    the nominal platform cost one solve for the whole run — and
    {!Robust} memoises its surviving restriction on the multiplier
    snapshot.  [?cache] shares the memo across runs (e.g. between
    strategies of the same scenario); [~reuse:false] disables both
    memos and re-solves every phase (baseline measurements).  [?stats]
    accumulates solver/retry counters across all phases.  A memo hit is
    bit-identical to recomputing, so [reuse] changes no answer: the
    outcome is {!outcomes_equal} to the [~reuse:false] run's.

    [?checkpoint] (Robust only) enables crash recovery as described
    above; the run then manages its own LP cache with the store as its
    disk tier, so it is exclusive with [?cache].  [?halt_at] (requires
    [?checkpoint]) injects a crash: the run raises {!Checkpoint.Halted}
    at the start of that boundary's callback.
    @raise Invalid_argument on [?checkpoint] with a non-Robust
    strategy, a cadence [< 1], [?cache] alongside [?checkpoint], or
    [?halt_at] without [?checkpoint]. *)

val resume :
  ?reuse:bool ->
  ?stats:Lp.Stats.t ->
  ?strict:bool ->
  checkpoint:Checkpoint.config ->
  scenario ->
  outcome * int option
(** Continue a crashed checkpointed {!Robust} run.  Returns the outcome
    and the epoch the run resumed from ([None]: no usable checkpoint
    was found and the run started cold — which is also the recovery
    path for a corrupt, version-skewed, wrong-platform or
    snapshot-mismatching record, after quarantining it).  The resumed
    outcome is bit-identical to the uninterrupted run's; with
    [~strict:true] that is certified on the spot against a fresh
    cold-state run (fresh caches, no checkpoint machinery).
    [?reuse]/[?stats] as in {!run}; [reuse] must match the
    original run's flag (a record written under the other flag is
    treated as a miss).
    @raise Failure if strict certification fails.
    @raise Invalid_argument on a cadence [< 1]. *)

val outcomes_equal : outcome -> outcome -> bool
(** Exact equality of two outcomes: strategy, completed work, per-phase
    marks (rational equality) and the loss report. *)

val oracle_throughput_bound :
  ?cache:Lp.Cache.t -> ?reuse:bool -> scenario -> Rat.t
(** Sum over phases of [phase * ntask(platform scaled by the true
    multipliers at the phase start)] — an upper bound on any
    phase-planned strategy when breakpoints are phase-aligned.
    [?cache]/[?reuse] as in {!run}; the bound itself is bit-identical
    either way.  Only the throughput counts here, so each phase takes
    {!Master_slave.solve} (the closed form on a tree, which consults no
    cache). *)

(** {1 Failure-aware utilities} *)

val surviving_platform : scenario -> at:Rat.t -> Platform.restriction
(** The surviving subplatform at a time: nodes the master still reaches
    over links with a positive multiplier, scaled by the true
    multipliers at [at]; a reachable node whose CPU multiplier is zero
    survives as a pure relay (weight [+oo]).  The restriction carries
    the index maps back to the full platform.  This is exactly the
    platform {!Robust} re-plans on (with true multipliers in place of
    forecasts) and the one per-epoch LP bounds are computed on. *)

val fault_throughput_bound : ?cache:Lp.Cache.t -> ?reuse:bool -> scenario -> Rat.t
(** Outage-tolerant analogue of {!oracle_throughput_bound}: sum over
    phases of [phase * ntask(surviving platform at the phase start)],
    with fully degraded epochs (no reachable compute power)
    contributing zero.  Memoised like the other bounds; never raises on
    outage scenarios. *)
