(** Incremental schedule reconstruction (warm-starting the schedule
    layer, not just the LP).

    In phased runs — {!Fixed_period} period series, repeated schedules
    of one plan — consecutive reconstructions see near-identical loads.
    The LP layer solves every instance cold (reuse there is only the
    exact {!Lp.Cache}); this module reuses work downstream of the
    solver: the previous {e schedule} is repaired instead of rebuilt.  A warm slot remembers the last
    {!Schedule.t} and pipeline-delay vector; the next reconstruction
    seeds the weighted bipartite colouring with the previous matchings
    ({!Bipartite_coloring.decompose}'s [?seed]) and reuses unchanged
    slots outright.

    Cycle cancellation is not warm-started: {!cancel} is a function of
    the flow alone, so a plan never depends on which flows were
    cancelled before it.

    Warm results obey exactly the same contract as cold ones — the
    per-edge volumes, period and checker verdicts are independent of the
    path taken — and on unchanged inputs they are bit-identical. *)

(** A warm slot carrying the previous phase's reconstruction state.
    Not thread-safe: sequential code creates one slot per phase
    sequence; parallel sweeps use a {!Warm.Family}. *)
module Warm : sig
  type t

  val create : unit -> t

  val clear : t -> unit
  (** Drop the remembered schedule and delay vector (counters are
      kept). *)

  val hits : t -> int
  (** Uses of the slot that found previous state to repair from. *)

  val misses : t -> int
  (** Uses that had to fall back to a cold rebuild (empty or
      incompatible slot). *)

  (** Domain-local family of warm slots for {!Par.Pool} sweeps: each
      worker domain gets its own slot on first use and keeps it across
      tasks, so parallel phase sequences repair their own predecessor
      without cross-domain locking.  Same shape as
      {!Lp.Cache.Family}. *)
  module Family : sig
    type slot = t
    type t

    val create : unit -> t

    val slot : t -> slot
    (** The calling domain's slot (created and registered on first
        use). *)

    val domains : t -> int
    (** Number of domains that have materialised a slot so far. *)

    val hits : t -> int
    val misses : t -> int
    (** Aggregates over all materialised slots. *)

    val clear : t -> unit
    (** {!clear} every materialised slot. *)
  end
end

val cancel : ?stats:Lp.Stats.t -> Platform.t -> Flow.t -> Flow.t
(** [cancel p f] is {!Flow.cancel_cycles}, with the cycles it cancels
    counted into [stats]' [cycles_cancelled].  It carries no state from
    call to call: equal flows on equal platforms always give equal
    results. *)

val delays :
  ?warm:Warm.t ->
  ?strict:bool ->
  ?stats:Lp.Stats.t ->
  Platform.t ->
  Flow.t ->
  int array
(** [delays p f] is {!Flow.delays}, but through the warm slot: the slot
    remembers the last (flow, delay vector) pair and serves the vector
    again whenever [f] is bit-identical to the remembered flow —
    phased runs replay the same steady-state flow every period, so the
    longest-path pass is skipped entirely on their hot path.  Reuses
    are counted into [stats]' [delays_reused]; the slot's hit/miss
    counters are left to the schedule-repair path.  [strict]
    recomputes the cold vector and asserts bit-identity ([Failure]
    otherwise). *)

val certify : Schedule.t -> (unit, string) result
(** Independent structural audit of a (possibly warm-repaired)
    schedule: {!Schedule.check_well_formed} plus
    {!Bipartite_coloring.check_decomposition} on the matchings the slots
    encode against the bipartite instance induced by the schedule's
    stored demands.  (If two demands share an edge and kind the
    decomposition half is skipped — transfers can't be attributed.) *)

val reconstruct :
  ?warm:Warm.t ->
  ?strict:bool ->
  ?budget:int ->
  ?stats:Lp.Stats.t ->
  Platform.t ->
  period:Rat.t ->
  transfers:Schedule.demand list ->
  compute:(Platform.node * Rat.t) list ->
  delays:int array ->
  Schedule.t
(** Warm wrapper over {!Schedule.reconstruct}: the previous schedule in
    [warm] (if any) is passed as [?prev], and the result is deposited
    back into the slot for the next phase.  [?budget] bounds the
    matching-repair work before the colouring falls back to a cold
    peeling ({!Schedule.reconstruct}'s [?budget]).

    [strict] (default [false]) turns on paranoid certification: the
    result must pass {!certify}, and — whenever a previous schedule was
    actually used — a cold reconstruction is recomputed and the warm
    result's period and every per-edge per-kind item volume are asserted
    bit-identical to it ([Failure] otherwise).  Slot {e sequences} may
    legitimately differ after repairs; the asserted quantities are the
    ones throughput depends on. *)
