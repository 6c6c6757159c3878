(** Seeded chaos campaigns: fuzzing the failure-aware scheduler.

    A campaign sweeps {!Faults.random_plan} (plus the named adversarial
    scenarios) across fault families × densities × platform shapes,
    runs the dynamic strategies on every plan, and asserts an invariant
    battery on each run instead of eyeballing outcomes:

    - zero exceptions — every plan must degrade structurally, never
      raise;
    - an exact optimality certificate ({!Lp.certify}) for the plan's
      nominal master–slave LP, reported as [LP certificate: ...]; that
      solve stays out of the [effort] counters;
    - [Robust >= Static - one phase of Static's throughput]: the static
      supply floor is structural, but at a finite horizon the one-port
      queue is non-preemptive, so LP extras queued at one boundary can
      delay the next boundary's floor deliveries and the horizon cutoff
      strands a sliver of floor supply in flight — bounded by a single
      phase of Static's work (exact dominance holds in steady state and
      is asserted by the curated [test_dynamic] scenarios);
    - total Robust throughput within the summed per-epoch CPU capacity
      (the sound physics bound under arbitrary churn; the tighter
      per-epoch LP bound {!Dynamic_sched.fault_throughput_bound} is
      deliberately {e not} asserted here — task files delivered during
      a fast epoch are legitimately computed during a later
      comm-limited one, so slowdown waves beat the summed LP optima —
      the curated scenarios in [test_dynamic] keep it); on
      slowdown-only plans additionally every strategy within
      {!Dynamic_sched.oracle_throughput_bound};
    - per-phase accounting: one entry per phase, summing to the total;
    - loss accounting sums: [cancelled = retries + lost] (no
      per-operation timeout, so [timed_out_transfers] is always 0) and
      the fault-blind strategies report {!Dynamic_sched.no_losses};
    - crash recovery: per plan, a checkpointed Robust run is
      killed at a seeded epoch ({!Dynamic_sched.Checkpoint.Halted}
      injection, cadence 1), {!Dynamic_sched.resume} picks the run up
      from the on-disk record, and the stitched outcome must be
      bit-identical to the uninterrupted run — with the resume point
      reported at exactly the kill epoch (a silent cold restart
      counts as a violation).

    The shape axis spans stars (single-hop deliveries), random trees
    (every delivery is a store-and-forward relay chain) and random
    connected general graphs (cycles, multiple master-to-consumer
    routes); the dominance slack scales with the platform's BFS depth
    from the master, since a multi-hop pipeline can hold up to [depth]
    phases of floor supply in flight at the horizon cutoff.

    Everything is deterministic in the campaign seed (exact rational
    arithmetic, {!Faults.gen} streams), so a red campaign is a
    reproducible bug report: re-run with the same seed and the same
    plan label fails again, to the bit. *)

type violation = {
  v_plan : string;  (** plan label: [family/shape/dN/sK] *)
  v_what : string;  (** which invariant broke, with the values *)
}

type summary = {
  plans : int;  (** fault plans generated and executed *)
  runs : int;  (** strategy executions across all plans *)
  outage_plans : int;  (** plans containing at least one hard outage *)
  slowdown_plans : int;
      (** outage-free plans (all four strategies run on these) *)
  violations : violation list;  (** empty iff the campaign is green *)
  effort : Lp.Stats.t;
      (** solver/repair/retry counters accumulated over the Robust and
          Reactive runs — the campaign doubles as a soak test for the
          solver and the retry machinery ([retries] and [backoff_time]
          both get exercised) *)
}

val shapes : string list
(** The default shape axis:
    [["star3"; "star5m"; "star8"; "tree6"; "tree9"; "graph8"]]. *)

val run_campaign :
  ?smoke:bool -> ?shapes:string list -> seed:int -> unit -> summary
(** Run a campaign.  Full mode (default) sweeps 6 fault families × 3
    densities × 6 shapes × 4 derived seeds — over 400 plans;
    [~smoke:true] runs the single-density single-seed subset (fast
    enough for CI).  [?shapes] restricts or reorders the shape axis
    (e.g. [~shapes:["tree9"; "graph8"]] for a relay-focused sweep).
    Exceptions inside a plan are caught and reported as violations.
    @raise Invalid_argument before any plan runs if a name in
    [?shapes] is not in {!shapes} (the empty name included); the
    message lists the known shapes. *)

val pp_summary : Format.formatter -> summary -> unit
(** Human-readable campaign report (plan counts, effort counters, every
    violation). *)
