(** Pipelined scatter (§3.2): a source repeatedly sends {e distinct}
    messages to each target processor; the steady-state LP maximises the
    common delivery rate TP.

    This is the [Sum] instance of {!Collective}: distinct messages pay
    for the wire separately.  For scatter the LP bound is achievable,
    and {!schedule}/{!simulate} build and strictly execute the periodic
    schedule that meets it (§4.1–4.2). *)

type solution = Collective.solution

val solve :
  ?cache:Lp.Cache.t ->
  Platform.t ->
  source:Platform.node ->
  targets:Platform.node list ->
  solution
(** {!Collective.solve} under the [Sum] law: the closed form on a
    tree, the LP elsewhere, through [?cache] as in
    {!Master_slave.solve}: a disk hit is bit-identical to re-solving. *)

val schedule : solution -> Schedule.t
(** Kinds in the schedule are target indices (positions in [targets]).
    The period is {!Reconstruct.period} of all the flows; each kind's
    {!Reconstruct.demands} take their delays from its own flow DAG. *)

type run = {
  elapsed : Rat.t;
  periods : int;
  delivered : Rat.t array; (** per target: messages delivered (analytic) *)
  upper_bound : Rat.t; (** TP * elapsed per target *)
}

val simulate : ?periods:int -> solution -> run
(** Strictly executes the schedule on the simulator
    ({!Schedule.deliver}): raises {!Event_sim.Conflict} on any one-port
    violation; also cross-checks the simulator's per-edge transferred
    data units against the analytic ramp-up counts.  @raise Failure if
    the cross-check fails. *)
