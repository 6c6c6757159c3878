(** Schedule reconstruction (§4.1): from a steady-state flow to a
    certified periodic schedule.

    {!cancel} removes flow cycles from an LP task flow, {!reconstruct}
    colours the per-period volumes into matching slots
    ({!Schedule.reconstruct}), and {!certify} audits the result
    independently of how it was built.  Nothing here keeps state from
    call to call: equal inputs always give equal schedules. *)

val cancel : ?stats:Lp.Stats.t -> Platform.t -> Flow.t -> Flow.t
(** [cancel p f] is {!Flow.cancel_cycles}, with the cycles it cancels
    counted into [stats]' [cycles_cancelled].  It carries no state from
    call to call: equal flows on equal platforms always give equal
    results. *)

val certify : Schedule.t -> (unit, string) result
(** Independent structural audit of a schedule:
    {!Schedule.check_well_formed} plus
    {!Bipartite_coloring.check_decomposition} on the matchings the slots
    encode against the bipartite instance induced by the schedule's
    stored demands.  (If two demands share an edge and kind the
    decomposition half is skipped — transfers can't be attributed.) *)

val reconstruct :
  ?strict:bool ->
  ?stats:Lp.Stats.t ->
  Platform.t ->
  period:Rat.t ->
  transfers:Schedule.demand list ->
  compute:(Platform.node * Rat.t) list ->
  delays:int array ->
  Schedule.t
(** {!Schedule.reconstruct}, and with [strict] (default [false]) the
    result must also pass {!certify} ([Failure] otherwise). *)
