(** Schedule reconstruction (§4.1): from a steady-state flow to a
    certified periodic schedule.

    Every steady-state problem takes the same pipeline: {!cancel} the
    flow's cycles, take the {!period} (the lcm of the rate
    denominators), turn the per-edge flows into per-period {!demands}
    with their pipeline delays, {!reconstruct} (colour) them into
    matching slots, and {!certify} the result independently of how it
    was built; {!Schedule.run} then executes it strictly.  Nothing here
    keeps state from call to call: equal inputs always give equal
    schedules. *)

val cancel : ?stats:Lp.Stats.t -> Platform.t -> Flow.t -> Flow.t
(** [cancel p f] is {!Flow.cancel_cycles}, with the cycles it cancels
    counted into [stats]' [cycles_cancelled].  It carries no state from
    call to call: equal flows on equal platforms always give equal
    results. *)

val period : Rat.t list -> Rat.t
(** The lcm of the denominators of the rates: the shortest period in
    which every rate moves a whole number of items.  Zero rates do not
    matter. *)

val task_period : Platform.t -> alpha:Rat.t array -> Flow.t -> Rat.t
(** {!period} of a master–slave steady state: the per-node task rates
    [alpha_i / w_i] and the per-edge task flows. *)

val demands :
  ?support:Platform.edge list ->
  Platform.t ->
  period:Rat.t ->
  kind:int ->
  item_size:Rat.t ->
  delays:int array ->
  Flow.t ->
  Schedule.demand list
(** One demand of [period * flow e] items of [kind] per edge that
    carries any, in platform edge order, each delayed by
    [delays.(src e)] periods ({!Flow.delays} of the flow, for an
    acyclic one).  [?support] is the flow's {!Flow.support}, when the
    caller has it. *)

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
(** [reconstruct p ~period ~transfers ~compute ~delays] orchestrates the
    given per-period communication volumes into matching slots via
    weighted bipartite edge colouring ({!Bipartite_coloring.decompose}):
    one slot per matching, in the colouring's order.  [?stats] counts
    the matchings into {!Lp.Stats}' [matchings_rebuilt].  With [strict]
    (default [false]) the result must also pass {!certify} ([Failure]
    otherwise).
    @raise Invalid_argument if the communications cannot fit
    (some port busier than [period]) or some compute exceeds the
    period — the steady-state LPs rule both out. *)
