(** Pipelined gather and reduce (§4.2 last paragraph, [12]).

    Both are duals of source-rooted collectives on the {e transposed}
    platform (every link reversed, costs kept):

    - {b gather} (personalised: the sink needs each participant's
      distinct value) is a scatter on the transpose — the [Sum] law;
    - {b reduce} with an associative combining operator lets relays
      merge partial results, so two payloads crossing an edge can travel
      as one — the [Max] law, dual of broadcast, and like broadcast the
      bound is achievable [5,12].

    Edge indices of the transposed platform coincide with the original
    ones (only direction flips), so flows translate back directly. *)

val gather_throughput :
  Platform.t ->
  sink:Platform.node ->
  sources:Platform.node list ->
  Rat.t

val reduce_throughput :
  Platform.t ->
  sink:Platform.node ->
  sources:Platform.node list ->
  Rat.t

val gather_solution :
  Platform.t ->
  sink:Platform.node ->
  sources:Platform.node list ->
  Collective.solution
(** Full transposed-platform solution (flows live on the transpose). *)
