(** Pipelined broadcast (§4.3): multicast to {e every} other node.

    Contrary to the general multicast case, the [Max]-law LP bound is
    achievable for broadcast [5]: because every node receives
    everything, it never matters which copies travel which route.  We
    verify the claim constructively on exemplar platforms by comparing
    the LP bound with the optimal tree packing (experiment E6). *)

val targets_of : Platform.t -> source:Platform.node -> Platform.node list
(** All nodes except the source. *)

val lp_bound :
  ?cache:Lp.Cache.t ->
  Platform.t ->
  source:Platform.node ->
  Collective.solution
(** The [Max]-law upper bound on broadcast throughput, by
    {!Collective.solve}: on a tree it is the closed-form minimum (every
    edge above a reached node is loaded once, since broadcast reaches
    everyone), elsewhere the monolithic LP. *)

val tree_packing :
  ?cache:Lp.Cache.t ->
  Platform.t ->
  source:Platform.node ->
  Multicast.packing
(** Achievable broadcast throughput by time-sharing spanning
    arborescences (exemplar-scale platforms only). *)

val bound_met :
  ?cache:Lp.Cache.t ->
  Platform.t ->
  source:Platform.node ->
  bool * Rat.t * Rat.t
(** [(met, bound, achieved)]: does the tree packing reach the LP bound? *)
