(** Pipelined multicast (§3.3, §4.3): the source repeatedly sends the
    {e same} message to every target.

    Three quantities bracket the optimal throughput (computing it
    exactly is NP-hard [7]):

    - {!scatter_lower_bound} — treat the copies as distinct messages
      ([Sum] law): always achievable, usually pessimistic;
    - {!best_tree_packing} — optimal time-sharing of multicast trees:
      achievable by construction, at least as good as any single tree;
    - {!max_lp_bound} — the [Max]-law LP of §3.3: a true upper bound,
      but {b not} always achievable.  On the Figure 2 platform it says
      one message per time unit while no schedule does better than the
      tree packing's 2/3 — the paper's central counterexample,
      reproduced in tests and experiment E5. *)

type tree = Platform.edge list
(** An arborescence rooted at the source whose leaves are targets. *)

val enumerate_trees :
  Platform.t ->
  source:Platform.node ->
  targets:Platform.node list ->
  tree list
(** All minimal multicast trees (every leaf a target, every node at most
    one parent, all edges reachable from the source).  Exponential in
    general: guarded to exemplar-scale platforms.
    @raise Invalid_argument if the platform has more than 24 edges. *)

val max_lp_bound :
  ?cache:Lp.Cache.t ->
  Platform.t ->
  source:Platform.node ->
  targets:Platform.node list ->
  Collective.solution

val scatter_lower_bound :
  ?cache:Lp.Cache.t ->
  Platform.t ->
  source:Platform.node ->
  targets:Platform.node list ->
  Collective.solution

type packing = {
  platform : Platform.t;
  source : Platform.node;
  targets : Platform.node list;
  trees : tree list; (** trees with positive rate *)
  rates : Rat.t list; (** messages per time unit through each tree *)
  throughput : Rat.t; (** sum of rates *)
}

val best_tree_packing :
  ?cache:Lp.Cache.t ->
  Platform.t ->
  source:Platform.node ->
  targets:Platform.node list ->
  packing
(** Optimal throughput achievable by time-sharing multicast trees under
    the one-port constraints (LP over the enumerated trees). *)

val packing_of_trees :
  Platform.t ->
  source:Platform.node ->
  targets:Platform.node list ->
  tree list ->
  packing
(** Optimal time-sharing of a {e given} tree set (LP over the trees);
    {!best_tree_packing} is this applied to the full enumeration. *)

val heuristic_trees :
  ?count:int ->
  Platform.t ->
  source:Platform.node ->
  targets:Platform.node list ->
  tree list
(** Load-aware cheapest-insertion Steiner trees (the heuristic family of
    [7], usable beyond the enumeration guard): the first tree connects
    targets by cheapest insertion; each following tree is built with
    edge costs inflated where previous trees already load the ports, so
    the set is route-diverse.  Returns at most [count] (default 4)
    distinct trees; empty if some target is unreachable. *)

val heuristic_packing :
  ?count:int ->
  Platform.t ->
  source:Platform.node ->
  targets:Platform.node list ->
  packing
(** {!packing_of_trees} over {!heuristic_trees}: an achievable multicast
    throughput on platforms of any size. *)

val best_single_tree :
  Platform.t ->
  source:Platform.node ->
  targets:Platform.node list ->
  (tree * Rat.t) option
(** The single tree with the best sustainable rate
    [1 / (heaviest port load per message)], [None] if no tree reaches
    all targets. *)

val schedule_of_packing : packing -> Schedule.t
(** Periodic schedule for the packing; kinds are tree indices, and each
    transfer's activation delay is its depth inside its tree. *)

type run = {
  elapsed : Rat.t;
  periods : int;
  delivered : Rat.t array; (** per target (analytic, sim-cross-checked) *)
  throughput : Rat.t;
}

val simulate_packing : ?periods:int -> packing -> run
(** Strict execution on the simulator plus the per-edge cross-check in
    data units ({!Schedule.deliver}), as in {!Scatter.simulate}. *)
