(** Application-level topology inference, in the spirit of ENV [16] and
    AlNeM [13] (§5.3).

    Real platforms hide their physical topology; what a scheduler needs
    is only the {e macroscopic} view — which hosts share a bottleneck.
    The tools probe end-to-end: measure each host's bandwidth from the
    master, then run {e simultaneous} probes to host pairs and compare
    against the sequential baseline; pairs that degrade beyond plain
    master-port serialisation share an internal link.

    Probes run against the simulator (store-and-forward along min-cost
    routes), standing in for a real network.  Like its prototypes the
    inference needs a stable platform and scales quadratically in probe
    count — the limitation §5.3 points out. *)

val route :
  Platform.t -> Platform.node -> Platform.node -> Platform.edge list option
(** Minimum-cost directed path (Dijkstra over edge costs), [None] if
    unreachable. *)

val probe_time : Platform.t -> Platform.edge list list -> Rat.t
(** Simulated completion time of simultaneous store-and-forward unit
    transfers along the given routes (one chain each, all started at
    time 0); the chains contend for ports exactly as the one-port model
    dictates.
    @raise Invalid_argument on an empty or broken route. *)

val measure_bandwidth : Platform.t -> Platform.node -> Platform.node -> Rat.t
(** [1 / probe_time] along the best route; 0 if unreachable. *)

type report = {
  hosts : Platform.node list;
  alone : (Platform.node * Rat.t) list; (** per-host solo probe time *)
  joint : ((Platform.node * Platform.node) * Rat.t) list;
      (** per-pair simultaneous makespan *)
  clusters : Platform.node list list;
      (** hosts grouped by shared-bottleneck evidence *)
}

val bottlenecks :
  Platform.t ->
  master:Platform.node ->
  (string * Rat.t) list
(** Dual-value bottleneck ranking, the LP-principled complement to the
    probe heuristics: solves the master–slave steady-state LP and
    returns the constraints with non-zero optimal dual value, sorted by
    decreasing dual.  A dual is the marginal throughput gained per unit
    of extra capacity on that constraint, so the head of the list names
    the resource that limits the platform — [outport_<node>] /
    [inport_<node>] for saturated one-port links, [conserve_<node>] /
    [ub:alpha_<node>] when a host's compute speed is the binder.  Exact
    rationals, no probe noise; empty only for a degenerate platform
    with zero throughput. *)

val infer :
  Platform.t -> master:Platform.node -> hosts:Platform.node list -> report
(** Pairwise simultaneous probes from the master, then clustering:
    pairs whose joint makespan exceeds the midpoint between the best
    and worst observed pair are deemed to share an internal bottleneck
    (single-linkage closure).  With uniformly-interfering hosts (no
    internal sharing) everything lands in one cluster.
    @raise Invalid_argument if fewer than two hosts or a host is
    unreachable. *)
