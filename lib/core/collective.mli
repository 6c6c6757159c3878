(** Multi-commodity steady-state flow LPs — the common core of the
    pipelined collective operations of §3.2–§3.3 and of the
    personalised all-to-all of §4.2.

    One commodity per (source, target) pair: [flows.(k).(e)] is
    [send(i,j,k)], the (fractional) number of messages of the [k]-th
    pair crossing edge [e = (i,j)] per time unit.  Every target receives
    at the common rate [throughput].  A collective from one source has
    one pair per target ({!solve}); {!All_to_all} has one per ordered
    pair of participants ({!solve_pairs}).

    The [mode] selects how simultaneous commodities pay for an edge:
    - [Sum]: [s_ij = sum_k send(i,j,k) * c_ij] — distinct messages, the
      {e scatter} law; the bound is achievable (§4.1);
    - [Max]: [s_ij >= send(i,j,k) * c_ij] for each [k] — identical
      messages may share a transfer, the {e multicast/broadcast}
      relaxation of §3.3; an upper bound that is {b not} always
      achievable (§4.3, Figure 2/3 — reproduced in the test-suite and
      experiments). *)

type mode = Sum | Max

type solution = {
  platform : Platform.t;
  pairs : (Platform.node * Platform.node) list;
      (** commodity [k] runs from the source to the target of the
          [k]-th pair *)
  mode : mode;
  throughput : Rat.t; (** messages per time unit, per pair *)
  flows : Rat.t array array; (** [flows.(k).(e)], cycle-free per kind *)
  send_frac : Rat.t array; (** per edge: busy fraction [s_ij] *)
}

val solve :
  ?cache:Lp.Cache.t ->
  mode ->
  Platform.t ->
  source:Platform.node ->
  targets:Platform.node list ->
  solution
(** The optimal collective flow: {!solve_pairs} on the pairs
    [(source, t)], one per target, in order.  When the part of the
    platform reachable from the source is a tree
    ({!Tree_decomp.detect}), the LP has a closed form: commodity [k]
    must cross the tree edge above every subtree holding its target, so
    with [cnt(v)] targets below edge [e = (u,v)] the throughput is

    {v TP = min( 1/(c_e * m_e)  per loaded edge,
             1/sum c_e * m_e  per port )        v}

    with multiplicity [m_e = cnt(v)] under [Sum] and [1] under [Max] —
    met exactly by routing [TP] along every source→target tree path.
    The tree path is each commodity's only cycle-free route, so
    throughput and flows are those of the monolithic {!model}, bit for
    bit, with no LP built; an unreachable target forces zero
    throughput.  [?cache] is not consulted there.

    Any other platform solves {!model} with {!Lp.solve} through
    [?cache], as in {!Master_slave.solve}.
    @raise Invalid_argument if [targets] is empty, contains the source,
    or contains duplicates, or if the source or a target is not a node.
    (Zero throughput is always feasible, so the LP is never
    infeasible.) *)

val solve_pairs :
  mode ->
  Platform.t ->
  pairs:(Platform.node * Platform.node) list ->
  solution
(** The optimal flow of arbitrary commodities, one per
    [(source, target)] pair, by the one path the platform admits.  When
    the part reachable from the first pair's source is a tree, the
    closed form routes every pair along its tree route (up to the
    meeting node, then down), counts the commodities on each directed
    lane, and takes [TP = min 1/load] over the loaded lanes and every
    port, a lane's load being [c_e] times its commodity count under
    [Sum] and [c_e] under [Max].  An endpoint the root does not reach,
    or a loaded upward lane missing from the platform, forces zero
    throughput.  Any other platform solves {!model_handles}' model.
    @raise Invalid_argument if [pairs] is empty, repeats a pair, pairs
    a node with itself, or names a node the platform lacks. *)

val model :
  mode ->
  Platform.t ->
  source:Platform.node ->
  targets:Platform.node list ->
  Lp.model
(** The exact LP model that {!solve} builds and solves off trees (same
    variables, constraints and objective, in the same order), for
    inspection and for the kernel-equality tests. *)

val model_handles :
  mode ->
  Platform.t ->
  pairs:(Platform.node * Platform.node) list ->
  Lp.model * Lp.var * Lp.var array * Lp.var array array
(** The LP over the commodities [pairs] that {!solve_pairs} solves off
    trees, plus the variable handles needed to replay a {!solution}
    through {!Lp.check_solution}: [(model, tp, s_vars, f_vars)] with
    [s_vars.(e)] the busy fraction of edge [e] and [f_vars.(k).(e)] the
    flow of commodity [k] on edge [e].  Its rows are the mode law per
    edge, the one-port rows per node, the hygiene rows of every
    commodity (nothing into its source, nothing out of its target),
    then every commodity's conservation and sink rows.  With the pairs
    [(source, t)] it is {!model}. *)

val message_size : Rat.t
(** Messages are unit-size: a message on edge [e] busies it for [c_e]. *)
