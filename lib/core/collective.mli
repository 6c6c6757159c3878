(** Multi-commodity steady-state flow LPs — the common core of the
    pipelined collective operations of §3.2–§3.3.

    One commodity per target processor: [flows.(k).(e)] is
    [send(i,j,k)], the (fractional) number of messages bound for target
    [k] crossing edge [e = (i,j)] per time unit.  All targets receive at
    the common rate [throughput].

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
  source : Platform.node;
  targets : Platform.node list;
  mode : mode;
  throughput : Rat.t; (** messages per time unit, per target *)
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
(** [?cache] memoises exactly repeated solves, as in
    {!Master_slave.solve}.
    @raise Invalid_argument if [targets] is empty, contains the source,
    or contains duplicates.  (Zero throughput is always feasible, so the
    LP is never infeasible.) *)

val solve_reduced :
  ?stats:Lp.Stats.t ->
  mode ->
  Platform.t ->
  source:Platform.node ->
  targets:Platform.node list ->
  solution
(** Structurally reduced {!solve}.  When the part of the platform
    reachable from the source is a tree ({!Tree_decomp.detect}), the
    collective LP has a closed form: commodity [k] must cross the tree
    edge above every subtree holding its target, so with [cnt(v)]
    targets below edge [e = (u,v)] the throughput is

    {v TP = min( 1/(c_e * m_e)  per loaded edge,
             1/sum c_e * m_e  per out-port )     v}

    with multiplicity [m_e = cnt(v)] under [Sum] and [1] under [Max] —
    met exactly by routing [TP] along every source→target tree path.
    No simplex pivot runs; throughput and flows are bit-identical to
    {!solve}'s and satisfy every constraint of the monolithic model
    (the test-suite replays them through {!Lp.check_solution}).  An
    unreachable target forces zero throughput, returned directly.
    Non-tree platforms fall back to the full LP run through the
    {!Lp.Reduce} presolve.
    @raise Invalid_argument as {!solve}. *)

val model :
  mode ->
  Platform.t ->
  source:Platform.node ->
  targets:Platform.node list ->
  Lp.model
(** The exact LP model that {!solve} builds and solves (same variables,
    constraints and objective, in the same order), for inspection and
    for the kernel-equality tests. *)

val model_handles :
  mode ->
  Platform.t ->
  source:Platform.node ->
  targets:Platform.node list ->
  Lp.model * Lp.var * Lp.var array * Lp.var array array
(** {!model} plus the variable handles needed to replay a {!solution}
    through {!Lp.check_solution}: [(model, tp, s_vars, f_vars)] with
    [s_vars.(e)] the busy fraction of edge [e] and [f_vars.(k).(e)] the
    flow of commodity [k] on edge [e]. *)

val message_size : Rat.t
(** Messages are unit-size: a message on edge [e] busies it for [c_e]. *)

val per_edge_flow : solution -> kind:int -> Flow.t
(** The flow of one commodity (alias into [flows]). *)

val check_invariants : solution -> (unit, string) result
(** Independent audit: conservation per commodity, sink rates equal to
    the throughput, port occupancies within 1, and mode law between
    [flows] and [send_frac]. *)
