(** Pipelined personalised all-to-all (§4.2, [12]).

    Every participant repeatedly sends a {e distinct} message to every
    other participant; the steady-state LP maximises the common rate
    [TP] at which complete exchange rounds are sustained.

    One commodity per ordered pair [(s, t)] of distinct participants —
    the scatter LP (one commodity per target) with many simultaneous
    sources.  It is {!Collective}'s multi-commodity LP under the [Sum]
    law (messages are distinct), so the bound is achievable by the
    usual reconstruction; model, read-back, tree closed form and
    invariant check are {!Collective}'s. *)

type solution = Collective.solution
(** [pairs] lists the ordered pairs, each source's in participant
    order; [throughput] is the rate on every pair. *)

val solve :
  Platform.t ->
  participants:Platform.node list ->
  solution
(** The optimal exchange rate: {!Collective.solve_pairs} under [Sum]
    on every ordered pair of distinct participants.  When the platform
    is a tree ({!Tree_decomp.detect} rooted at the first participant)
    the closed form applies: with [inP(v)] participants below tree link
    [{u,v}] out of [nP], the link carries [inP(v) * (nP - inP(v))]
    commodities in {e each} direction, and

    {v TP = min( 1/(c_e * m_e)  per loaded lane,
             1/sum c_e * m_e  per out- and in-port )    v}

    met exactly by routing every ordered pair along its tree path, its
    only cycle-free route — so throughput and flows are those of the
    monolithic LP, bit for bit, with no LP built.  A participant
    unreachable from the root, or a loaded upward lane missing from
    the platform, forces zero throughput.

    Any other platform solves the monolithic LP
    ({!Collective.model_handles}).  Beware: it has
    [|participants|^2 * |E|] variables — exact rational simplex keeps
    this practical only for small exemplars.
    @raise Invalid_argument on fewer than two participants, a
    participant that is not a node, or duplicates. *)
