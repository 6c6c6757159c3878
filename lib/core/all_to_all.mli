(** Pipelined personalised all-to-all (§4.2, [12]).

    Every participant repeatedly sends a {e distinct} message to every
    other participant; the steady-state LP maximises the common rate
    [TP] at which complete exchange rounds are sustained.

    One commodity per ordered pair [(s, t)] of distinct participants —
    the natural generalisation of the scatter LP (one commodity per
    target) to many simultaneous sources.  Like scatter it uses the
    [Sum] law (messages are distinct), so the bound is achievable by the
    usual reconstruction. *)

type solution = {
  platform : Platform.t;
  participants : Platform.node list;
  throughput : Rat.t;
      (** messages per time unit on every (source, target) pair *)
  flows : ((Platform.node * Platform.node) * Rat.t array) list;
      (** per ordered pair: cycle-free per-edge flow *)
}

val solve :
  Platform.t ->
  participants:Platform.node list ->
  solution
(** The optimal exchange rate.  When the platform is a tree
    ({!Tree_decomp.detect} rooted at the first participant) the pair
    LP has a closed form: with [inP(v)] participants below tree link
    [{u,v}] out of [nP], the link carries [inP(v) * (nP - inP(v))]
    commodities in {e each} direction, and

    {v TP = min( 1/(c_e * m_e)  per loaded lane,
             1/sum c_e * m_e  per out- and in-port )    v}

    met exactly by routing every ordered pair along its tree path, its
    only cycle-free route — so throughput and flows are those of the
    monolithic LP, bit for bit, with no LP built.  A participant
    unreachable from the root, or a loaded upward lane missing from
    the platform, forces zero throughput.

    Any other platform solves the monolithic LP ({!model_handles}).
    Beware: it has [|participants|^2 * |E|] variables — exact rational
    simplex keeps this practical only for small exemplars.
    @raise Invalid_argument on fewer than two participants or
    duplicates. *)

val model_handles :
  Platform.t ->
  participants:Platform.node list ->
  Lp.model
  * Lp.var
  * Lp.var array
  * ((Platform.node * Platform.node) * Lp.var array) list
(** The monolithic pair LP that {!solve} builds off trees, with the variable
    handles needed to replay a {!solution} through
    {!Lp.check_solution}: [(model, tp, s_vars, f_vars)] with
    [s_vars.(e)] the busy fraction of edge [e] and per ordered pair one
    flow variable per edge. *)

val check_invariants : solution -> (unit, string) result
(** Conservation per commodity, sink rates, port budgets. *)
