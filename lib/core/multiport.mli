(** Multi-port extensions (§5.1.2).

    A host with several network cards can drive several communications
    at once.  The paper distinguishes three regimes:

    - each card is dedicated to one direction (send {e or} receive) and
      to a fixed set of peer cards: the LP gains one constraint per card
      and reconstruction still works (bipartite colouring over cards) —
      implemented here;
    - a card used for both directions: reconstruction is NP-hard (same
      argument as §5.1.1) — out of scope, see {!Send_receive};
    - a card dedicated to a direction but free to talk to any neighbour:
      complexity open (the LP bound below still applies).

    [solve] computes the master–slave steady state where node [i] may
    run [send_cards i] simultaneous sends and [recv_cards i]
    simultaneous receives.  It is {!Master_slave}'s LP with the card
    counts as port budgets ({!Master_slave.Duplex}), read back as
    {!Master_slave.solve}'s; with all card counts 1 its model is
    {!Master_slave.build_lp}'s, so it coincides exactly with the
    one-port LP. *)

type solution = Master_slave.solution

val build_lp :
  Platform.t ->
  master:Platform.node ->
  send_cards:(Platform.node -> int) ->
  recv_cards:(Platform.node -> int) ->
  Lp.model * Lp.var array * Lp.var array
(** The card-budget LP, unsolved: {!Master_slave.ports_lp} with
    [Duplex (send_cards, recv_cards)].
    @raise Invalid_argument if some card count is < 1 or [master] is
    not a node. *)

val solve :
  Platform.t ->
  master:Platform.node ->
  send_cards:(Platform.node -> int) ->
  recv_cards:(Platform.node -> int) ->
  solution
(** {!build_lp} solved by {!Master_slave.solve_ports}, on every platform
    shape (the tree closed form is one-port only).
    @raise Invalid_argument if some card count is < 1 or [master] is
    not a node. *)

type card_schedule = {
  period : Rat.t;
  rounds : Bipartite_coloring.matching list;
      (** each matching pairs distinct (sender card, receiver card)
          slots; its [tag]s are platform edge indices *)
}

val reconstruct :
  solution ->
  send_card:(Platform.edge -> int) ->
  recv_card:(Platform.edge -> int) ->
  send_cards:(Platform.node -> int) ->
  recv_cards:(Platform.node -> int) ->
  card_schedule
(** Reconstruction in the fixed-card regime: [send_card e] names which
    of [src e]'s cards edge [e] is wired to (and symmetrically).  The
    communications decompose into rounds where every card handles at
    most one transfer; total round time is the busiest card's load,
    which the LP keeps within the period as long as each card's edges
    respect its unit budget.
    @raise Invalid_argument on a card index out of range.
    @raise Failure if the wiring overloads some card beyond the period
    (the LP cannot see a per-card split it is not told about). *)
