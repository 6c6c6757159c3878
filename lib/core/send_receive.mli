(** The send-OR-receive model (§5.1.1).

    If a node cannot send and receive simultaneously, the LP is easy to
    adapt — one combined port constraint per node: it is
    {!Master_slave}'s LP with the port rows
    {!Master_slave.Half_duplex}, and the answer is read back as
    {!Master_slave.solve}'s.  Reconstruction, though, now needs an edge
    colouring of an arbitrary (non-bipartite) multigraph, which is
    NP-hard.  Following the paper we keep the LP bound and use a
    polynomial greedy decomposition into independent communication
    rounds; the price is a schedule that may be longer than the period,
    i.e. a throughput ratio below 1 (it is at most 2 by the
    greedy-matching argument, and usually much closer to 1). *)

type solution = Master_slave.solution
(** [ntask] is the send-or-receive LP bound. *)

val solve : Platform.t -> master:Platform.node -> solution
(** {!Master_slave.solve_ports} with {!Master_slave.Half_duplex}: the LP
    on every platform shape (the tree closed form is one-port only).
    @raise Invalid_argument if [master] is not a node. *)

type round = {
  duration : Rat.t;
  comms : (Platform.edge * Rat.t) list;
      (** pairwise node-disjoint edges and the items each carries *)
}

type greedy_schedule = {
  period : Rat.t; (** the LP period [T] *)
  comm_length : Rat.t; (** total length of the greedy rounds *)
  rounds : round list;
  achieved : Rat.t; (** T*ntask / max(T, comm_length): real throughput *)
  efficiency : Rat.t; (** achieved / ntask, in (0, 1] *)
}

val greedy_reconstruct : solution -> greedy_schedule
(** Decomposes the period's communications into rounds where no node
    takes part in two communications (send and receive conflict).  The
    rounds are verified to be independent sets; the bound/achieved gap
    quantifies what the model change costs (experiment E7). *)

val check_rounds : Platform.t -> round list -> (unit, string) result
