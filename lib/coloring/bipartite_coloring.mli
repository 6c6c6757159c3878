(** Weighted edge colouring of bipartite graphs (§4.1 of the paper).

    The schedule-reconstruction step builds the bipartite graph with one
    sender node [P_i^send] and one receiver node [P_i^recv] per processor
    and one edge per communication, weighted by its duration within the
    period.  The one-port model allows a set of communications to run
    simultaneously iff it is a matching of this graph, so the period
    decomposes into a sequence of (matching, duration) slots.

    This module implements the weighted generalisation of König's
    edge-colouring theorem (Schrijver, Combinatorial Optimization,
    vol. A, ch. 20): a weighted bipartite graph decomposes into at most
    [|E| + 2|V|] weighted matchings whose durations sum to the maximum
    weighted degree.  In particular, if every node's weighted degree is
    at most the period [T], the communications fit within [T] — which is
    exactly what the one-port constraints of the steady-state LPs
    guarantee. *)

type edge = {
  left : int; (** sender index, [0 .. left_size-1] *)
  right : int; (** receiver index, [0 .. right_size-1] *)
  weight : Rat.t; (** total busy time of this communication, [> 0] *)
  tag : int; (** caller's identifier, carried through untouched *)
}

type matching = {
  duration : Rat.t; (** [> 0] *)
  edges : edge list;
      (** pairwise node-disjoint; [weight] fields hold the {e original}
          edge weights, not the slot duration *)
}

val max_weighted_degree :
  left_size:int -> right_size:int -> edge list -> Rat.t
(** Maximum over all (left and right) nodes of the sum of incident edge
    weights; zero for the empty graph.  Like {!decompose}, it costs
    what the edges cost.
    @raise Invalid_argument on out-of-range endpoints. *)

val decompose : left_size:int -> right_size:int -> edge list -> matching list
(** Decomposes the graph into weighted matchings such that (a) within
    each matching all lefts are distinct and all rights are distinct;
    (b) for every input edge, the durations of the matchings containing
    it sum exactly to its weight; (c) the durations of all matchings sum
    exactly to the maximum weighted degree; (d) there are at most
    [|E| + 2|V|] matchings, [V] the endpoints that carry an edge.
    Time and space grow with the edges, not with [left_size] and
    [right_size]: those only bound the indices.
    @raise Invalid_argument on out-of-range endpoints or non-positive
    weights. *)

val check_decomposition :
  left_size:int -> right_size:int -> edge list -> matching list ->
  (unit, string) result
(** Independent verification of properties (a)-(c) above; used by tests
    and by the schedule validator. *)
