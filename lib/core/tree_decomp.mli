(** Shared tree structure behind the closed-form tree solves.

    {!Master_slave.solve} and {!Collective.solve_pairs} (behind
    {!Collective.solve} and {!All_to_all.solve}) each begin with
    {!detect}: its answer alone decides whether the closed form runs or
    an LP is built (the generation of {!Master_slave.generate}, or the
    monolithic collective LP).  On a tree the master–slave form runs
    the bandwidth-centric sweep over the children ranges
    ([child_lo]/[child_hi]); the multi-commodity form walks each
    commodity's route along {!parent} links and {!up_edges}, counting
    commodities per directed lane.  This module owns the structure so
    the tree-detection contract is stated — and tested — once. *)

type t = {
  root : Platform.node;
  order : Platform.node array;
      (** BFS order over the reachable set, root first *)
  parent_edge : int array;
      (** per node: the tree edge [parent -> node]; [-1] at the root
          and at unreached nodes *)
  reached : bool array;
  child_lo : int array;
  child_hi : int array;
      (** per node [v]: its children are [order.(k)] for
          [child_lo.(v) <= k < child_hi.(v)], in BFS discovery order
          (the order of [v]'s out-edges); child [u]'s tree edge is
          [parent_edge.(u)].  An empty range at leaves and unreached
          nodes. *)
}

val detect : Platform.t -> root:Platform.node -> t option
(** [Some t] when the subgraph reachable from [root] (over directed
    edges) is a tree: every edge out of a reached node is a BFS tree
    edge [parent -> child] or the reverse of one, so the reached nodes
    share exactly [#reached - 1] undirected links.  Reverse edges of
    tree links are allowed (they are part of the same undirected link);
    anything creating an undirected cycle is not.  Parallel directed
    edges cannot occur: {!Platform.create} rejects them.  [None]
    otherwise — the solvers then build and solve the monolithic LP.
    One pass over the reached nodes' out-edges, with no recursion, so
    a long chain costs no stack. *)

val of_parents : Platform.t -> root:Platform.node -> int array -> t
(** [of_parents p ~root parent_edge] is the decomposition of a tree
    that [p]'s edges span: [parent_edge.(v)] is the edge [parent -> v]
    of each node the tree reaches from [root] ([-1] at the root and at
    the others), as {!Platform.shortest_path_tree} gives it.  Children
    ranges, order and [reached] are those {!detect} would give on the
    platform of the tree edges alone.  The array is taken over.
    {!Master_slave.solve} runs the closed form on the shortest-path
    tree this way to seed its generation off trees. *)

val parent : Platform.t -> t -> Platform.node -> Platform.node
(** The tree parent.
    @raise Invalid_argument at the root or an unreached node. *)

val up_edges : Platform.t -> t -> int array
(** Per node: the directed edge back to its tree parent, or [-1] when
    the platform lacks it (and at the root / unreached nodes).  The
    upward half of the multi-commodity routes. *)
