(** Shared tree structure behind the closed-form tree solves.

    {!Master_slave.solve}, {!Collective.solve} and {!All_to_all.solve}
    each begin with {!detect}: its answer alone decides whether the
    closed form runs or the monolithic LP is built.  On a tree they
    then sweep it bottom-up absorbing per-subtree quantities (knapsack
    capacities, target counts, participant splits).  This module owns
    both steps so the tree-detection contract is stated — and tested —
    once. *)

type t = {
  root : Platform.node;
  order : Platform.node array;
      (** BFS order over the reachable set, root first *)
  parent_edge : int array;
      (** per node: the tree edge [parent -> node]; [-1] at the root
          and at unreached nodes *)
  reached : bool array;
}

val detect : Platform.t -> root:Platform.node -> t option
(** [Some t] when the subgraph reachable from [root] (over directed
    edges) is a tree: every edge out of a reached node is a BFS tree
    edge [parent -> child] or the reverse of one, so the reached nodes
    share exactly [#reached - 1] undirected links.  Reverse edges of
    tree links are allowed (they are part of the same undirected link);
    anything creating an undirected cycle is not.  Parallel directed
    edges cannot occur: {!Platform.create} rejects them.  [None]
    otherwise — the solvers then build and solve the monolithic LP. *)

val parent : Platform.t -> t -> Platform.node -> Platform.node
(** The tree parent.
    @raise Invalid_argument at the root or an unreached node. *)

val children : Platform.t -> t -> (int * Platform.node) list array
(** Per node: its [(tree_edge, child)] pairs in BFS discovery order;
    empty at leaves and unreached nodes. *)

val bottom_up :
  Platform.t -> t -> default:'a -> f:(Platform.node -> (int * 'a) list -> 'a) ->
  'a array
(** [bottom_up p t ~default ~f] folds the tree children-first: [f v cs]
    receives one [(tree_edge, child_value)] pair per child of [v] and
    produces [v]'s value.  Unreached nodes keep [default].  This is the
    absorption sweep of every tree decomposition; the master–slave
    knapsack chain is [f = knapsack]. *)

val subtree_sums : Platform.t -> t -> seed:(Platform.node -> int) -> int array
(** Subtree integrals of a per-node seed: entry [v] is
    [sum of seed(w) over w in the subtree rooted at v].  With an
    indicator seed this is the per-edge commodity multiplicity of the
    collective decompositions. *)

val up_edges : Platform.t -> t -> int array
(** Per node: the directed edge back to its tree parent, or [-1] when
    the platform lacks it (and at the root / unreached nodes).  The
    upward half of the all-to-all routes. *)
