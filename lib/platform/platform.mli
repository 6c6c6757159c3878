(** The platform model of §2.

    A platform is a node-weighted edge-weighted directed graph
    [G = (V, E, w, c)]: node [Pi] needs [w_i] time units per computational
    unit ([w_i = +oo] for a node that can only forward data), and edge
    [e_ij] needs [c_ij] time units per data unit.  Edges are oriented; a
    full-duplex physical link is two edges.  All [c_ij] are finite and
    positive — a missing link is simply an absent edge.

    The operation mode is the {e full-overlap, single-port} model: a node
    can simultaneously receive from at most one neighbour, send to at most
    one neighbour, and compute. *)

type t

type node = int
(** Dense indices [0 .. num_nodes-1]. *)

type edge = int
(** Dense indices [0 .. num_edges-1]. *)

(** {1 Construction} *)

val create :
  names:string array ->
  weights:Ext_rat.t array ->
  edges:(int * int * Rat.t) list ->
  t
(** [create ~names ~weights ~edges] builds a platform.  [weights.(i)] is
    [w_i]; each [(i, j, c)] in [edges] is an oriented link with cost
    [c > 0].  Validation: array lengths agree, names unique and non-empty,
    no finite non-positive weight, costs positive, endpoints in range, no
    self-loops, no duplicate [(i, j)] edges.  The error reported is the
    first in that order of kinds, where the edges count as one kind:
    the earliest failing edge in list order, and within one edge range,
    then self-loop, then cost, then a repeat of an earlier edge.
    @raise Invalid_argument if any check fails. *)

(** {1 Building incrementally}

    {!create} and {!Platform_parse} share one builder: nodes and edges
    are added one at a time, the names go into the platform's own name
    table (each one keyed once, when a lookup first needs the table), and
    {!finish} runs {!create}'s checks, with its messages and in its
    order, and indexes the edges. *)

type builder

val builder : unit -> builder
(** An empty builder.  It grows in pages, so what it allocates follows
    what is added, and growing copies nothing large. *)

val add_node : builder -> string -> Ext_rat.t -> unit
(** Adds the next node.  The name table keeps the first node of each
    name; an empty or repeated name is not entered, and {!finish}
    reports the first one. *)

val find : builder -> string -> int -> int -> node
(** [find b s i e] is the first node added so far under the name
    [s.[i .. e - 1]], or [-1], found by keying the slice where it
    stands: a name of at most 7 bytes is its own key, a longer one is
    hashed and compared.  Parsers use it to resolve names in their text
    without copying them. *)

val add_edge : builder -> node -> node -> Rat.t -> edge
(** Adds the next edge and returns its index.  Nothing is checked until
    {!finish}. *)

val set_ends : builder -> edge -> node -> node -> unit
(** [set_ends b k i j] makes the added edge [k] run from [i] to [j]:
    a parser adds an edge whose endpoint is declared later in its text
    with placeholder ends, and sets them once the name is known.
    @raise Invalid_argument if no edge [k] was added. *)

val finish : builder -> t
(** The platform, which takes over the builder's arrays: do not use the
    builder afterwards.
    @raise Invalid_argument if a check of {!create} fails. *)

(** {1 Size} *)

val num_nodes : t -> int
val num_edges : t -> int

(** {1 Nodes} *)

val name : t -> node -> string
val weight : t -> node -> Ext_rat.t

val speed : t -> node -> Rat.t
(** [1 / w_i]; zero when [w_i = +oo].  This is the rate at which the node
    processes computational units, the form in which [w_i] enters LPs. *)

val find_node : t -> string -> node
(** @raise Not_found on unknown name. *)

val nodes : t -> node list

(** {1 Edges} *)

val edge_src : t -> edge -> node
val edge_dst : t -> edge -> node
val edge_cost : t -> edge -> Rat.t
val edges : t -> edge list
val out_edges : t -> node -> edge list
(** The edges leaving a node, ascending. *)

val in_edges : t -> node -> edge list
(** The edges entering a node, ascending. *)

(** The out-edges without a list: [out_edge p k] for [k] from
    [out_lo p i] to [out_hi p i - 1] are node [i]'s out-edges, ascending
    (compressed sparse rows). *)

val out_lo : t -> node -> int
val out_hi : t -> node -> int
val out_edge : t -> int -> edge

val find_edge : t -> node -> node -> edge option
val edge_name : t -> edge -> string
(** ["src->dst"] using node names; for diagnostics and LP variable names. *)

(** {1 Graph queries} *)

val reachable_from : t -> node -> bool array
(** Nodes reachable by directed paths (including the start node). *)

val depth_from : t -> node -> int
(** Eccentricity of [node] over its reachable set (BFS hop count): the
    number of periods needed to ramp into steady state is bounded by this
    (§4.2). *)

val is_spanning_from : t -> node -> bool
(** All nodes reachable from [node]? *)

val shortest_path : t -> node -> node -> edge list option
(** Minimum-cost directed path under the edge costs (Dijkstra); [None]
    if unreachable, [Some []] when source = destination. *)

val multi_source_shortest_path :
  t -> sources:node list -> node -> edge list option
(** Cheapest path from {e any} of the sources to the destination — the
    building block of cheapest-insertion Steiner heuristics. *)

val shortest_path_tree : t -> node -> edge array
(** Per node, the last edge of the minimum-cost directed path from the
    source that {!shortest_path} returns; [-1] at the source and at
    unreached nodes.  The edges form a tree rooted at the source. *)

val transpose : t -> t
(** Platform with every edge reversed (costs kept) — reduce operations
    are scatters on the transposed platform (§4.2). *)

val reachable_via : t -> alive:(edge -> bool) -> node -> bool array
(** Like {!reachable_from}, but only traversing edges for which [alive]
    holds — the connectivity query of failure-aware planning: which
    nodes can the master still feed over surviving links? *)

val restrict_nodes : t -> keep:(node -> bool) -> t * node array
(** Induced sub-platform on the kept nodes; also returns the array
    mapping new indices to old ones. *)

type restriction = {
  sub : t;  (** the restricted platform *)
  node_of_sub : node array;  (** sub node index -> original node *)
  sub_of_node : int array;  (** original node -> sub index, [-1] if dropped *)
  edge_of_sub : edge array;  (** sub edge index -> original edge *)
  sub_of_edge : int array;  (** original edge -> sub index, [-1] if dropped *)
}
(** A sub-platform together with both directions of the index
    renaming, so plans computed on [sub] can be executed on (and
    measurements read back from) the original platform. *)

val restrict :
  ?weights:(node -> Ext_rat.t) ->
  ?costs:(edge -> Rat.t) ->
  t ->
  keep_node:(node -> bool) ->
  keep_edge:(edge -> bool) ->
  restriction
(** Sub-platform induced by the kept nodes {e minus} the dropped edges
    (an edge survives iff both endpoints are kept and [keep_edge]
    holds).  [?weights] overrides node weights in the restriction —
    failure-aware planners use it to turn a compute-dead but reachable
    node into a pure relay ([Ext_rat.Inf]) — and [?costs] the costs of
    the kept edges, so a planner scales the restriction without
    building the scaled whole platform first. *)

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
(** Structural equality (same names, weights, edges and costs, in the
    same index order). *)
