(** Utilities on per-edge rational flows over a platform.

    LP optima may contain directed flow cycles (they cost bandwidth but
    not objective, so degenerate vertices can carry them).  Schedule
    reconstruction wants cycle-free flows: with an acyclic flow, delaying
    each node by its longest-path depth from the sources makes the
    periodic schedule executable with non-negative buffers from the first
    active period (§4.2's "the initialization needs at most the depth of
    the platform graph" argument). *)

type t = Rat.t array
(** One entry per platform edge: flow value in items per time unit
    (non-negative). *)

val zero : Platform.t -> t

val cancel_cycles : Platform.t -> t -> t
(** Removes all directed cycles from the support of the flow by
    repeatedly cancelling the minimum flow along a cycle.  Node balances
    (inflow minus outflow, per node) are preserved exactly.  The result
    is a function of the platform and the flow alone, and the input is
    left untouched. *)

val cancel_cycles_counted : Platform.t -> t -> t * int
(** As {!cancel_cycles}, also returning the number of cycles cancelled. *)

val is_acyclic : Platform.t -> t -> bool
(** No directed cycle among edges with positive flow? *)

val balance : Platform.t -> t -> Platform.node -> Rat.t
(** Inflow minus outflow at a node. *)

val support : t -> Platform.edge list
(** The edges with positive flow, ascending. *)

val delays : Platform.t -> t -> int array
(** Longest-path depth of each node in the DAG of positive-flow edges
    (nodes without positive inflow have delay 0).  Delaying node [i]'s
    periodic plan by [delays.(i)] periods guarantees non-negative buffers.
    @raise Invalid_argument if the flow support is cyclic. *)

val support_delays : Platform.t -> t -> Platform.edge list -> int array
(** [support_delays p f (support f)] is [delays p f]: the pass visits
    the support's nodes and their out-edges only. *)
