(** Periodic steady-state schedules (§4.1).

    A schedule describes one period of duration [T]: a sequence of
    communication {e slots} — within a slot all transfers form a matching
    of the sender/receiver bipartite graph, so they may run
    simultaneously under the one-port model — plus per-node compute
    amounts that overlap with communication (full-overlap model).

    Slots come out of the weighted bipartite edge colouring
    ({!Reconstruct.reconstruct}): the LP one-port constraints guarantee
    the maximum weighted degree is at most [T], hence the slots fit in
    the period.  This polynomial-size description is exactly the paper's
    answer to "[T] may be exponential, don't describe each time step".

    Items are the problem's unit of payload (task files, scatter
    messages...); [kind] distinguishes payload classes (e.g. the target
    processor of a scatter message) and is opaque here. *)

type transfer = {
  edge : Platform.edge;
  kind : int;
  items : Rat.t; (** number of items moved in this slot *)
  item_size : Rat.t; (** data units per item *)
  delay : int;
      (** first period in which this transfer runs: items of a kind can
          only be forwarded once upstream nodes have started supplying
          them, and different kinds ramp at different depths *)
}

type slot = {
  offset : Rat.t; (** start, relative to the period start *)
  duration : Rat.t;
  transfers : transfer list; (** a matching: disjoint senders, receivers *)
}

type demand = {
  d_edge : Platform.edge;
  d_kind : int;
  d_items : Rat.t; (** items per period *)
  d_item_size : Rat.t;
  d_delay : int;
}

type t = {
  platform : Platform.t;
  period : Rat.t;
  slots : slot list; (** consecutive, [offset]s increasing *)
  compute : (Platform.node * Rat.t) list;
      (** work units per node per period (at most one entry per node) *)
  delays : int array;
      (** per node: how many periods to wait before activating its
          {e compute} plan; together with the per-transfer delays this
          bounds the ramp-up (initialisation) phase of §4.2 *)
  demands : demand array;
      (** the communication volumes this schedule was reconstructed
          from, in input order — what {!Reconstruct.certify} audits the
          slots against *)
}

val slot_count : t -> int

val items_on_edge : t -> Platform.edge -> kind:int -> Rat.t
(** Total items of a kind crossing an edge per period. *)

val compute_work : t -> Platform.node -> Rat.t

val check_well_formed : t -> (unit, string) result
(** Structural audit: slots within the period and non-overlapping, slot
    transfers are matchings that fit their duration, computes fit the
    period. *)

val execute :
  sim:Event_sim.t -> periods:int -> ?strict:bool -> t -> unit
(** Program [periods] periods of the schedule into the simulator
    (starting at the simulator's time origin; caller runs it).  Node
    plans are activated only from period [delays.(node)] on; transfers
    are activated from period [delays.(source)].  With [strict] (the
    default), any one-port violation raises {!Event_sim.Conflict} — a
    successful strict run is a machine-checked feasibility certificate
    for the reconstruction. *)

val run : periods:int -> t -> Event_sim.t
(** The strict run: {!execute} [periods] periods on a fresh simulator
    of the schedule's platform and run it to the end.  Raises
    {!Event_sim.Conflict} on any one-port violation. *)

val completed : Event_sim.t -> Rat.t
(** Work units completed on all nodes of the simulator's platform (tasks,
    for a master–slave schedule). *)

val tasks_per_period : t -> Rat.t
(** Work units computed per period, all nodes together. *)

val completed_after : t -> int -> Rat.t
(** Analytic completions after [k] periods:
    [sum_i n_i * max(0, k - delays.(i))] over the compute plan — the
    constant-in-[k] ramp-up gap of §4.2. *)

val deliver : periods:int -> t -> (demand -> bool) list -> Rat.t array
(** The strict {!run} of a collective schedule, cross-checked: every
    edge must carry exactly the data units its demands move in their
    active periods ([items * item_size] per period from [d_delay] on).
    Returns, per predicate, the items delivered by the demands it
    selects (those into one target, say), in the predicates' order.
    @raise Failure if the cross-check fails. *)

val pp : Format.formatter -> t -> unit

val render_timeline : ?width:int -> t -> string
(** ASCII Gantt chart of one period: one lane per busy resource (cpu /
    send / recv per node), time scaled to [width] columns (default 64).
    Communication slots show the kind digit of the transfer they carry;
    compute lanes show [#].  Intended for humans: exact numbers live in
    {!pp}. *)
