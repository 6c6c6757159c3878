(** Start-up costs and the √n grouping strategy (§5.2).

    When sending [n] items over edge [e] costs [C_e + n c_e] (affine,
    not linear), the plain steady-state machinery no longer applies
    directly.  The paper's recipe: group [m] consecutive periods into
    one mega-period so the per-round start-ups amortise, and pick
    [m = ceil(sqrt(n / ntask(G)))] so that

    {v T(n) / Topt(n) <= 1 + O(1/sqrt(n)). v}

    Each communication slot of the base schedule becomes one
    communication round per mega-period: its transfers carry [m] periods
    worth of items and pay their start-up once; the slot stretches by the
    largest start-up among its transfers. *)

type grouped = {
  base : Schedule.t;
  m : int; (** periods grouped per mega-period *)
  mega_period : Rat.t;
  tasks_per_mega : Rat.t;
}

val group : Master_slave.solution -> startup:(Platform.edge -> Rat.t) -> m:int -> grouped
(** @raise Invalid_argument if [m <= 0] or a start-up cost is negative. *)

val recommended_m : Master_slave.solution -> tasks:int -> int
(** [ceil (sqrt (n / ntask))], the paper's choice. *)

type point = {
  tasks : int;
  m : int;
  mega_periods : int;
  makespan : Rat.t;
  lower_bound : Rat.t; (** n/ntask: start-ups only make platforms slower *)
  ratio : float;
}

val makespan_for :
  Master_slave.solution ->
  startup:(Platform.edge -> Rat.t) ->
  tasks:int ->
  point
(** Uses {!recommended_m}. *)

val ratio_series :
  Master_slave.solution ->
  startup:(Platform.edge -> Rat.t) ->
  task_counts:int list ->
  point list

val sweep :
  Platform.t ->
  master:Platform.node ->
  startup:(Platform.edge -> Rat.t) ->
  task_counts:int list ->
  Master_slave.solution * point list
(** Platform-level convenience for the E8 workload: solve the
    steady-state problem once ({!Master_slave.solve}, no memo) and
    compute the makespan ratio at every requested task count. *)

val simulate_grouped :
  grouped -> startup:(Platform.edge -> Rat.t) -> mega_periods:int -> Rat.t
(** Strictly executes the grouped schedule with affine transfer times on
    the simulator (start-up modelled as [C_e / c_e] extra data units)
    and returns the completed task count.  Raises
    {!Event_sim.Conflict} if grouping ever violates the one-port
    model. *)
