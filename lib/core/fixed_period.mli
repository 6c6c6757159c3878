(** Fixed-length periods (§5.4).

    The exact steady-state period (an lcm of denominators) can be huge;
    in practice one may prefer a fixed period [T].  Rounding the rational
    activity variables down to integers loses throughput, but the loss
    vanishes as [T] grows — each edge and node wastes less than one item
    per period, so

    {v throughput(T) >= ntask - (|E| + |V|) / T. v}

    The integral per-period plan is computed as an integral maximum flow
    (Ford–Fulkerson over exact rationals) in a network whose capacities
    are the floored per-period volumes [floor(T f_e)] and
    [floor(T alpha_i / w_i)], which restores exact conservation after
    flooring. *)

type quantized = {
  period : Rat.t;
  edge_items : Rat.t array; (** integral tasks per period per edge *)
  node_tasks : Rat.t array; (** integral tasks computed per node *)
  tasks_per_period : Rat.t;
  throughput : Rat.t; (** tasks_per_period / period *)
}

val quantize : Master_slave.solution -> period:Rat.t -> quantized
(** @raise Invalid_argument on a non-positive period. *)

val schedule_of :
  ?strict:bool ->
  Master_slave.solution ->
  quantized ->
  Schedule.t
(** Reconstructed fixed-period schedule (strictly executable).  With
    [?strict] the schedule must pass {!Reconstruct.certify}
    ({!Reconstruct.reconstruct}). *)

val series :
  Master_slave.solution -> periods:Rat.t list -> (Rat.t * quantized) list
(** Throughput as a function of the period length — experiment E9. *)

val sweep :
  Platform.t ->
  master:Platform.node ->
  periods:Rat.t list ->
  Master_slave.solution * (Rat.t * quantized) list
(** Platform-level convenience for the E9 workload: solve the
    steady-state problem once ({!Master_slave.solve}, no memo) and
    quantize at every requested period. *)
