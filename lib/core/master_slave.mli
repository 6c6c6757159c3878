(** Steady-state master–slave tasking (§3.1, §4).

    A master node holds a large collection of independent identical
    tasks; each task travels as a unit-size file and costs one
    computational unit wherever it is executed.  The LP below computes
    the optimal steady-state throughput [ntask(G)] in tasks per time
    unit, together with activity variables: [alpha_i] the fraction of
    time node [i] computes, [s_ij] the fraction of time [i] spends
    sending task files to [j].

    {v
      maximize   sum_i alpha_i / w_i
      subject to 0 <= alpha_i <= 1,  0 <= s_ij <= 1
                 sum_j s_ij <= 1                    (out-port)
                 sum_j s_ji <= 1                    (in-port)
                 s_jm = 0                           (master receives nothing)
                 sum_j s_ji/c_ji = alpha_i/w_i + sum_j s_ij/c_ij   (i <> m)
    v}

    The LP value is an upper bound on any schedule's steady-state
    throughput; {!schedule} reconstructs a periodic schedule that meets
    it exactly, which {!simulate} then executes (strictly) on the
    simulator. *)

type solution = {
  platform : Platform.t;
  master : Platform.node;
  ntask : Rat.t; (** optimal throughput, tasks per time unit *)
  alpha : Rat.t array; (** per node *)
  send_frac : Rat.t array; (** per edge: s_ij, after cycle cancelling *)
  task_flow : Flow.t; (** per edge: tasks per time unit = s_ij / c_ij *)
}

val build_lp :
  Platform.t ->
  master:Platform.node ->
  Lp.model * Lp.var array * Lp.var array
(** The steady-state LP of the header, unsolved:
    [(model, alpha_vars, s_vars)] with one activity variable per node
    and one send variable per edge, in platform order.  Exposed so
    tests and benches can certify {e any} claimed solution — including
    {!solve}'s closed-form tree flows — against the model's own
    constraints via {!Lp.check_solution}. *)

val solve :
  ?cache:Lp.Cache.t ->
  ?stats:Lp.Stats.t ->
  Platform.t ->
  master:Platform.node ->
  solution
(** The optimal steady state, by the one path the platform admits.
    When the part of the platform reachable from the master is a tree
    ({!Tree_decomp.detect}: no undirected cycle; every
    {!Platform_gen.random_tree} / {!Platform_gen.balanced_tree} and
    every star qualifies), the LP decomposes exactly into the
    bandwidth-centric closed form: one {!knapsack} per internal node,
    swept bottom-up (subtree absorption capacities) and then top-down
    (exact scaling of each saturated plan to the flow that actually
    arrives).  No LP is built or solved there, so [?cache] is not
    consulted and [?stats] stays untouched.  The throughput is the LP
    optimum bit for bit; the vertex may be another optimal one than
    the kernel's ({!try_solve_lp} returns the kernel's), and it
    satisfies every constraint of {!build_lp} exactly.

    Any other platform solves {!build_lp} with {!Lp.solve}.  Every
    solve is cold, so the answer is a function of the platform alone.
    [?cache] memoises exactly repeated instances (flat segments of the
    §5.5 phase workload); a hit is bit-identical to re-solving.  The
    LP's flow is cycle-cancelled by {!Reconstruct.cancel}, which keeps
    no state: the returned [task_flow] is a function of the LP solution
    alone.  [?stats] accumulates exact pivot counts and the cycles
    cancelled.
    @raise Failure if the LP is somehow not optimal (cannot happen on a
    valid platform: the zero schedule is feasible and throughput is
    bounded). *)

val try_solve :
  ?cache:Lp.Cache.t ->
  ?stats:Lp.Stats.t ->
  Platform.t ->
  master:Platform.node ->
  (solution, [ `Infeasible | `Unbounded ]) result
(** Exception-free {!solve}: a non-optimal LP outcome is surfaced as a
    variant (a tree always answers [Ok]).  Failure-aware planners use
    this on surviving sub-platforms, where a pathological restriction
    must degrade into a structured report rather than escape as an
    exception. *)

val try_solve_lp :
  ?cache:Lp.Cache.t ->
  ?stats:Lp.Stats.t ->
  Platform.t ->
  master:Platform.node ->
  (solution, [ `Infeasible | `Unbounded ]) result
(** {!try_solve} without the tree closed form: the kernel's vertex of
    {!build_lp} on every platform, cycle-cancelled.  The throughput is
    the same; the vertex is not.  {!Dynamic_sched}'s executors plan on
    this one, because they floor [phase * rate] per delivery path: on
    a star whose cheapest links tie in cost, the closed form spreads
    the port's remainder over more, slower slaves than the kernel's
    vertex, and the floors then drop a task per phase or more. *)

val solve_lp_only :
  ?cache:Lp.Cache.t ->
  ?stats:Lp.Stats.t ->
  Platform.t ->
  master:Platform.node ->
  Lp.model * Lp.result
(** {!build_lp}'s model and the kernel's outcome on it, whatever the
    platform's shape: the monolithic LP that {!solve} skips on trees,
    for certification, cross-checks and tests. *)

val solve_reduced :
  ?cache:Lp.Cache.t ->
  ?stats:Lp.Stats.t ->
  Platform.t ->
  master:Platform.node ->
  solution
(** {!solve} under its former name: the repository benchmark
    ([perfbench/]) calls the tree solve by this name, and keeps the
    name while its workloads stay fixed. *)

val knapsack : (int * Rat.t * Rat.t) list -> Rat.t * (int * Rat.t) list
(** [knapsack [(e, c_e, cap_e); ...]] is one node's step of {!solve}'s
    tree closed form: the fractional knapsack
    [max sum_e y_e/c_e] s.t. [sum_e y_e <= 1],
    [0 <= y_e <= min(1, c_e * cap_e)] over the node's child links [e]
    (cost [c_e], subtree capacity [cap_e]).  Returns the optimum and
    one [(e, y_e)] per child, in input order.  Among the optimal
    vertices it picks the one the exact simplex kernel returns on that
    LP, in closed form. *)

val schedule :
  ?recon:Reconstruct.Warm.t ->
  ?strict:bool ->
  ?budget:int ->
  ?stats:Lp.Stats.t ->
  solution ->
  Schedule.t
(** Periodic schedule with integer task counts: the period is the lcm of
    the denominators of the per-edge task flows and per-node task rates
    (§3.1's construction).  With [?recon] the previous schedule is
    repaired instead of rebuilt ({!Reconstruct.reconstruct}), and the
    delay vector is reused when the flow is unchanged
    ({!Reconstruct.delays}); [?budget] caps the matching repairs before
    the certified cold rebuild takes over ({!Reconstruct.reconstruct}'s
    [?budget]), so it bounds time, never changes the answer; with
    [?strict] the warm result is certified against a cold rebuild. *)

val tasks_per_period : Schedule.t -> solution -> Rat.t
(** Equals [ntask * period]. *)

type run = {
  elapsed : Rat.t;
  completed : Rat.t; (** tasks finished, from the simulator's counters *)
  upper_bound : Rat.t; (** ntask * elapsed: no schedule can beat this *)
  expected : Rat.t;
      (** analytic prediction [sum_i n_i max(0, K - delay_i)]: the
          constant-in-K gap of §4.2 *)
}

val simulate : ?periods:int -> solution -> run
(** Execute the reconstructed schedule for [periods] periods (default
    8) in strict mode — raising {!Event_sim.Conflict} if the
    reconstruction ever violates the one-port model — and report
    measured versus analytic throughput. *)

val check_buffers : Schedule.t -> master:Platform.node -> periods:int -> (unit, string) result
(** Logical replay of the task buffers: period by period, every node's
    sends and computations must be covered by task files received in
    {e earlier} periods (the master draws from its initial stock).  The
    pipeline delays attached by {!schedule} make this hold from the very
    first active period — this check is the causality complement to the
    simulator's resource-conflict check. *)
