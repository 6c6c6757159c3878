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
    simulator.

    §5.1's port models change only the two port rows ({!ports}):
    {!Multiport} gives each port a card budget, {!Send_receive} merges
    them into one half-duplex port.  Both build this LP with
    {!ports_lp} and read it back as {!solve} does. *)

type solution = {
  platform : Platform.t;
  master : Platform.node;
  ntask : Rat.t; (** optimal throughput, tasks per time unit *)
  alpha : Rat.t array; (** per node *)
  send_frac : Rat.t array; (** per edge: s_ij, after cycle cancelling *)
  task_flow : Flow.t; (** per edge: tasks per time unit = s_ij / c_ij *)
}

type ports =
  | Duplex of (Platform.node -> Rat.t) * (Platform.node -> Rat.t)
      (** [Duplex (send, recv)]: node [i]'s out-edges share a budget of
          [send i] ([sum_j s_ij <= send i]) and its in-edges one of
          [recv i]; one-port is both budgets 1, {!Multiport}'s cards
          are the card counts *)
  | Half_duplex
      (** one combined port per node, [sum_j s_ij + sum_j s_ji <= 1]
          (§5.1.1's send-or-receive model, {!Send_receive}) *)
(** The port rows of the LP: the only thing the master–slave models of
    §3.1 and §5.1 differ in. *)

val ports_lp :
  string ->
  ports ->
  Platform.t ->
  master:Platform.node ->
  Lp.model * Lp.var array * Lp.var array
(** [ports_lp fn ports p ~master] is the steady-state LP of the header
    with the port rows [ports] in place of the one-port rows, unsolved:
    [(model, alpha_vars, s_vars)] with one activity variable per node
    and one send variable per edge, in platform order.  The rows are
    the port rows (node by node: [outport_i] then [inport_i], or
    [port_i]), [nomaster_e] and [conserve_i].
    @raise Invalid_argument naming [fn] if [master] is not a node. *)

val build_lp :
  Platform.t ->
  master:Platform.node ->
  Lp.model * Lp.var array * Lp.var array
(** The one-port LP of the header: {!ports_lp} with both budgets 1.
    Exposed so tests and benches can certify {e any} claimed solution —
    including {!solve}'s closed-form tree flows — against the model's
    own constraints via {!Lp.check_solution}.
    @raise Invalid_argument if [master] is not a node. *)

val solve_ports :
  string -> ports -> Platform.t -> master:Platform.node -> solution
(** [solve_ports fn ports p ~master] solves {!ports_lp} with {!Lp.solve}
    on any platform shape (the tree closed form is one-port only) and
    reads the answer back as {!solve}'s LP path does: [ntask] is the
    objective, [alpha] the activity values, and [task_flow] the
    send variables over their costs, cycle-cancelled by
    {!Reconstruct.cancel}; [send_frac] is [task_flow * c].
    @raise Invalid_argument naming [fn] if [master] is not a node.
    @raise Failure naming [fn] if the LP is somehow not optimal. *)

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
    bandwidth-centric closed form: per node a fractional knapsack over
    its child links ([max sum y_e/c_e] s.t. [sum y_e <= 1],
    [0 <= y_e <= min(1, c_e * cap_e)], [cap_e] the child subtree's
    absorption rate), then a top-down sweep that scales each saturated
    plan to the flow that actually arrives.  Each knapsack picks, among
    its optimal vertices, the one the exact simplex kernel returns on
    its LP.  The sweep is lazy: a knapsack is solved only at the master
    and at each node with children whose parent's knapsack is solved
    and whose link is faster than its CPU ([c_e * speed < 1]; otherwise
    the bound is 1 and the node keeps all it receives), and a fill
    stops once the port is full.  The answer is the one every node's
    knapsack would give.  No LP is built or solved there, so [?cache]
    is not consulted and [?stats] stays untouched.  The throughput is the LP
    optimum bit for bit; the vertex may be another optimal one than
    the kernel's ({!solve_lp_only} returns the kernel's), and it
    satisfies every constraint of {!build_lp} exactly.  Whole-task
    phase plans do not floor either vertex on a tree:
    {!Dynamic_sched.plan_phase} plans those with an integral sweep.

    Any other platform solves {!build_lp} with {!Lp.solve}.  Every
    solve is cold, so the answer is a function of the platform alone.
    [?cache] memoises exactly repeated instances (flat segments of the
    §5.5 phase workload); a hit is bit-identical to re-solving.  The
    LP's flow is cycle-cancelled by {!Reconstruct.cancel}, which keeps
    no state: the returned [task_flow] is a function of the LP solution
    alone.  [?stats] accumulates exact pivot counts and the cycles
    cancelled.
    @raise Invalid_argument if [master] is not a node.
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
    exception.
    @raise Invalid_argument if [master] is not a node. *)

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

val schedule :
  ?strict:bool ->
  ?stats:Lp.Stats.t ->
  solution ->
  Schedule.t
(** Periodic schedule with integer task counts, by {!Reconstruct}'s
    pipeline: the period is {!Reconstruct.task_period} (§3.1's
    construction), the task files are {!Reconstruct.demands} with the
    pipeline delays of {!Flow.delays}, and each node computes
    [period * alpha_i / w_i] tasks ({!Schedule.tasks_per_period} is
    [ntask * period]).  With [?strict] the schedule must pass
    {!Reconstruct.certify}; [?stats] counts its matchings. *)

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
    8) in strict mode ({!Schedule.run}) — raising {!Event_sim.Conflict} if the
    reconstruction ever violates the one-port model — and report
    measured versus analytic throughput. *)

val check_buffers : Schedule.t -> master:Platform.node -> periods:int -> (unit, string) result
(** Logical replay of the task buffers: period by period, every node's
    sends and computations must be covered by task files received in
    {e earlier} periods (the master draws from its initial stock).  The
    pipeline delays attached by {!schedule} make this hold from the very
    first active period — this check is the causality complement to the
    simulator's resource-conflict check. *)
