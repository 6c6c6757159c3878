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

    Any other platform solves {!build_lp} by row-and-column
    generation ({!generate}), at the cost of the flow's support rather
    than the platform's (§3's bandwidth-centric principle: only nodes
    behind fast enough links get work).  It starts from the support of
    the closed form above on the shortest-path tree from the master
    (link cost as length), solves {!build_lp} restricted to the kept
    nodes ({!restricted}), and adds every omitted node that the
    extended duals price in, until none is.  The answer is returned
    only once {!Lp.certify} accepts it on the whole {!build_lp} model;
    should pricing find nothing while the certificate fails, the next
    round keeps every node, which is the whole LP.  So the throughput
    is the LP optimum bit for bit, but the vertex is the kernel's on
    the last restricted LP, zero off it, which may be another optimal
    vertex than the kernel's on {!build_lp} ({!solve_lp_only} still
    returns that one).  Every solve is cold, so the answer is a
    function of the platform alone.  [?cache] memoises each round's
    restricted LP: an exactly repeated instance (flat segments of the
    §5.5 phase workload) hits on every round, and a hit is
    bit-identical to re-solving.  The flow is cycle-cancelled by
    {!Reconstruct.cancel}, which keeps no state: the returned
    [task_flow] is a function of the last round's LP solution alone.
    [?stats] gets each round's {!Lp.solve} (so a round is one
    [solves], and a cache hit adds nothing) and the cycles cancelled.
    @raise Invalid_argument if [master] is not a node.
    @raise Failure if the LP is somehow not optimal (cannot happen on a
    valid platform: the zero schedule is feasible and throughput is
    bounded), or if the whole LP's answer fails its certificate. *)

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
    @raise Invalid_argument if [master] is not a node.
    @raise Failure if the whole LP's answer fails its certificate. *)

val restricted :
  ?cache:Lp.Cache.t ->
  ?stats:Lp.Stats.t ->
  Platform.t ->
  master:Platform.node ->
  kept:bool array ->
  (Lp.solution * Platform.node list, [ `Infeasible | `Unbounded ]) result
(** One round of {!solve}'s generation off trees.  [restricted p
    ~master ~kept] builds {!build_lp} on the nodes [kept] marks only
    (their variables, the send variables of the edges between them,
    and their rows, under {!build_lp}'s names; {!build_lp} itself when
    all are kept), solves it with {!Lp.solve} [?cache ?stats], and
    carries the answer to the whole {!build_lp} model by row and column
    position: omitted variables are 0, kept rows keep their duals, an
    omitted node's conservation row prices -1 (a task there is worth 1)
    and every other row 0.  With it come the omitted nodes pricing
    adds, ascending: the far ends of the edges between the kept nodes
    and the rest whose reduced cost those duals make negative.  With
    [t_u] the value of a task at [u] (minus its conservation dual, 0 at
    the master), [u -> v] is violated when [1 - t_u > c *
    y(outport_u)] and [v -> u] ([u] not the master) when [t_u - c *
    y(inport_u) > 1].  Every other reduced cost of the whole model is
    one of the restriction's, so [Lp.certify (build_lp p ~master)]
    accepts the answer exactly when that list is empty.
    @raise Invalid_argument if [master] is not a node, or [kept] is not
    one flag per node with the master's set. *)

val generate :
  ?cache:Lp.Cache.t ->
  ?stats:Lp.Stats.t ->
  Platform.t ->
  master:Platform.node ->
  (bool array * Lp.solution, [ `Infeasible | `Unbounded ]) result
(** {!solve}'s path off trees up to its certificate: the rounds of
    {!restricted} from the support of the shortest-path tree's closed
    form, each adding the omitted ends of the violated edges, and the
    final node set with the extended answer that [Lp.certify (build_lp
    p ~master)] accepted; {!try_solve} reads its solution off it.  The
    whole model is built once and solved as is by a round keeping every
    node.  Each round adds a node: at most [n] rounds (one [solves]
    each in [?stats] without a cache).  {!solve} calls it off trees.
    @raise Invalid_argument if [master] is not a node.
    @raise Failure if the whole LP's answer fails its certificate. *)

val solve_lp_only :
  ?cache:Lp.Cache.t ->
  ?stats:Lp.Stats.t ->
  Platform.t ->
  master:Platform.node ->
  Lp.model * Lp.result
(** {!build_lp}'s model and the kernel's outcome on it, whatever the
    platform's shape: the monolithic LP that {!solve} does not solve
    (closed form on trees, generation elsewhere), for certification,
    cross-checks and tests. *)

val solve_reduced :
  ?cache:Lp.Cache.t ->
  ?stats:Lp.Stats.t ->
  Platform.t ->
  master:Platform.node ->
  solution
(** {!solve} under its former name, by which the repository benchmark
    ([perfbench/]) calls the tree solve while its workloads stay fixed. *)

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

