(** Steady-state scheduling of collections of identical DAGs (§4.2).

    A large number of independent instances of one task graph must be
    executed; steady state asks at which rate instances can complete.
    Following [4,6], the rate-based LP uses [cons(t, i)] — instances of
    task [t] executed on node [i] per time unit — and per-file flows on
    platform edges, with a conservation law per file type tying
    production, transport and consumption together.

    The LP value is an upper bound on the achievable instance
    throughput; for DAGs with polynomially many paths it is tight [4].
    Master–slave tasking is the special case of a two-task DAG (a
    zero-work generator pinned at the master feeding a unit-work
    compute task) — verified in the tests. *)

type task = {
  t_name : string;
  work : Rat.t; (** computational units; 0 for pure data sources *)
  pin : Platform.node option; (** force execution site (e.g. the master) *)
}

type file = {
  f_name : string;
  producer : int; (** task index *)
  consumer : int; (** task index *)
  size : Rat.t; (** data units *)
}

type dag = { tasks : task array; files : file array }

val validate : Platform.t -> dag -> unit
(** @raise Invalid_argument on bad indices, negative work/size, empty
    task list, pins on routing nodes, or a cyclic task graph. *)

type solution = {
  platform : Platform.t;
  dag : dag;
  throughput : Rat.t; (** DAG instances per time unit *)
  cons : Rat.t array array; (** [cons.(task).(node)] *)
  file_flows : Rat.t array array; (** [file_flows.(file).(edge)] *)
}

val solve : Platform.t -> dag -> solution

val check_invariants : solution -> (unit, string) result
(** Conservation per file and node, CPU and port budgets, uniform task
    rates, pin respect. *)

(** {1 Ready-made DAGs} *)

val master_slave_dag : master:Platform.node -> dag
(** The two-task DAG equivalent to §3.1 master–slave tasking. *)

val pipeline_dag :
  ?file_size:Rat.t -> master:Platform.node -> stages:Rat.t list -> unit -> dag
(** A linear chain of compute stages fed by a pinned source: the
    mixed data/task parallelism workload of [6]. *)

val fork_join_dag :
  ?file_size:Rat.t -> master:Platform.node -> branches:Rat.t list -> unit -> dag
(** Source -> parallel branches -> join (join pinned at the master). *)

val grid_dag :
  ?work:Rat.t ->
  ?file_size:Rat.t ->
  master:Platform.node ->
  rows:int ->
  cols:int ->
  unit ->
  dag
(** The "Laplace graph" of the paper's concluding open problem (§6): a
    [rows x cols] dependence grid where task [(i, j)] consumes the
    outputs of [(i-1, j)] and [(i, j-1)], fed by a source pinned at the
    master.  The number of source-to-corner paths is binomial — i.e.
    exponential — yet the rate LP still produces its throughput bound in
    polynomial time; whether that bound is always achievable is exactly
    the paper's conjecture.
    @raise Invalid_argument unless [rows, cols >= 1]. *)
