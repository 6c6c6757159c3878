(** Linear-programming model layer.

    Steady-state scheduling reduces every throughput question to a linear
    program over per-time-unit activity variables (§3 of the paper).  This
    module provides the model-building DSL — named non-negative
    variables with optional upper bounds, sparse linear expressions,
    constraints, objective — and delegates the solving to the exact
    rational {!Simplex} underneath.  Every variable of the paper's LPs
    is an activity fraction, a rate or a weight, so every variable is
    [>= 0].

    All coefficients are exact rationals; the solver returns exact optimal
    vertices, which is what makes period reconstruction (lcm of
    denominators) possible at all. *)

type var = private int
(** Variable handle for the model that created it: its declaration
    index, its position in {!solution.values} and standard-form column. *)

type model

type linexpr
(** Sparse linear expression: finite map from variables to coefficients. *)

type relation = Le | Ge | Eq

type sense = Maximize | Minimize

(** {1 Model construction} *)

val create : unit -> model

val add_var : ?ub:Rat.t option -> model -> string -> var
(** [add_var m name] declares a fresh variable [x >= 0], with the upper
    bound [x <= u] when [~ub:(Some u)] (default [None]: no upper bound).
    Names are for diagnostics and solution lookup; they must be unique.
    @raise Invalid_argument on duplicate names or [u < 0]. *)

val var_name : model -> var -> string

val find_var : model -> string -> var
(** @raise Not_found if no variable has that name. *)

val num_vars : model -> int
val num_constraints : model -> int

val num_rows : model -> int
(** Constraints plus upper-bounded variables: {!solution.duals}' length. *)

val add_constraint : ?name:string -> model -> linexpr -> relation -> Rat.t -> unit

val set_objective : model -> sense -> linexpr -> unit

(** {1 Linear expressions} *)

val zero : linexpr
val var : var -> linexpr
val term : Rat.t -> var -> linexpr
val add : linexpr -> linexpr -> linexpr
val sub : linexpr -> linexpr -> linexpr
val scale : Rat.t -> linexpr -> linexpr
val neg : linexpr -> linexpr
val of_terms : (Rat.t * var) list -> linexpr
val sum : linexpr list -> linexpr
val eval : (var -> Rat.t) -> linexpr -> Rat.t

(** {1 Solving} *)

type solution = {
  objective : Rat.t;
  values : Rat.t array;  (** per variable, indexed by {!var} *)
  duals : Rat.t array;
      (** exact dual value (shadow price) per row, by position: the
          constraints, then one [ub:<var>] row per upper-bounded
          variable, each in declaration order ({!row_names}).  A [ub:]
          row that {!standard_form} omits as implied reports [0].
          Oriented for the model's sense: a positive dual on a binding
          [Le] row of a [Maximize] model is the objective gain per unit
          of extra right-hand side.  Strong duality holds exactly:
          [objective = sum_r dual_r * rhs_r] where the rhs of an
          [ub:<var>] row is that variable's upper bound; {!certify}
          checks it.  A cached answer is shared: do not mutate it. *)
}

type result =
  | Optimal of solution
  | Infeasible
  | Unbounded

val duals : solution -> Rat.t array
(** [duals sol] is {!solution.duals}, the per-row shadow prices. *)

val value : solution -> var -> Rat.t
(** [value sol v] is [sol.values.(v)]. *)

val constraints : model -> (string * relation * Rat.t) list
(** Constraint names, relations and right-hand sides, in declaration
    order — the rows {!solution.duals} prices, ahead of the [ub:] rows
    described by {!var_bounds}. *)

val var_bounds : model -> (string * Rat.t option) list
(** Variable names with their upper bounds, in declaration order. *)

val row_names : model -> string list
(** The names of the rows {!solution.duals} prices, in its order, for
    display: {!constraints}' names, then [ub:<var>] for each
    upper-bounded variable of {!var_bounds}. *)

module Cache : sig
  (** Exact memo of solved instances.  The key is the structural
      signature plus every model coefficient, right-hand side and upper
      bound (exact decimal dumps — no hashing collisions, no rounding);
      the value is the final {!result}.  Identical re-solves
      (flat trace segments, repeated oracle queries) therefore return
      the very same answer without touching the simplex.  At capacity
      the least-recently-used entry is evicted (and counted), so a
      sweep's working set survives.

      A cache may carry a {!Disk} tier: a crash-safe, cross-process
      store directory consulted on memory misses and written through on
      every solve, so separate processes (CLI, bench, CI runs) reuse
      each other's solves.  Disk records are validated byte-for-byte;
      anything corrupt is quarantined and the solve runs cold — a bad
      cache can cost time, never an answer.  Record values are tagged
      [lpres 4]; a record of any other value format, such as the
      [lpres 3] of the kernel that still saw implied [ub:] rows, is
      quarantined and re-solved.

      Not thread-safe: use one cache per domain/task. *)

  module Disk = Solve_store
  (** The disk tier: see {!Solve_store} for the record format,
      atomic-commit and quarantine semantics.  Open one with
      {!Solve_store.open_store} on a directory (e.g. from [--cache-dir]
      or [STEADY_CACHE_DIR]) and pass it to {!create}. *)

  type t

  val create : ?capacity:int -> ?disk:Disk.t -> unit -> t
  (** [capacity] bounds the number of stored instances (default 512).
      [disk] attaches a persistent tier shared across processes; the
      handle must not be shared between domains.
      @raise Invalid_argument if [capacity <= 0]. *)

  val clear : t -> unit
  (** Drops the in-memory table only; disk records survive. *)

  val hits : t -> int
  (** Cache-served solves, from either tier. *)

  val misses : t -> int

  val evictions : t -> int
  (** In-memory LRU evictions performed. *)

  val disk_hits : t -> int
  (** The subset of {!hits} served by decoding a disk record. *)

  val disk : t -> Disk.t option
  val length : t -> int
end

module Stats : sig
  (** Exact solver-effort counters.  Pass one slot to successive
      {!solve} calls to accumulate how much kernel work a sweep really
      did: pivot counts are deterministic (exact arithmetic,
      deterministic pivot rules), so the bench can report
      them next to wall-clock and attribute a speedup to {e fewer}
      pivots vs {e cheaper} pivots.  Cache hits contribute nothing —
      no kernel ran.  The fields that are always [0] stay so counter
      consumers keep their schema. *)

  type t = {
    mutable solves : int;  (** optimal kernel solves accumulated *)
    mutable pivots : int;  (** simplex pivots across those solves *)
    mutable refactors : int;
        (** always [0]: the tableau kernel never refactorises *)
    mutable cycles_cancelled : int;
        (** flow cycles removed from LP task flows by the cycle
            cancellation in the master–slave solve path *)
    mutable matchings_repaired : int;
        (** always [0]: every schedule is reconstructed from scratch *)
    mutable matchings_rebuilt : int;
        (** matchings the edge colouring emitted, one per schedule slot *)
    mutable slots_reused : int;
        (** always [0]: no slot is taken over from a previous schedule *)
    mutable delays_reused : int;
        (** always [0]: every pipeline delay is computed by longest path *)
    mutable warm_remapped : int;
        (** always [0]: every {!solve} is cold, no basis is imported *)
    mutable retries : int;
        (** failed transfers re-submitted by a failure-aware executor
            (exponential backoff or epoch-boundary re-routing) *)
    mutable backoff_time : Rat.t;
        (** total simulated time spent waiting in backoff before those
            retries *)
  }

  val create : unit -> t

  val add : t -> pivots:int -> unit
  (** Count one solve's effort; exposed so wrappers that bypass
      {!solve} can keep the ledger honest. *)

  val add_reconstruction :
    t -> cycles_cancelled:int -> matchings_rebuilt:int -> unit
  (** Count one reconstruction step's effort; called by the
      reconstruction layer ([Reconstruct.cancel], [Reconstruct.reconstruct]),
      not by {!solve}. *)

  val add_retry : t -> backoff:Rat.t -> unit
  (** Count one transfer retry and the backoff delay that preceded it;
      called by failure-aware executors ({!Dynamic_sched}). *)
end

val solve :
  ?cache:Cache.t ->
  ?stats:Stats.t ->
  model ->
  result
(** [solve m] translates the model to {!standard_form} and runs the exact
    {!Simplex} kernel (Dantzig pricing with its stall-to-Bland
    fallback) from its crash-basis cold start.  Every solve is cold, so
    the answer — vertex, objective and duals — is a pure function of
    the model.  [?cache] short-circuits exactly repeated instances and
    is a pure accelerator: a hit is bit-identical to re-solving.

    [?stats] accumulates exact pivot counts for every optimal kernel
    solve (cache hits add nothing). *)

val standard_form : model -> Simplex.row array * Rat.t array * Rat.t array
(** [standard_form m] is exactly the [(rows, b, c)] instance {!solve}
    hands to {!Simplex.minimize}: min [c.x] s.t. [A x = b], [x >= 0],
    [A] given by its sparse rows.  Column [v] is model variable [v],
    then come the slack columns, one per inequality row; [c] is the
    objective, negated for [Maximize].  The rows are the model
    constraints in declaration order, then one row per upper-bounded
    variable whose bound no model row implies: a [ub:v] row is omitted
    when some [Le] row with only positive coefficients caps [v] at or
    below its bound, i.e. [rhs <= a_v * u_v].  Exposed so tests can
    replay the very same instance through independent solver
    implementations. *)

val value_by_name : model -> solution -> string -> Rat.t
(** Convenience: look a variable up by name in a solution.
    @raise Not_found if the name is unknown. *)

(** {1 Validation and printing} *)

val check_solution : model -> (var -> Rat.t) -> (string, string) Stdlib.result
(** Re-evaluates every bound ([x >= 0] and the upper bounds) and every
    constraint under the given assignment.
    [Ok obj_string] if all hold exactly, [Error msg] naming the first
    violated constraint otherwise.  Used by the test-suite to certify that
    solver output is primal feasible, independent of the solver code. *)

val certify : model -> solution -> (unit, string) Stdlib.result
(** Exact optimality certificate for an answer of {!solve}, checked from
    the model alone: one value per variable and one dual per row
    ({!num_rows}), primal feasibility ({!check_solution}), the
    reported objective equal to the objective at the returned point,
    dual feasibility of {!solution.duals} (the sign each row's relation
    requires, [ub:] rows included, and every variable's reduced cost
    non-negative), and exact strong duality
    [objective = sum_r dual_r * rhs_r].  Together these prove
    the point optimal, whichever vertex the kernel returned.  [Error]
    names the first failing check.  Costs one pass over the model's
    nonzeros, rows by position; no name is built unless a check fails. *)

val pp : Format.formatter -> model -> unit
(** Human-readable dump of the model (CPLEX-LP-like). *)
