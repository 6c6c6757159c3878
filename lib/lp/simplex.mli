(** Exact two-phase primal simplex over rationals — the library's only
    LP kernel.

    Solves the standard form

    {v minimize c.x   subject to   A x = b,  x >= 0 v}

    with every coefficient an exact {!Rat.t}.  [A] arrives as sparse
    rows; the kernel expands it into a dense tableau with zero-skipping
    elimination.  The cold start is a crash basis: each
    row that owns a column with a single nonzero entry, positive once
    negative-[b] rows are flipped (a slack, typically), starts with that
    column basic; artificials are added only for the remaining rows,
    and phase 1 is skipped when there are none.  Degeneracy is handled by pivot rules,
    not perturbation: {!Dantzig} (most-negative reduced cost, the
    default) is usually faster and falls back to Bland's rule after a
    stall; {!Bland} never cycles.  Both terminate.

    {b Representation.}  One driver runs both phases on a row-major
    tableau, allocated per solve, over one of two cell types, each of
    which supplies only its loops over cells.  Every solve starts on
    packed cells: the cells — and the right-hand side, reduced costs and
    objective — are canonical rationals [num/den] with [|num| < 2^30]
    and [0 < den < 2^30], each packed into one native int ({!Packed}),
    so the tableau is one [int array] and a cell update is one fused,
    allocation-free multiply-subtract.  {b Restart rule:} if any value
    the solve computes falls outside that range, the solve restarts from
    its cold start on boxed [Rat.t] cells, which have no range limit.
    Both cell types hold canonical values, so every comparison the
    driver makes — the Dantzig argmin and its ties, the ratio test,
    stall detection, the Bland switch — answers the same on both: the
    pivots, the vertex, the duals and the pivot count are identical, and
    the restart never shows in the answer.  No option selects the
    path. *)

type pivot_rule =
  | Bland  (** smallest-index entering/leaving: provably cycle-free *)
  | Dantzig
      (** most-negative reduced cost, switching to Bland after
          [rows + cols] pivots without objective improvement *)

type row = int array * Rat.t array
(** One row of [A]: its nonzero columns in strictly increasing order,
    and the coefficient of each. *)

type outcome =
  | Optimal of {
      values : Rat.t array;
      objective : Rat.t;
      duals : Rat.t array;
          (** exact dual value per input row, in the caller's row
              orientation (the internal sign flip of negative-[b] rows
              is undone), read off the reduced cost of each row's
              starting column — its crash column, or its artificial
              where the row had none.  Satisfies [c . values = duals . b] — strong
              duality — at every optimum; rows dropped as redundant
              during phase 1 still get their (zero-contributing) dual
              entry. *)
      pivots : int;
          (** simplex pivots performed; placing the crash basis costs
              none *)
    }  (** [values] has one entry per column, i.e. per entry of [c]. *)
  | Infeasible
  | Unbounded

val minimize :
  ?rule:pivot_rule ->
  rows:row array ->
  b:Rat.t array ->
  c:Rat.t array ->
  unit ->
  outcome
(** [minimize ~rows ~b ~c ()] solves the standard form above, [A]
    given by its [m] sparse [rows] over the [n = |c|] columns; [b] has
    length [m].  The crash basis is chosen from per-column nonzero
    counts in one pass: each row takes the lowest-indexed column whose
    only nonzero it holds (positive after the flip below).  Rows with
    negative [b] are negated internally (they are equalities).  Inputs
    are not mutated.
    @raise Invalid_argument on a dimension mismatch, row columns out of
    range or not strictly increasing, or an explicit zero value. *)

(** {1 The two cell types, for tests}

    {!minimize} is {!minimize_packed}, restarted as {!minimize_boxed}
    on {!Packed.Range}: one driver on packed cells, then on boxed cells.
    Both take the same arguments and raise the same [Invalid_argument]s
    as {!minimize}.  Because they share the driver, their agreement
    checks only the cell loops; the tests also hold both against the
    seed kernel. *)

val minimize_packed :
  ?rule:pivot_rule ->
  rows:row array ->
  b:Rat.t array ->
  c:Rat.t array ->
  unit ->
  outcome
(** The driver on packed cells alone.
    @raise Packed.Range where {!minimize} restarts. *)

val minimize_boxed :
  ?rule:pivot_rule ->
  rows:row array ->
  b:Rat.t array ->
  c:Rat.t array ->
  unit ->
  outcome
(** The driver on boxed cells alone: {!minimize}'s restart path. *)

(** Packed small rationals: [num/den] in lowest terms, [den > 0],
    [|num|, den < 2^30], as the int [(num lsl 31) lor den]; zero is [0].
    The int's sign is the value's.  Every operation returns the
    canonical value the {!Rat} operation of the same name returns, or
    raises {!Range} when that value does not fit. *)
module Packed : sig
  type t = private int

  exception Range

  val of_rat : Rat.t -> t
  val to_rat : t -> Rat.t

  val inv : t -> t
  (** @raise Division_by_zero on zero. *)

  val mul : t -> t -> t

  val submul : t -> t -> t -> t
  (** [submul a b c] is [a - b * c], as {!Rat.submul}. *)

  val compare : t -> t -> int
end
