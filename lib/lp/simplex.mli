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
    stall; {!Bland} never cycles.  Both terminate. *)

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
