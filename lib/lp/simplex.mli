(** Exact two-phase primal simplex over rationals — the library's only
    LP kernel.

    Solves the standard form

    {v minimize c.x   subject to   A x = b,  x >= 0 v}

    with every coefficient an exact {!Rat.t}, on a dense tableau with
    zero-skipping elimination.  The cold start is a crash basis: each
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
    }  (** [values] has one entry per column of [a]. *)
  | Infeasible
  | Unbounded

val minimize :
  ?rule:pivot_rule ->
  a:Rat.t array array ->
  b:Rat.t array ->
  c:Rat.t array ->
  unit ->
  outcome
(** [minimize ~a ~b ~c ()] solves the standard form above.  [a] is an
    array of [m] rows, each of length [n]; [b] has length [m]; [c] has
    length [n].  Rows with negative [b] are negated internally (they are
    equalities).  Inputs are not mutated.
    @raise Invalid_argument on dimension mismatch. *)
