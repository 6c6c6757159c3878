(* Two-phase tableau simplex with exact rational arithmetic.

   The constraint matrix arrives as sparse rows and is expanded once
   into a dense tableau.  The cold start is a crash basis: every row
   that owns a structural column with a single nonzero (a slack, say)
   starts with that column basic, and only the rows left uncovered get
   an artificial column (see [crash_tableau]).  Phase 1 minimises the
   sum of those artificials and is skipped when there are none; phase 2
   re-prices with the true costs.  Artificial columns never enter the
   basis.  The tableau invariant maintained throughout: for every row
   [i], column [basis.(i)] is the [i]-th unit vector, [rhs.(i) >= 0],
   and [red.(j)] holds the reduced cost of column [j] for the current
   phase.

   The elimination kernels are zero-skipping: steady-state tableaux are
   sparse (a one-port constraint touches O(degree) columns), so a pivot
   first collects the support of the pivot row into a reusable index
   buffer and then updates only those columns in every other row,
   instead of walking all [n_total] columns.  Entries outside the
   support are untouched, since eliminating with a zero multiplier is
   the identity. *)

module R = Rat

type pivot_rule = Bland | Dantzig

type row = int array * R.t array

type outcome =
  | Optimal of {
      values : R.t array;
      objective : R.t;
      duals : R.t array;
      pivots : int;
    }
  | Infeasible
  | Unbounded

type tableau = {
  mutable rows : R.t array array; (* m x n_total *)
  mutable rhs : R.t array; (* m *)
  mutable basis : int array; (* m, column basic in each row *)
  red : R.t array; (* n_total, reduced costs for current phase *)
  mutable obj : R.t;
  (* stored as MINUS the current objective value: with that sign
     convention the reduced-cost row and the objective cell transform
     under pivoting by exactly the same elimination rule as any other
     row, cf. the classical (-z) tableau corner. *)
  n_struct : int; (* structural columns: 0 .. n_struct-1 *)
  n_total : int; (* structural columns, then one artificial per uncovered row *)
  unit_col : int array; (* per input row: its starting basic column *)
  unit_coef : R.t array; (* per input row: that column's flipped entry *)
  mutable pivots : int;
  supp : int array; (* scratch: support (nonzero columns) of the pivot row *)
}

let pivot t p q =
  (* make column q basic in row p *)
  let row_p = t.rows.(p) in
  let piv = row_p.(q) in
  assert (R.sign piv > 0);
  let inv = R.inv piv in
  (* scale the pivot row, collecting its support as we go; zero entries
     stay zero, so skipping them leaves the row unchanged *)
  let supp = t.supp in
  let nsupp = ref 0 in
  for j = 0 to t.n_total - 1 do
    let v = row_p.(j) in
    if not (R.is_zero v) then begin
      row_p.(j) <- R.mul v inv;
      supp.(!nsupp) <- j;
      incr nsupp
    end
  done;
  let nsupp = !nsupp in
  let rhs_p = R.mul t.rhs.(p) inv in
  t.rhs.(p) <- rhs_p;
  (* subtract [f] times the pivot row; columns outside its support are
     unchanged by the elimination, so only the support is walked *)
  let eliminate coeffs f =
    for k = 0 to nsupp - 1 do
      let j = supp.(k) in
      coeffs.(j) <- R.sub coeffs.(j) (R.mul f row_p.(j))
    done
  in
  for i = 0 to Array.length t.rows - 1 do
    if i <> p then begin
      let row = t.rows.(i) in
      let f = row.(q) in
      if not (R.is_zero f) then begin
        eliminate row f;
        t.rhs.(i) <- R.sub t.rhs.(i) (R.mul f rhs_p)
      end
    end
  done;
  let f = t.red.(q) in
  if not (R.is_zero f) then begin
    eliminate t.red f;
    t.obj <- R.sub t.obj (R.mul f rhs_p)
  end;
  t.basis.(p) <- q;
  t.pivots <- t.pivots + 1

(* Recompute reduced costs and objective for cost vector [c] (length
   n_total) given the current basis.  O(m * nnz). *)
let reprice t c =
  let m = Array.length t.rows in
  Array.blit c 0 t.red 0 t.n_total;
  t.obj <- R.zero;
  for i = 0 to m - 1 do
    let cb = c.(t.basis.(i)) in
    if not (R.is_zero cb) then begin
      let row = t.rows.(i) in
      for j = 0 to t.n_total - 1 do
        let v = row.(j) in
        if not (R.is_zero v) then t.red.(j) <- R.sub t.red.(j) (R.mul cb v)
      done;
      t.obj <- R.sub t.obj (R.mul cb t.rhs.(i))
    end
  done

exception Unbounded_exc

(* One phase of the simplex loop.  [allowed j] filters entering columns
   (phase 2 bars artificials). *)
let optimise t rule allowed =
  let m = Array.length t.rows in
  let stall_limit = m + t.n_total in
  let best_seen = ref t.obj in
  let stall = ref 0 in
  let bland_mode = ref (rule = Bland) in
  let entering () =
    if !bland_mode then begin
      let rec go j =
        if j >= t.n_total then None
        else if allowed j && R.sign t.red.(j) < 0 then Some j
        else go (j + 1)
      in
      go 0
    end
    else begin
      let best = ref None in
      for j = t.n_total - 1 downto 0 do
        if allowed j && R.sign t.red.(j) < 0 then
          match !best with
          | Some jb when R.compare t.red.(jb) t.red.(j) <= 0 -> ()
          | _ -> best := Some j
      done;
      !best
    end
  in
  let leaving q =
    (* min ratio rhs_i / rows_i_q over rows_i_q > 0; ties to the smallest
       basis index (lexicographic safeguard, part of Bland's rule) *)
    let best = ref None in
    for i = 0 to m - 1 do
      let a = t.rows.(i).(q) in
      if R.sign a > 0 then begin
        let ratio = R.div t.rhs.(i) a in
        match !best with
        | None -> best := Some (i, ratio)
        | Some (ib, rb) ->
          let cmp = R.compare ratio rb in
          if cmp < 0 || (cmp = 0 && t.basis.(i) < t.basis.(ib)) then
            best := Some (i, ratio)
      end
    done;
    !best
  in
  let continue = ref true in
  while !continue do
    match entering () with
    | None -> continue := false
    | Some q ->
      (match leaving q with
      | None -> raise Unbounded_exc
      | Some (p, _) ->
        pivot t p q;
        if not !bland_mode then begin
          (* t.obj = -z grows strictly whenever z improves *)
          if R.compare t.obj !best_seen > 0 then begin
            best_seen := t.obj;
            stall := 0
          end
          else begin
            incr stall;
            if !stall > stall_limit then bland_mode := true
          end
        end)
  done

(* Crash tableau: rows copied with signs flipped so rhs >= 0, then each
   row given a starting basic column.  A structural column with exactly
   one nonzero, positive after the flip — the slack of a [<=] row, the
   surplus of a [>=] row with negative rhs, a variable appearing in one
   row only — is already a multiple of a unit vector, so its row is just
   scaled by [1/a_ij]: nothing to eliminate, and no pivot is counted.
   One pass over the nonzeros counts each column's entries; each row
   then takes the lowest such column among its own.  Rows left without
   one get an artificial (columns [n .. n_total - 1], one per uncovered
   row).  [unit_col.(i)] is row [i]'s starting column and
   [unit_coef.(i)] its flipped coefficient (one for an artificial); both
   are what [duals_of] needs later. *)
let crash_tableau ~rows ~b ~m ~n =
  let flipped i v = if R.sign b.(i) < 0 then R.neg v else v in
  let count = Array.make n 0 in
  Array.iter
    (fun (cols, _) -> Array.iter (fun j -> count.(j) <- count.(j) + 1) cols)
    rows;
  let n_total = ref n in
  let unit_col = Array.make m (-1) in
  let unit_coef =
    Array.init m (fun i ->
        let cols, vals = rows.(i) in
        (* the row's lowest single-entry column, positive after the flip *)
        let rec crash k =
          if k >= Array.length cols then None
          else if count.(cols.(k)) = 1 && R.sign (flipped i vals.(k)) > 0
          then Some k
          else crash (k + 1)
        in
        match crash 0 with
        | Some k ->
          unit_col.(i) <- cols.(k);
          flipped i vals.(k)
        | None ->
          unit_col.(i) <- !n_total;
          incr n_total;
          R.one)
  in
  let n_total = !n_total in
  let scale = Array.init m (fun i -> flipped i (R.inv unit_coef.(i))) in
  let tableau_rows =
    Array.init m (fun i ->
        let row = Array.make n_total R.zero in
        let cols, vals = rows.(i) in
        Array.iteri (fun k j -> row.(j) <- R.mul vals.(k) scale.(i)) cols;
        row.(unit_col.(i)) <- R.one;
        row)
  in
  {
    rows = tableau_rows;
    rhs = Array.init m (fun i -> R.mul b.(i) scale.(i));
    basis = Array.copy unit_col;
    red = Array.make n_total R.zero;
    obj = R.zero;
    n_struct = n;
    n_total;
    unit_col;
    unit_coef;
    pivots = 0;
    supp = Array.make n_total 0;
  }

(* Exact duals of the final basis.  Row [i]'s starting column is
   [unit_coef.(i)] times the [i]-th unit vector of the sign-flipped
   system, so the tableau keeps it as that multiple of the [i]-th column
   of the current basis inverse, and its phase-2 reduced cost is
   [c_j - unit_coef.(i) * y_i] for the simplex multipliers [y].  Hence
   [-y_i = (red_j - c_j) / unit_coef.(i)] — for an artificial (cost 0,
   coefficient 1) simply its reduced cost.  Rows dropped as redundant
   keep their artificial column, so the formula needs no row
   bookkeeping; the flip of negative-[b] rows is undone to return duals
   in the caller's row orientation. *)
let duals_of t ~b ~c =
  Array.init (Array.length b) (fun i ->
      let j = t.unit_col.(i) in
      let cj = if j < t.n_struct then c.(j) else R.zero in
      let r = R.div (R.sub t.red.(j) cj) t.unit_coef.(i) in
      if R.sign b.(i) < 0 then r else R.neg r)

(* Phase 2 from a primal feasible, artificial-free tableau: re-price with
   the true costs, artificial columns barred from entering. *)
let phase2 rule t ~b ~c =
  let n = t.n_struct in
  let c2 = Array.make t.n_total R.zero in
  Array.blit c 0 c2 0 n;
  reprice t c2;
  match optimise t rule (fun j -> j < n) with
  | () ->
    let values = Array.make n R.zero in
    Array.iteri (fun i bj -> if bj < n then values.(bj) <- t.rhs.(i)) t.basis;
    Optimal
      {
        values;
        objective = R.neg t.obj;
        duals = duals_of t ~b ~c;
        pivots = t.pivots;
      }
  | exception Unbounded_exc -> Unbounded

let negate_row t i =
  let row = t.rows.(i) in
  for k = 0 to t.n_total - 1 do
    let v = row.(k) in
    if not (R.is_zero v) then row.(k) <- R.neg v
  done;
  t.rhs.(i) <- R.neg t.rhs.(i)

let cold_solve rule ~rows ~b ~c ~m ~n =
  let t = crash_tableau ~rows ~b ~m ~n in
  let feasible =
    t.n_total = n
    || begin
      (* phase 1: minimise the sum of the artificials *)
      let c1 = Array.make t.n_total R.zero in
      for j = n to t.n_total - 1 do
        c1.(j) <- R.one
      done;
      reprice t c1;
      (try optimise t rule (fun j -> j < n)
       with Unbounded_exc ->
         (* phase-1 objective is bounded below by 0: cannot happen *)
         assert false);
      R.sign t.obj >= 0 (* phase-1 optimum z = -obj > 0: infeasible *)
    end
  in
  if not feasible then Infeasible
  else begin
    (* drive remaining artificials out of the basis *)
    let m_cur = Array.length t.rows in
    let keep = Array.make m_cur true in
    for i = 0 to m_cur - 1 do
      if t.basis.(i) >= n then begin
        (* basic artificial, necessarily at value 0 *)
        let rec find j =
          if j >= n then None
          else if not (R.is_zero t.rows.(i).(j)) then Some j
          else find (j + 1)
        in
        match find 0 with
        | Some j ->
          (* pivot on (i, j); the pivot may be negative, which is fine
             here because rhs_i = 0 keeps the tableau feasible *)
          if R.sign t.rows.(i).(j) < 0 then negate_row t i;
          pivot t i j
        | None -> keep.(i) <- false (* redundant row *)
      end
    done;
    if Array.exists not keep then begin
      let filter arr =
        let out = ref [] in
        Array.iteri (fun i x -> if keep.(i) then out := x :: !out) arr;
        Array.of_list (List.rev !out)
      in
      t.rows <- filter t.rows;
      t.rhs <- filter t.rhs;
      t.basis <- filter t.basis
    end;
    phase2 rule t ~b ~c
  end

let minimize ?(rule = Dantzig) ~rows ~b ~c () =
  let m = Array.length rows in
  let n = Array.length c in
  if Array.length b <> m then invalid_arg "Simplex.minimize: |b| <> rows";
  Array.iter
    (fun (cols, vals) ->
      if Array.length cols <> Array.length vals then
        invalid_arg "Simplex.minimize: |columns| <> |values| in a row";
      Array.iteri
        (fun k j ->
          if j < 0 || j >= n || (k > 0 && cols.(k - 1) >= j) then
            invalid_arg "Simplex.minimize: row columns not increasing in range";
          if R.is_zero vals.(k) then
            invalid_arg "Simplex.minimize: explicit zero in a row")
        cols)
    rows;
  cold_solve rule ~rows ~b ~c ~m ~n
