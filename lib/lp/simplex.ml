(* Two-phase tableau simplex with exact rational arithmetic.

   The constraint matrix arrives as sparse rows and is expanded once
   into a dense tableau.  The cold start is a crash basis: every row
   that owns a structural column with a single nonzero (a slack, say)
   starts with that column basic, and only the rows left uncovered get
   an artificial column (see [crash_basis]).  Phase 1 minimises the
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
   the identity.

   One driver ([Driver]) runs the algorithm on a flat row-major
   tableau; a cell type gives it only the loops over cells.  Every
   solve starts on packed cells ([Packed_cells]): canonical small
   rationals in one native int each ([Packed]: [(num lsl 31) lor den]
   with [|num|, den < 2^30], and [0] for zero), updated by one fused,
   allocation-free [submul].  When any value of a solve would leave
   that range, [Packed.Range] restarts the solve from its cold start on
   boxed cells ([Boxed_cells]: [Rat.t], unbounded).  Values are
   canonical on both, so every comparison the driver makes answers the
   same, and the two produce the same pivots, vertex, duals and pivot
   count; the restart is invisible in the answer. *)

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

exception Unbounded_exc

(* --- packed small rationals ---------------------------------------------

   [n/d] in lowest terms with [d > 0], [|n| < 2^30] and [d < 2^30] is
   the int [(n lsl 31) lor d]; zero is [0].  The sign of the int is the
   sign of the value, two values with the same denominator order as
   their ints, and every product of two parts is below 2^60, so the
   cross-multiplications of [compare] and of the fused update never
   overflow: range tests on results replace the division-based
   overflow checks of [Rat]'s native path.  Every operation returns the
   canonical value [Rat] computes, or raises [Range] when that value
   does not fit. *)
module Packed = struct
  type t = int

  exception Range

  let den_bits = 31
  let den_mask = (1 lsl den_bits) - 1
  let limit = 1 lsl 30
  let zero = 0
  let one = (1 lsl den_bits) lor 1

  let[@inline] num x = x asr den_bits
  let[@inline] den x = x land den_mask

  (* [|n| < limit] and [d < limit] (for [d >= 1]), without branches *)
  let[@inline] in_range n d =
    let u = n + (limit - 1) in
    u lor ((2 * limit) - 2 - u) lor (limit - 1 - d) >= 0

  (* canonical [n/d] (d >= 1) packed, or [Range] *)
  let[@inline] pack n d =
    if not (in_range n d) then raise_notrace Range;
    (n lsl den_bits) lor d

  let rec euclid a b = if b = 0 then a else euclid b (a mod b)

  (* gcd of every pair of operands below 64, built once at module
     initialisation (immutable, so domain-safe) *)
  let small_gcd = String.init 4096 (fun k -> Char.chr (euclid (k lsr 6) (k land 63)))

  (* gcd on non-negative ints; most gcds of a pivot have both operands
     below 64 and take one table load instead of a chain of divisions *)
  let gcd a b =
    if a lor b < 64 then Char.code (String.unsafe_get small_gcd ((a lsl 6) lor b))
    else euclid a b

  let of_rat r =
    match R.to_ints r with
    | Some (0, _) -> 0
    | Some (n, d) -> pack n d
    | None -> raise_notrace Range

  let to_rat x = if x = 0 then R.zero else R.of_ints (num x) (den x)

  let inv x =
    if x = 0 then raise Division_by_zero;
    let n = num x and d = den x in
    if n < 0 then ((-d) lsl den_bits) lor (-n) else (d lsl den_bits) lor n

  let compare a b =
    let da = den a and db = den b in
    if da = db || a = 0 || b = 0 || a lxor b < 0 then Int.compare a b
    else Int.compare (num a * db) (num b * da)

  (* cross-reduced, as in [Rat.mul]: the result is in lowest terms *)
  let mul a b =
    if a = 0 || b = 0 then 0
    else begin
      let an = num a and ad = den a and bn = num b and bd = den b in
      let g1 = gcd (abs an) bd and g2 = gcd (abs bn) ad in
      pack (an / g1 * (bn / g2)) (ad / g2 * (bd / g1))
    end

  (* [a - b*c] through [Rat], for the rare update whose product leaves
     the range while the result may not *)
  let submul_wide a b c = of_rat (R.submul (to_rat a) (to_rat b) (to_rat c))

  (* [a - b*c], fused as in [Rat.submul]: the product [pn/pd] is
     cross-reduced (lowest terms, below 2^60) and, when it is in range,
     added Knuth-style: with [g = gcd ad pd] the only common factor
     left is [gcd t g] *)
  let submul a b c =
    if b = 0 || c = 0 then a
    else begin
      let bn = num b and bd = den b and cn = num c and cd = den c in
      let g1 = gcd (abs bn) cd and g2 = gcd (abs cn) bd in
      let pn = bn / g1 * (cn / g2) and pd = bd / g2 * (cd / g1) in
      if not (in_range pn pd) then submul_wide a b c
      else if a = 0 then ((-pn) lsl den_bits) lor pd
      else begin
        let an = num a and ad = den a in
        if ad = pd then begin
          let t = an - pn in
          if t = 0 then 0
          else begin
            let g = gcd (abs t) ad in
            pack (t / g) (ad / g)
          end
        end
        else begin
          let g = gcd ad pd in
          let t = (an * (pd / g)) - (pn * (ad / g)) in
          if t = 0 then 0
          else begin
            let g2 = gcd (abs t) g in
            pack (t / g2) (ad / g2 * (pd / g))
          end
        end
      end
    end

  (* [compare (xn/xd) (yn/yd)] for parts below 2^60 in magnitude and
     positive denominators (the unreduced ratios of the ratio test):
     native when all four parts lie in [0, 2^31), so the
     cross-products cannot overflow; through [Rat] otherwise *)
  let compare_ratios xn xd yn yd =
    if (xn lor xd lor yn lor yd) asr 31 = 0 then Int.compare (xn * yd) (yn * xd)
    else R.compare (R.of_ints xn xd) (R.of_ints yn yd)
end

(* --- the crash basis and the duals ---------------------------------- *)

(* The crash basis.  A structural column with exactly one nonzero,
   positive once negative-[b] rows are flipped — the slack of a [<=]
   row, the surplus of a [>=] row with negative rhs, a variable
   appearing in one row only — is already a multiple of a unit vector,
   so its row is just scaled by [1/a_ij]: nothing to eliminate, and no
   pivot is counted.  One pass over the nonzeros counts each column's
   entries; each row then takes the lowest such column among its own.
   Rows left without one get an artificial (columns [n .. n_total - 1],
   one per uncovered row).  [unit_col.(i)] is row [i]'s starting
   column, [unit_coef.(i)] its flipped coefficient (one for an
   artificial) — both are what [duals_of] needs later — and
   [scale.(i)] the factor row [i] is multiplied by. *)
type crash = {
  n_total : int;
  unit_col : int array;
  unit_coef : R.t array;
  scale : R.t array;
}

let crash_basis ~rows ~b ~m ~n =
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
  let scale = Array.init m (fun i -> flipped i (R.inv unit_coef.(i))) in
  { n_total = !n_total; unit_col; unit_coef; scale }

(* Exact duals of the final basis.  Row [i]'s starting column is
   [unit_coef.(i)] times the [i]-th unit vector of the sign-flipped
   system, so the tableau keeps it as that multiple of the [i]-th column
   of the current basis inverse, and its phase-2 reduced cost
   [red j = c_j - unit_coef.(i) * y_i] for the simplex multipliers [y].
   Hence [-y_i = (red_j - c_j) / unit_coef.(i)] — for an artificial
   (cost 0, coefficient 1) simply its reduced cost.  Rows dropped as
   redundant keep their artificial column, so the formula needs no row
   bookkeeping; the flip of negative-[b] rows is undone to return duals
   in the caller's row orientation. *)
let duals_of cr ~red ~b ~c =
  let n = Array.length c in
  Array.init (Array.length b) (fun i ->
      let j = cr.unit_col.(i) in
      let cj = if j < n then c.(j) else R.zero in
      let r = R.div (R.sub (red j) cj) cr.unit_coef.(i) in
      if R.sign b.(i) < 0 then r else R.neg r)

(* --- the tableau both cell types share -------------------------------

   One row-major array per solve, [cells.(i * n_total + j)] for row [i]
   and column [j]; redundant rows are dropped by compacting it in place,
   so only the first [m] rows are live. *)

type 'a tableau = {
  cells : 'a array; (* m x n_total, row-major *)
  mutable m : int;
  rhs : 'a array; (* m *)
  basis : int array; (* m, column basic in each row *)
  red : 'a array; (* n_total, reduced costs for current phase *)
  mutable obj : 'a;
  (* stored as MINUS the current objective value: with that sign
     convention the reduced-cost row and the objective cell transform
     under pivoting by exactly the same elimination rule as any other
     row, cf. the classical (-z) tableau corner. *)
  n_total : int;
  (* structural columns 0 .. n-1, then one artificial per uncovered row *)
  mutable pivots : int;
  supp : int array; (* scratch: support (nonzero columns) of the pivot row *)
}

(* What a cell type gives the driver: its constants and conversions,
   and every loop over cells (documented on [Packed_cells]), so that
   each loop's arithmetic is compiled for its own cell type.  The
   driver calls the loops at most once per pivot. *)
module type CELLS = sig
  type t

  val zero : t
  val one : t
  val of_rat : R.t -> t
  val to_rat : t -> R.t
  val compare : t -> t -> int
  val pivot : t tableau -> int -> int -> unit
  val reprice : t tableau -> t array -> unit
  val dantzig : t tableau -> int -> int
  val bland : t tableau -> int -> int
  val leaving : t tableau -> int -> int
  val first_nonzero : t tableau -> int -> int -> int
end

module Driver (C : CELLS) = struct
  (* One phase of the simplex loop; only columns below [allowed] may
     enter (phase 2 bars artificials). *)
  let optimise t rule allowed =
    let stall_limit = t.m + t.n_total in
    let best_seen = ref t.obj in
    let stall = ref 0 in
    let bland_mode = ref (rule = Bland) in
    let continue = ref true in
    while !continue do
      let q = if !bland_mode then C.bland t allowed else C.dantzig t allowed in
      if q < 0 then continue := false
      else begin
        let p = C.leaving t q in
        if p < 0 then raise Unbounded_exc;
        C.pivot t p q;
        if not !bland_mode then begin
          (* t.obj = -z grows strictly whenever z improves *)
          if C.compare t.obj !best_seen > 0 then begin
            best_seen := t.obj;
            stall := 0
          end
          else begin
            incr stall;
            if !stall > stall_limit then bland_mode := true
          end
        end
      end
    done

  let solve rule ~rows ~b ~c ~m ~n =
    let cr = crash_basis ~rows ~b ~m ~n in
    let n_total = cr.n_total in
    let cells = Array.make (m * n_total) C.zero in
    let rhs = Array.make m C.zero in
    for i = 0 to m - 1 do
      let s = cr.scale.(i) in
      let base = i * n_total in
      let cols, vals = rows.(i) in
      Array.iteri (fun k j -> cells.(base + j) <- C.of_rat (R.mul vals.(k) s)) cols;
      cells.(base + cr.unit_col.(i)) <- C.one;
      rhs.(i) <- C.of_rat (R.mul b.(i) s)
    done;
    let t =
      {
        cells;
        m;
        rhs;
        basis = Array.copy cr.unit_col;
        red = Array.make n_total C.zero;
        obj = C.zero;
        n_total;
        pivots = 0;
        supp = Array.make n_total 0;
      }
    in
    let feasible =
      n_total = n
      || begin
        (* phase 1: minimise the sum of the artificials *)
        let c1 = Array.make n_total C.zero in
        Array.fill c1 n (n_total - n) C.one;
        C.reprice t c1;
        (try optimise t rule n
         with Unbounded_exc ->
           (* phase-1 objective is bounded below by 0: cannot happen *)
           assert false);
        C.compare t.obj C.zero >= 0 (* phase-1 optimum z = -obj > 0: infeasible *)
      end
    in
    if not feasible then Infeasible
    else begin
      (* drive remaining artificials (basic, necessarily at value 0) out
         of the basis, pivoting on the row's lowest structural nonzero
         whatever its sign: rhs_i = 0 keeps the tableau feasible.  A
         row with no structural nonzero left is redundant. *)
      let keep = Array.make m true in
      for i = 0 to m - 1 do
        if t.basis.(i) >= n then begin
          let j = C.first_nonzero t i n in
          if j < 0 then keep.(i) <- false else C.pivot t i j
        end
      done;
      (* drop the redundant rows, compacting the ones that stay *)
      let live = ref 0 in
      for i = 0 to m - 1 do
        if keep.(i) then begin
          if !live < i then begin
            Array.blit cells (i * n_total) cells (!live * n_total) n_total;
            rhs.(!live) <- rhs.(i);
            t.basis.(!live) <- t.basis.(i)
          end;
          incr live
        end
      done;
      t.m <- !live;
      (* phase 2: re-price with the true costs, artificials barred *)
      let c2 = Array.make n_total C.zero in
      for j = 0 to n - 1 do
        c2.(j) <- C.of_rat c.(j)
      done;
      C.reprice t c2;
      match optimise t rule n with
      | () ->
        let values = Array.make n R.zero in
        for i = 0 to t.m - 1 do
          let bj = t.basis.(i) in
          if bj < n then values.(bj) <- C.to_rat rhs.(i)
        done;
        Optimal
          {
            values;
            objective = R.neg (C.to_rat t.obj);
            duals = duals_of cr ~red:(fun j -> C.to_rat t.red.(j)) ~b ~c;
            pivots = t.pivots;
          }
      | exception Unbounded_exc -> Unbounded
    end
end

(* --- the packed cells: native ints ---------------------------------- *)

module Packed_cells = struct
  module P = Packed

  type t = P.t

  let zero = P.zero
  let one = P.one
  let of_rat = P.of_rat
  let to_rat = P.to_rat
  let compare = P.compare

  (* make column [q] basic in row [p]; the pivot is positive, or the
     row's rhs is zero (the drive-out) *)
  let pivot (t : t tableau) p q =
    let n_total = t.n_total and cells = t.cells in
    let base_p = p * n_total in
    let piv = cells.(base_p + q) in
    assert (piv > 0 || t.rhs.(p) = 0);
    let inv = P.inv piv in
    (* scale the pivot row, collecting its support as we go; zero entries
       stay zero, so skipping them leaves the row unchanged *)
    let supp = t.supp in
    let nsupp = ref 0 in
    for j = 0 to n_total - 1 do
      let v = cells.(base_p + j) in
      if v <> 0 then begin
        cells.(base_p + j) <- P.mul v inv;
        supp.(!nsupp) <- j;
        incr nsupp
      end
    done;
    let nsupp = !nsupp in
    let rhs_p = P.mul t.rhs.(p) inv in
    t.rhs.(p) <- rhs_p;
    (* subtract [f] times the pivot row; columns outside its support are
       unchanged by the elimination, so only the support is walked *)
    for i = 0 to t.m - 1 do
      if i <> p then begin
        let base = i * n_total in
        let f = cells.(base + q) in
        if f <> 0 then begin
          for k = 0 to nsupp - 1 do
            let j = supp.(k) in
            cells.(base + j) <- P.submul cells.(base + j) f cells.(base_p + j)
          done;
          t.rhs.(i) <- P.submul t.rhs.(i) f rhs_p
        end
      end
    done;
    let f = t.red.(q) in
    if f <> 0 then begin
      let red = t.red in
      for k = 0 to nsupp - 1 do
        let j = supp.(k) in
        red.(j) <- P.submul red.(j) f cells.(base_p + j)
      done;
      t.obj <- P.submul t.obj f rhs_p
    end;
    t.basis.(p) <- q;
    t.pivots <- t.pivots + 1

  (* reduced costs and objective for the cost vector [c] (length
     [n_total]) at the current basis *)
  let reprice (t : t tableau) c =
    let n_total = t.n_total in
    Array.blit c 0 t.red 0 n_total;
    t.obj <- P.zero;
    for i = 0 to t.m - 1 do
      let cb = c.(t.basis.(i)) in
      if cb <> 0 then begin
        let base = i * n_total in
        for j = 0 to n_total - 1 do
          let v = t.cells.(base + j) in
          if v <> 0 then t.red.(j) <- P.submul t.red.(j) cb v
        done;
        t.obj <- P.submul t.obj cb t.rhs.(i)
      end
    done

  (* entering columns, among those below [allowed], -1 for none: the
     most negative reduced cost, ties to the highest column *)
  let dantzig (t : t tableau) allowed =
    let red = t.red in
    let best = ref (-1) in
    for j = allowed - 1 downto 0 do
      let r = red.(j) in
      if r < 0 && (!best < 0 || P.compare red.(!best) r > 0) then best := j
    done;
    !best

  (* the lowest column with a negative reduced cost *)
  let bland (t : t tableau) allowed =
    let rec go j = if j >= allowed then -1 else if t.red.(j) < 0 then j else go (j + 1) in
    go 0

  (* min ratio rhs_i / a_iq over a_iq > 0; ties to the smallest basis
     index (lexicographic safeguard, part of Bland's rule).  The ratio
     [(rn/rd) / (an/ad)] is compared unreduced as [(rn * ad) / (rd * an)],
     so the test never leaves exact ints *)
  let leaving (t : t tableau) q =
    let n_total = t.n_total in
    let best = ref (-1) and bn = ref 0 and bd = ref 1 in
    for i = 0 to t.m - 1 do
      let a = t.cells.((i * n_total) + q) in
      if a > 0 then begin
        let r = t.rhs.(i) in
        let xn = P.num r * P.den a
        and xd = (if r = 0 then 1 else P.den r) * P.num a in
        let better =
          !best < 0
          ||
          let cmp = P.compare_ratios xn xd !bn !bd in
          cmp < 0 || (cmp = 0 && t.basis.(i) < t.basis.(!best))
        in
        if better then begin
          best := i;
          bn := xn;
          bd := xd
        end
      end
    done;
    !best

  (* the lowest column below [n] where row [i] is nonzero, -1 for none *)
  let first_nonzero (t : t tableau) i n =
    let base = i * t.n_total in
    let rec find j = if j >= n then -1 else if t.cells.(base + j) <> 0 then j else find (j + 1) in
    find 0
end

(* --- the boxed cells: unbounded rationals ---------------------------

   The same loops on [Rat.t] cells, for the solves that leave the
   packed range. *)

module Boxed_cells = struct
  type t = R.t

  let zero = R.zero
  let one = R.one
  let of_rat = Fun.id
  let to_rat = Fun.id
  let compare = R.compare

  let pivot (t : t tableau) p q =
    let n_total = t.n_total and cells = t.cells in
    let base_p = p * n_total in
    let piv = cells.(base_p + q) in
    assert (R.sign piv > 0 || R.is_zero t.rhs.(p));
    let inv = R.inv piv in
    let supp = t.supp in
    let nsupp = ref 0 in
    for j = 0 to n_total - 1 do
      let v = cells.(base_p + j) in
      if not (R.is_zero v) then begin
        cells.(base_p + j) <- R.mul v inv;
        supp.(!nsupp) <- j;
        incr nsupp
      end
    done;
    let nsupp = !nsupp in
    let rhs_p = R.mul t.rhs.(p) inv in
    t.rhs.(p) <- rhs_p;
    (* [coeffs] from [base] on, minus [f] times the pivot row's support *)
    let eliminate coeffs base f =
      for k = 0 to nsupp - 1 do
        let j = supp.(k) in
        coeffs.(base + j) <- R.sub coeffs.(base + j) (R.mul f cells.(base_p + j))
      done
    in
    for i = 0 to t.m - 1 do
      let f = cells.((i * n_total) + q) in
      if i <> p && not (R.is_zero f) then begin
        eliminate cells (i * n_total) f;
        t.rhs.(i) <- R.sub t.rhs.(i) (R.mul f rhs_p)
      end
    done;
    let f = t.red.(q) in
    if not (R.is_zero f) then begin
      eliminate t.red 0 f;
      t.obj <- R.sub t.obj (R.mul f rhs_p)
    end;
    t.basis.(p) <- q;
    t.pivots <- t.pivots + 1

  let reprice (t : t tableau) c =
    let n_total = t.n_total in
    Array.blit c 0 t.red 0 n_total;
    t.obj <- R.zero;
    for i = 0 to t.m - 1 do
      let cb = c.(t.basis.(i)) in
      if not (R.is_zero cb) then begin
        let base = i * n_total in
        for j = 0 to n_total - 1 do
          let v = t.cells.(base + j) in
          if not (R.is_zero v) then t.red.(j) <- R.sub t.red.(j) (R.mul cb v)
        done;
        t.obj <- R.sub t.obj (R.mul cb t.rhs.(i))
      end
    done

  let dantzig (t : t tableau) allowed =
    let red = t.red in
    let best = ref (-1) in
    for j = allowed - 1 downto 0 do
      let r = red.(j) in
      if R.sign r < 0 && (!best < 0 || R.compare red.(!best) r > 0) then best := j
    done;
    !best

  let bland (t : t tableau) allowed =
    let rec go j =
      if j >= allowed then -1 else if R.sign t.red.(j) < 0 then j else go (j + 1)
    in
    go 0

  let leaving (t : t tableau) q =
    let best = ref (-1) and best_ratio = ref R.zero in
    for i = 0 to t.m - 1 do
      let a = t.cells.((i * t.n_total) + q) in
      if R.sign a > 0 then begin
        let ratio = R.div t.rhs.(i) a in
        let better =
          !best < 0
          ||
          let cmp = R.compare ratio !best_ratio in
          cmp < 0 || (cmp = 0 && t.basis.(i) < t.basis.(!best))
        in
        if better then begin
          best := i;
          best_ratio := ratio
        end
      end
    done;
    !best

  let first_nonzero (t : t tableau) i n =
    let base = i * t.n_total in
    let rec find j =
      if j >= n then -1 else if not (R.is_zero t.cells.(base + j)) then j else find (j + 1)
    in
    find 0
end

module Packed_tableau = Driver (Packed_cells)
module Boxed_tableau = Driver (Boxed_cells)

let check_input ~rows ~b ~c =
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
  (m, n)

let minimize_packed ?(rule = Dantzig) ~rows ~b ~c () =
  let m, n = check_input ~rows ~b ~c in
  Packed_tableau.solve rule ~rows ~b ~c ~m ~n

let minimize_boxed ?(rule = Dantzig) ~rows ~b ~c () =
  let m, n = check_input ~rows ~b ~c in
  Boxed_tableau.solve rule ~rows ~b ~c ~m ~n

let minimize ?(rule = Dantzig) ~rows ~b ~c () =
  let m, n = check_input ~rows ~b ~c in
  match Packed_tableau.solve rule ~rows ~b ~c ~m ~n with
  | res -> res
  | exception Packed.Range -> Boxed_tableau.solve rule ~rows ~b ~c ~m ~n
