(* Model layer: named non-negative variables with optional upper bounds,
   sparse expressions, and the translation to the standard form consumed
   by Simplex.

   Every variable is >= 0, so variable v is standard-form column v.
   Translation rules:
   - finite upper bound u:  extra row  x <= u, unless a model row
     already implies it (see [implied_bounds]);
   - Le / Ge rows get a slack / surplus column, Eq rows none;
   phase-1 artificials are Simplex's business.

   An expression is kept as it was built, a tree of terms, so [add],
   [sub] and [scale] cost O(1).  [add_constraint] and [set_objective]
   normalise it once into a sorted row; everything downstream walks
   rows. *)

module R = Rat

type var = int

module Names = Hashtbl.Make (String)

type linexpr =
  | Zero
  | Term of R.t * var
  | Terms of (R.t * var) list
  | Add of linexpr * linexpr
  | Sum of linexpr list
  | Scale of R.t * linexpr

(* A normalised expression: strictly increasing columns, each with the
   exact sum of its coefficients, zero sums dropped. *)
type row = { cols : int array; coefs : R.t array }

type relation = Le | Ge | Eq
type sense = Maximize | Minimize

type var_info = { name : string; ub : R.t option }

type cons = { cname : string; row : row; rel : relation; rhs : R.t }

type model = {
  mutable vars : var_info array; (* the first [nvars] are declared *)
  mutable nvars : int;
  mutable cons : cons array; (* the first [ncons] are declared *)
  mutable ncons : int;
  mutable nubs : int; (* upper-bounded variables: one [ub:] row each *)
  mutable objective : (sense * row) option;
  names : var Names.t;
}

let no_var = { name = ""; ub = None }
let empty_row = { cols = [||]; coefs = [||] }
let no_cons = { cname = ""; row = empty_row; rel = Eq; rhs = R.zero }

let create () =
  { vars = Array.make 16 no_var; nvars = 0; cons = Array.make 16 no_cons;
    ncons = 0; nubs = 0; objective = None; names = Names.create 64 }

(* [a] with [x] at [len], doubled when full *)
let push a len x =
  let a =
    if len < Array.length a then a
    else begin
      let b = Array.make (2 * len) x in
      Array.blit a 0 b 0 len;
      b
    end
  in
  a.(len) <- x;
  a

let add_var ?(ub = None) m name =
  if Names.mem m.names name then
    invalid_arg (Printf.sprintf "Lp.add_var: duplicate variable %S" name);
  (match ub with
  | Some u when R.sign u < 0 ->
    invalid_arg (Printf.sprintf "Lp.add_var: %S has ub < 0" name)
  | _ -> ());
  let v = m.nvars in
  m.vars <- push m.vars v { name; ub };
  m.nvars <- v + 1;
  if ub <> None then m.nubs <- m.nubs + 1;
  Names.add m.names name v;
  v

let var_name m v = m.vars.(v).name
let find_var m name =
  match Names.find_opt m.names name with
  | Some v -> v
  | None -> raise Not_found

let num_vars m = m.nvars
let num_constraints m = m.ncons
let num_rows m = m.ncons + m.nubs

(* --- expressions --- *)

let zero = Zero
let term c v = Term (c, v)
let var v = Term (R.one, v)

let add a b =
  match (a, b) with Zero, e | e, Zero -> e | _ -> Add (a, b)

let scale k e =
  match e with Zero -> Zero | _ -> if R.is_zero k then Zero else Scale (k, e)
let neg e = scale R.minus_one e
let sub a b = add a (neg b)
let of_terms l = Terms l
let sum l = Sum l

(* [k * c], without a multiplication when [k] is the shared one *)
let times k c = if k == R.one then c else R.mul k c

let rec size acc = function
  | Zero -> acc
  | Term _ -> acc + 1
  | Terms l -> acc + List.length l
  | Add (a, b) -> size (size acc a) b
  | Sum l -> List.fold_left size acc l
  | Scale (_, e) -> size acc e

(* Write [k] times each nonzero term of [e] from slot [at], in the order
   built; returns the next free slot. *)
let rec fill cols coefs k at = function
  | Zero -> at
  | Term (c, v) -> put cols coefs at (times k c) v
  | Terms l ->
    List.fold_left (fun at (c, v) -> put cols coefs at (times k c) v) at l
  | Add (a, b) -> fill cols coefs k (fill cols coefs k at a) b
  | Sum l -> List.fold_left (fill cols coefs k) at l
  | Scale (k', e) -> fill cols coefs (times k k') at e

and put cols coefs at c v =
  if R.is_zero c then at
  else begin
    cols.(at) <- v;
    coefs.(at) <- c;
    at + 1
  end

(* Sort the first [n] terms by column, stably, through a sorted
   permutation. *)
let sort_terms cols coefs n =
  let perm = Array.init n Fun.id in
  Array.stable_sort (fun a b -> Int.compare cols.(a) cols.(b)) perm;
  let c0 = Array.sub cols 0 n and k0 = Array.sub coefs 0 n in
  Array.iteri
    (fun i p ->
      cols.(i) <- c0.(p);
      coefs.(i) <- k0.(p))
    perm

(* Sum each run of one column of the first [n] sorted terms into one
   term, dropping zero sums; returns the number of terms left. *)
let merge_runs cols coefs n =
  let w = ref 0 and i = ref 0 in
  while !i < n do
    let v = cols.(!i) in
    let s = ref coefs.(!i) in
    incr i;
    while !i < n && cols.(!i) = v do
      s := R.add !s coefs.(!i);
      incr i
    done;
    if not (R.is_zero !s) then begin
      cols.(!w) <- v;
      coefs.(!w) <- !s;
      incr w
    end
  done;
  !w

(* The normalised row of an expression: its terms sorted by column, the
   coefficients of a repeated column summed, zero sums dropped.  Terms
   written in strictly increasing column order (the usual way a model
   builder writes a row) are already normal. *)
let normalise e =
  let terms = size 0 e in
  if terms = 0 then empty_row
  else begin
    let cols = Array.make terms 0 and coefs = Array.make terms R.zero in
    let n = fill cols coefs R.one 0 e in
    let k = ref 1 in
    while !k < n && cols.(!k - 1) < cols.(!k) do
      incr k
    done;
    let n =
      if !k >= n then n
      else begin
        sort_terms cols coefs n;
        merge_runs cols coefs n
      end
    in
    if n = terms then { cols; coefs }
    else { cols = Array.sub cols 0 n; coefs = Array.sub coefs 0 n }
  end

let add_constraint ?name m expr rel rhs =
  let cname =
    match name with Some n -> n | None -> Printf.sprintf "c%d" m.ncons
  in
  m.cons <- push m.cons m.ncons { cname; row = normalise expr; rel; rhs };
  m.ncons <- m.ncons + 1

let set_objective m sense e = m.objective <- Some (sense, normalise e)

let objective_row m =
  match m.objective with Some (s, r) -> (s, r) | None -> (Minimize, empty_row)

(* sum_j a_j x_j over the row, skipping zero values *)
let dot row x =
  let acc = ref R.zero in
  for k = 0 to Array.length row.cols - 1 do
    let v = x.(row.cols.(k)) in
    if not (R.is_zero v) then acc := R.add !acc (R.mul row.coefs.(k) v)
  done;
  !acc

let eval f e =
  let { cols; coefs } = normalise e in
  let acc = ref R.zero in
  Array.iteri (fun k v -> acc := R.add !acc (R.mul coefs.(k) (f v))) cols;
  !acc

(* --- solving --- *)

type solution = { objective : R.t; values : R.t array; duals : R.t array }

type result = Optimal of solution | Infeasible | Unbounded

let duals sol = sol.duals
let value sol v = sol.values.(v)

let fold_cons m f init =
  let acc = ref init in
  for r = m.ncons - 1 downto 0 do
    acc := f m.cons.(r) !acc
  done;
  !acc

let fold_vars m f init =
  let acc = ref init in
  for v = m.nvars - 1 downto 0 do
    acc := f m.vars.(v) !acc
  done;
  !acc

let constraints m = fold_cons m (fun c l -> (c.cname, c.rel, c.rhs) :: l) []
let var_bounds m = fold_vars m (fun vi l -> (vi.name, vi.ub) :: l) []

(* The instance the kernel solves, and what [solve] needs to map its
   answer back to the model: whether the objective sign was flipped
   (Maximize), and each named row's kernel row (-1 when omitted). *)
type std = {
  rows : Simplex.row array;
  b : R.t array;
  c : R.t array;
  flip : bool;
  kernel_row : int array;
}

(* Variables whose [ub:] row a model [Le] row already implies: with
   positive coefficients only, [sum_j a_j x_j <= r] caps each of its
   (non-negative) variables at [x_v <= r / a_v], so [ub:v] is redundant
   when [r <= a_v u_v].  A row with a negative right-hand side is
   infeasible by itself and implies every bound. *)
let implied_bounds m =
  let implied = Array.make m.nvars false in
  if m.nubs > 0 then
    for r = 0 to m.ncons - 1 do
      let c = m.cons.(r) in
      let { cols; coefs } = c.row in
      if c.rel = Le && Array.for_all (fun a -> R.sign a > 0) coefs then
        Array.iteri
          (fun k v ->
            match m.vars.(v).ub with
            | Some u when R.compare c.rhs (R.mul coefs.(k) u) <= 0 ->
              implied.(v) <- true
            | _ -> ())
          cols
    done;
  implied

(* Translate a model to the standard form min c.x, Ax = b, x >= 0 that
   the simplex kernel consumes, one sparse row per kept model row.  The
   columns are the variables' (in declaration order, so each row's
   columns are already sorted), then one slack per kept inequality
   row.  An equality row is the model row's own arrays. *)
let translate m =
  let implied = implied_bounds m in
  let kept_ubs = ref 0 in
  for v = 0 to m.nvars - 1 do
    if m.vars.(v).ub <> None && not implied.(v) then incr kept_ubs
  done;
  let n_rows = m.ncons + !kept_ubs in
  let rows = Array.make n_rows ([||], [||]) and b = Array.make n_rows R.zero in
  let kernel_row = Array.make (num_rows m) (-1) in
  let slack = ref m.nvars in
  let with_slack { cols; coefs } s =
    let l = Array.length cols in
    let cs = Array.make (l + 1) !slack and ks = Array.make (l + 1) s in
    Array.blit cols 0 cs 0 l;
    Array.blit coefs 0 ks 0 l;
    incr slack;
    (cs, ks)
  in
  for r = 0 to m.ncons - 1 do
    let c = m.cons.(r) in
    rows.(r) <-
      (match c.rel with
      | Eq -> (c.row.cols, c.row.coefs)
      | Le -> with_slack c.row R.one
      | Ge -> with_slack c.row R.minus_one);
    b.(r) <- c.rhs;
    kernel_row.(r) <- r
  done;
  let k = ref m.ncons and named = ref m.ncons in
  for v = 0 to m.nvars - 1 do
    match m.vars.(v).ub with
    | None -> ()
    | Some u ->
      if not implied.(v) then begin
        rows.(!k) <- with_slack { cols = [| v |]; coefs = [| R.one |] } R.one;
        b.(!k) <- u;
        kernel_row.(!named) <- !k;
        incr k
      end;
      incr named
  done;
  let sense, obj = objective_row m in
  let flip = sense = Maximize in
  let c = Array.make !slack R.zero in
  Array.iteri
    (fun k j -> c.(j) <- (if flip then R.neg obj.coefs.(k) else obj.coefs.(k)))
    obj.cols;
  { rows; b; c; flip; kernel_row }

(* Copies of the rows, so a caller cannot reach the model's own
   equality rows through them. *)
let standard_form m =
  let s = translate m in
  (Array.map (fun (cs, ks) -> (Array.copy cs, Array.copy ks)) s.rows, s.b, s.c)

(* --- the disk tier's record keys --- *)

(* Structural signature of a model: variable names and which ones have
   an upper bound (the candidate [ub:] rows) plus constraint names and
   relations (which decide row order and slack columns).  Which [ub:]
   rows the standard form keeps also depends on the coefficient values,
   which the rest of the cache key ({!cache_key}) dumps, indexed by
   variable number; the signature prefixes it. *)
let signature m =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (string_of_int m.nvars);
  for v = 0 to m.nvars - 1 do
    let vi = m.vars.(v) in
    Buffer.add_char buf '|';
    Buffer.add_string buf vi.name;
    Buffer.add_char buf (match vi.ub with Some _ -> 'u' | None -> '-')
  done;
  Buffer.add_char buf '#';
  for r = 0 to m.ncons - 1 do
    let c = m.cons.(r) in
    Buffer.add_char buf '|';
    Buffer.add_string buf c.cname;
    Buffer.add_char buf (match c.rel with Le -> 'L' | Ge -> 'G' | Eq -> 'E')
  done;
  Buffer.contents buf

module Cache = struct
  module Disk = Solve_store

  type t = { disk : Disk.t option; mutable hits : int; mutable misses : int }

  let create ?disk () = { disk; hits = 0; misses = 0 }
  let hits t = t.hits
  let misses t = t.misses
  let disk_hits = hits
  let disk t = t.disk
end

(* Exact disk-record key: the structural signature plus every
   coefficient of the *model* — objective sense and terms, constraint
   terms and right-hand sides, and the upper bounds.  The standard form
   is a deterministic function of exactly these, so equal keys translate
   to identical instances, and a certified record is the answer
   re-solving would produce.  Rationals are kept in canonical form, so
   exact decimal dumps compare exactly. *)
let cache_key sg (m : model) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf sg;
  let dump v =
    Buffer.add_string buf (R.to_string v);
    Buffer.add_char buf ','
  in
  let dump_row { cols; coefs } =
    Array.iteri
      (fun k v ->
        Buffer.add_string buf (string_of_int v);
        Buffer.add_char buf ':';
        dump coefs.(k))
      cols;
    Buffer.add_char buf ';'
  in
  (match m.objective with
  | None -> Buffer.add_char buf 'n'
  | Some (sense, row) ->
    Buffer.add_char buf (match sense with Minimize -> 'm' | Maximize -> 'M');
    dump_row row);
  for r = 0 to m.ncons - 1 do
    dump_row m.cons.(r).row;
    dump m.cons.(r).rhs
  done;
  Buffer.add_char buf '|';
  for v = 0 to m.nvars - 1 do
    match m.vars.(v).ub with Some u -> dump u | None -> Buffer.add_char buf 'n'
  done;
  Buffer.contents buf

(* Row names, for display: model constraints first, then one
   [ub:<var>] row per upper-bounded variable, the order of
   [solution.duals]. *)
let row_names m =
  fold_cons m (fun c l -> c.cname :: l)
    (fold_vars m
       (fun vi l -> match vi.ub with Some _ -> ("ub:" ^ vi.name) :: l | None -> l)
       [])

(* --- disk-record value encoding ---

   The byte-level envelope (version magic, length, checksum, key echo)
   belongs to {!Solve_store}; what is encoded here is only the *value*:
   the solve outcome in exact decimal, one token per line.  Rationals
   round-trip exactly through [R.to_string]/[R.of_string] (canonical
   form), so a record read back is bit-identical to the result that was
   stored — the property the corruption harness asserts end to end.
   Row names are NOT stored: the duals are by row position, and key
   equality already implies an identical model, so a dual count other
   than the model's rows is malformed.  The format tag also names the
   kernel behaviour: when a change makes a re-solve return a different
   optimal vertex (version 2: the crash-basis cold start), the tag
   moves, so records of the old kernel are quarantined and re-solved
   rather than served as a hit that differs from a re-solve.  Version 3
   drops the warm-start basis line that versions 1 and 2 carried after
   the duals; version 4 keeps implied [ub:] rows out of the kernel,
   which can move the vertex of a degenerate model.

   Only optima are stored, and only what [certify] accepts is served:
   an infeasible or unbounded outcome carries no certificate, so it is
   never written, and an [I] or [U] record an older build left decodes
   as malformed and is quarantined (the steady-state models all admit
   zero throughput, so for them such a record is wrong on its face). *)

let value_format = "lpres 4"

let encode_entry (sol : solution) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf value_format;
  Buffer.add_string buf "\nO\n";
  Buffer.add_string buf (R.to_string sol.objective);
  Buffer.add_char buf '\n';
  let dump a =
    Buffer.add_string buf (string_of_int (Array.length a));
    Buffer.add_char buf '\n';
    Array.iter
      (fun x ->
        Buffer.add_string buf (R.to_string x);
        Buffer.add_char buf '\n')
      a
  in
  dump sol.values;
  dump sol.duals;
  Buffer.contents buf

(* [None] on *any* malformed value, trailing lines included, and on
   anything but an optimum — the caller quarantines the record and
   re-solves cold. *)
let decode_entry m value =
  match String.split_on_char '\n' value with
  | fmt :: rest when String.equal fmt value_format -> (
    try
      let next = ref rest in
      let line () =
        match !next with
        | [] -> raise Exit
        | l :: tl ->
          next := tl;
          l
      in
      let rat () = R.of_string (line ()) in
      let int () =
        match int_of_string_opt (line ()) with
        | Some i -> i
        | None -> raise Exit
      in
      if line () <> "O" then raise Exit;
      let objective = rat () in
      (* [Array.init] reads the lines in index order *)
      let read len =
        if int () <> len then raise Exit;
        Array.init len (fun _ -> rat ())
      in
      let values = read (num_vars m) in
      let duals = read (num_rows m) in
      if !next <> [ "" ] then raise Exit;
      Some { objective; values; duals }
    with Exit | Invalid_argument _ | Division_by_zero | Failure _ -> None)
  | _ -> None

(* Exact solver-effort counters, accumulated across kernel solves (disk
   hits contribute nothing — no kernel ran).  Pivot counts are
   deterministic (exact arithmetic, deterministic rules), so the bench
   can attribute a speedup to fewer pivots vs cheaper pivots.
   [refactors] and [warm_remapped] are always 0: the tableau kernel never
   refactorises and every solve is cold; [matchings_repaired],
   [slots_reused] and [delays_reused] are always 0: every schedule is
   reconstructed from scratch.  The fields stay so trace consumers keep
   their schema. *)
module Stats = struct
  type t = {
    mutable solves : int;
    mutable pivots : int;
    mutable refactors : int;
    mutable cycles_cancelled : int;
    mutable matchings_repaired : int;
    mutable matchings_rebuilt : int;
    mutable slots_reused : int;
    mutable delays_reused : int;
    mutable warm_remapped : int;
    mutable retries : int;
    mutable backoff_time : R.t;
  }

  let create () =
    {
      solves = 0;
      pivots = 0;
      refactors = 0;
      cycles_cancelled = 0;
      matchings_repaired = 0;
      matchings_rebuilt = 0;
      slots_reused = 0;
      delays_reused = 0;
      warm_remapped = 0;
      retries = 0;
      backoff_time = R.zero;
    }

  let add t ~pivots =
    t.solves <- t.solves + 1;
    t.pivots <- t.pivots + pivots

  let add_reconstruction t ~cycles_cancelled ~matchings_rebuilt =
    t.cycles_cancelled <- t.cycles_cancelled + cycles_cancelled;
    t.matchings_rebuilt <- t.matchings_rebuilt + matchings_rebuilt

  let add_retry t ~backoff =
    t.retries <- t.retries + 1;
    t.backoff_time <- R.add t.backoff_time backoff
end

let value_by_name m sol name = sol.values.(find_var m name)

(* --- validation --- *)

(* The objective at the point [x], one value per variable, if every
   bound holds and then every constraint, each in declaration order;
   otherwise the first violation.  [x] is read once per variable, up to
   the first violated bound. *)
let check_point m x =
  let values = Array.make m.nvars R.zero in
  let rec bounds v =
    if v >= m.nvars then None
    else
      let vi = m.vars.(v) and xv = x v in
      values.(v) <- xv;
      if R.sign xv < 0 then
        Some (Printf.sprintf "var %s = %s is negative" vi.name (R.to_string xv))
      else
        match vi.ub with
        | Some u when R.compare xv u > 0 ->
          Some
            (Printf.sprintf "var %s = %s above ub %s" vi.name (R.to_string xv)
               (R.to_string u))
        | _ -> bounds (v + 1)
  in
  let rec rows r =
    if r >= m.ncons then None
    else
      let cns = m.cons.(r) in
      let lhs = dot cns.row values in
      let ok =
        match cns.rel with
        | Le -> R.compare lhs cns.rhs <= 0
        | Ge -> R.compare lhs cns.rhs >= 0
        | Eq -> R.equal lhs cns.rhs
      in
      if ok then rows (r + 1)
      else
        Some
          (Printf.sprintf "constraint %s violated: lhs = %s, rhs = %s" cns.cname
             (R.to_string lhs) (R.to_string cns.rhs))
  in
  match bounds 0 with
  | Some msg -> Error msg
  | None -> (
    match rows 0 with
    | Some msg -> Error msg
    | None -> Ok (dot (snd (objective_row m)) values))

let check_solution m f = Result.map R.to_string (check_point m f)

(* Exact optimality certificate, re-derived from the model alone.  In
   minimisation form (objective and duals negated for [Maximize]), with
   row duals [y] and reduced costs
   [d_v = c_v - sum_r y_r a_rv - y_(ub:v)]: [Le] rows, [ub:] rows
   included, need [y <= 0] and [Ge] rows [y >= 0]; every variable needs
   [d_v >= 0]; and strong duality reads [c.x = sum_r y_r rhs_r].  One
   pass over the nonzeros, the rows walked by position; a row whose
   dual is zero adds nothing and is skipped, and names are only looked
   up to report a failure. *)
let certify m sol =
  let ( let* ) = Result.bind in
  let* () =
    if Array.length sol.values = m.nvars && Array.length sol.duals = num_rows m
    then Ok ()
    else
      Error
        (Printf.sprintf
           "answer shape: %d values and %d duals for %d variables and %d rows"
           (Array.length sol.values) (Array.length sol.duals) m.nvars
           (num_rows m))
  in
  let* obj =
    Result.map_error (fun e -> "primal: " ^ e)
      (check_point m (Array.get sol.values))
  in
  let sense, f = objective_row m in
  let orient = if sense = Maximize then R.neg else Fun.id in
  let* () =
    if R.equal obj sol.objective then Ok ()
    else Error "objective differs from the value of the returned point"
  in
  let d = Array.make m.nvars R.zero in
  Array.iteri (fun k v -> d.(v) <- orient f.coefs.(k)) f.cols;
  let dual_obj = ref R.zero and bad_row = ref (-1) in
  (* row [r]'s oriented dual, its sign checked and its share of the
     dual objective added *)
  let price r rel rhs =
    let y = orient sol.duals.(r) in
    let ok =
      match rel with
      | Le -> R.sign y <= 0
      | Ge -> R.sign y >= 0
      | Eq -> true
    in
    if (not ok) && !bad_row < 0 then bad_row := r;
    dual_obj := R.add !dual_obj (R.mul y rhs);
    y
  in
  for r = 0 to m.ncons - 1 do
    if not (R.is_zero sol.duals.(r)) then begin
      let { row = { cols; coefs }; rel; rhs; _ } = m.cons.(r) in
      let y = price r rel rhs in
      Array.iteri (fun k v -> d.(v) <- R.sub d.(v) (R.mul y coefs.(k))) cols
    end
  done;
  let r = ref m.ncons in
  for v = 0 to m.nvars - 1 do
    match m.vars.(v).ub with
    | None -> ()
    | Some u ->
      if not (R.is_zero sol.duals.(!r)) then d.(v) <- R.sub d.(v) (price !r Le u);
      incr r
  done;
  match (!bad_row, Array.find_index (fun x -> R.sign x < 0) d) with
  | r, _ when r >= 0 ->
    Error
      (Printf.sprintf "dual: dual of row %s has the wrong sign: %s"
         (List.nth (row_names m) r)
         (R.to_string (orient sol.duals.(r))))
  | _, Some v ->
    Error
      (Printf.sprintf "dual: reduced cost of %s is infeasible: %s"
         (var_name m v) (R.to_string d.(v)))
  | _, None ->
    let primal = orient sol.objective in
    if R.equal primal !dual_obj then Ok ()
    else
      Error
        (Printf.sprintf "duality gap: primal %s, dual %s" (R.to_string primal)
           (R.to_string !dual_obj))

let solve ?cache ?stats m =
  let n = num_vars m in
  (* the disk tier, and the key of this model's record in it *)
  let disk =
    match cache with
    | Some ({ Cache.disk = Some d; _ } as cc) ->
      Some (cc, d, cache_key (signature m) m)
    | Some _ | None -> None
  in
  let served =
    match disk with
    | None -> None
    | Some (cc, d, key) -> (
      match Solve_store.find d key with
      | None -> None
      | Some value -> (
        (* the checksum covers bytes, not answers: an optimum is served
           only once [certify] proves it from the model *)
        match decode_entry m value with
        | Some sol when Result.is_ok (certify m sol) ->
          cc.Cache.hits <- cc.Cache.hits + 1;
          Some (Optimal sol)
        | Some _ | None ->
          (* an uncertified optimum, or checksum-valid bytes the value
             decoder rejects (encoding version skew): demote, treat as
             a miss *)
          Solve_store.quarantine d key;
          None))
  in
  match served with
  | Some res -> res
  | None ->
    Option.iter (fun cc -> cc.Cache.misses <- cc.Cache.misses + 1) cache;
    let { rows; b; c; flip; kernel_row } = translate m in
    let res =
      match Simplex.minimize ~rows ~b ~c () with
      | Simplex.Infeasible -> Infeasible
      | Simplex.Unbounded -> Unbounded
      | Simplex.Optimal { values; objective; duals = std_duals; pivots } ->
        (match stats with
        | Some s -> Stats.add s ~pivots
        | None -> ());
        let values = Array.sub values 0 n in
        let objective = if flip then R.neg objective else objective in
        (* kernel duals are for the standard form [min]; re-orient for
           the model's sense so that strong duality reads
           [objective = sum_r dual_r * rhs_r] over constraint and
           [ub:] rows alike.  An implied [ub:] row the kernel never saw
           is redundant, so pricing it at 0 keeps the duals optimal. *)
        let duals =
          Array.map
            (fun k ->
              let y = if k < 0 then R.zero else std_duals.(k) in
              if flip then R.neg y else y)
            kernel_row
        in
        Optimal { objective; values; duals }
    in
    (match (disk, res) with
    | Some (_, d, key), Optimal sol -> Solve_store.add d key (encode_entry sol)
    | _ -> ());
    res

(* --- printing --- *)

let pp_row names ppf { cols; coefs } =
  Array.iteri
    (fun k v ->
      let c = coefs.(k) in
      if k = 0 then begin
        if R.equal c R.one then Format.fprintf ppf "%s" names.(v)
        else if R.equal c R.minus_one then Format.fprintf ppf "-%s" names.(v)
        else Format.fprintf ppf "%a %s" R.pp c names.(v)
      end
      else if R.sign c >= 0 then
        if R.equal c R.one then Format.fprintf ppf " + %s" names.(v)
        else Format.fprintf ppf " + %a %s" R.pp c names.(v)
      else if R.equal c R.minus_one then Format.fprintf ppf " - %s" names.(v)
      else Format.fprintf ppf " - %a %s" R.pp (R.abs c) names.(v))
    cols;
  if Array.length cols = 0 then Format.fprintf ppf "0"

let pp ppf m =
  let names = Array.init m.nvars (var_name m) in
  (match m.objective with
  | None -> Format.fprintf ppf "(no objective)@."
  | Some (s, row) ->
    Format.fprintf ppf "%s %a@."
      (match s with Maximize -> "maximize" | Minimize -> "minimize")
      (pp_row names) row);
  Format.fprintf ppf "subject to@.";
  for r = 0 to m.ncons - 1 do
    let c = m.cons.(r) in
    Format.fprintf ppf "  %s: %a %s %a@." c.cname (pp_row names) c.row
      (match c.rel with Le -> "<=" | Ge -> ">=" | Eq -> "=")
      R.pp c.rhs
  done;
  Format.fprintf ppf "bounds@.";
  for v = 0 to m.nvars - 1 do
    let vi = m.vars.(v) in
    Format.fprintf ppf "  0 <= %s <= %s@." vi.name
      (match vi.ub with None -> "+inf" | Some u -> R.to_string u)
  done
