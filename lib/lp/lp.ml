(* Model layer: named non-negative variables with optional upper bounds,
   sparse expressions, and the translation to the standard form consumed
   by Simplex.

   Every variable is >= 0, so variable v is standard-form column v.
   Translation rules:
   - finite upper bound u:  extra row  x <= u, unless a model row
     already implies it (see [implied_bounds]);
   - Le / Ge rows get a slack / surplus column, Eq rows none;
   phase-1 artificials are Simplex's business. *)

module R = Rat

type var = int

module Imap = Map.Make (Int)

type linexpr = R.t Imap.t

type relation = Le | Ge | Eq
type sense = Maximize | Minimize

type var_info = { name : string; ub : R.t option }

type cons = { cname : string; expr : linexpr; rel : relation; rhs : R.t }

type model = {
  mutable vars : var_info list; (* reversed *)
  mutable nvars : int;
  mutable cons : cons list; (* reversed *)
  mutable ncons : int;
  mutable nubs : int; (* upper-bounded variables: one [ub:] row each *)
  mutable objective : (sense * linexpr) option;
  names : (string, var) Hashtbl.t;
}

let create () =
  { vars = []; nvars = 0; cons = []; ncons = 0; nubs = 0; objective = None;
    names = Hashtbl.create 64 }

let add_var ?(ub = None) m name =
  if Hashtbl.mem m.names name then
    invalid_arg (Printf.sprintf "Lp.add_var: duplicate variable %S" name);
  (match ub with
  | Some u when R.sign u < 0 ->
    invalid_arg (Printf.sprintf "Lp.add_var: %S has ub < 0" name)
  | _ -> ());
  let v = m.nvars in
  m.vars <- { name; ub } :: m.vars;
  m.nvars <- m.nvars + 1;
  if ub <> None then m.nubs <- m.nubs + 1;
  Hashtbl.add m.names name v;
  v

let var_array m = Array.of_list (List.rev m.vars)
let var_name m v = (List.nth m.vars (m.nvars - 1 - v)).name
let find_var m name =
  match Hashtbl.find_opt m.names name with
  | Some v -> v
  | None -> raise Not_found

let num_vars m = m.nvars
let num_constraints m = m.ncons
let num_rows m = m.ncons + m.nubs

let add_constraint ?name m expr rel rhs =
  let cname =
    match name with Some n -> n | None -> Printf.sprintf "c%d" m.ncons
  in
  m.cons <- { cname; expr; rel; rhs } :: m.cons;
  m.ncons <- m.ncons + 1

let set_objective m sense e = m.objective <- Some (sense, e)

(* --- expressions --- *)

let zero = Imap.empty
let term c v = if R.is_zero c then Imap.empty else Imap.singleton v c
let var v = term R.one v

let add a b =
  Imap.union
    (fun _ x y ->
      let s = R.add x y in
      if R.is_zero s then None else Some s)
    a b

let scale k e =
  if R.is_zero k then Imap.empty else Imap.map (fun c -> R.mul k c) e

let neg e = scale R.minus_one e
let sub a b = add a (neg b)
let of_terms l = List.fold_left (fun acc (c, v) -> add acc (term c v)) zero l
let sum l = List.fold_left add zero l

let eval f e =
  Imap.fold (fun v c acc -> R.add acc (R.mul c (f v))) e R.zero

(* --- solving --- *)

type solution = { objective : R.t; values : R.t array; duals : R.t array }

type result = Optimal of solution | Infeasible | Unbounded

let duals sol = sol.duals
let value sol v = sol.values.(v)

let constraints m =
  List.rev_map (fun c -> (c.cname, c.rel, c.rhs)) m.cons

let var_bounds m = List.rev_map (fun vi -> (vi.name, vi.ub)) m.vars

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
let implied_bounds vars cons =
  let implied = Array.make (Array.length vars) false in
  List.iter
    (fun c ->
      if c.rel = Le && Imap.for_all (fun _ a -> R.sign a > 0) c.expr then
        Imap.iter
          (fun v a ->
            match vars.(v).ub with
            | Some u when R.compare c.rhs (R.mul a u) <= 0 -> implied.(v) <- true
            | _ -> ())
          c.expr)
    cons;
  implied

(* Translate a model to the standard form min c.x, Ax = b, x >= 0 that
   the simplex kernel consumes, one sparse row per kept model row.  The
   columns are the variables' (in declaration order, so each [linexpr]
   yields its columns already sorted), then one slack per kept
   inequality row. *)
let translate m =
  let vars = var_array m in
  let cons = List.rev m.cons in
  let slack = ref m.nvars in
  let rows = ref [] and b = ref [] and n_rows = ref 0 in
  let add_row expr rel rhs =
    let slack_term =
      match rel with
      | Eq -> []
      | Le -> [ (!slack, R.one) ]
      | Ge -> [ (!slack, R.minus_one) ]
    in
    if rel <> Eq then incr slack;
    let terms = Array.of_list (Imap.bindings expr @ slack_term) in
    rows := (Array.map fst terms, Array.map snd terms) :: !rows;
    b := rhs :: !b;
    incr n_rows;
    !n_rows - 1
  in
  (* each named row's kernel row, reversed *)
  let kernel_row = ref [] in
  let keep k = kernel_row := k :: !kernel_row in
  List.iter (fun c -> keep (add_row c.expr c.rel c.rhs)) cons;
  let implied = implied_bounds vars cons in
  Array.iteri
    (fun v vi ->
      match vi.ub with
      | None -> ()
      | Some _ when implied.(v) -> keep (-1)
      | Some u -> keep (add_row (Imap.singleton v R.one) Le u))
    vars;
  let sense, obj_expr =
    match m.objective with
    | Some (s, e) -> (s, e)
    | None -> (Minimize, zero)
  in
  let flip = sense = Maximize in
  let c = Array.make !slack R.zero in
  Imap.iter (fun j v -> c.(j) <- (if flip then R.neg v else v)) obj_expr;
  {
    rows = Array.of_list (List.rev !rows);
    b = Array.of_list (List.rev !b);
    c;
    flip;
    kernel_row = Array.of_list (List.rev !kernel_row);
  }

let standard_form m =
  let s = translate m in
  (s.rows, s.b, s.c)

(* --- the solve cache --- *)

(* Structural signature of a model: variable names and which ones have
   an upper bound (the candidate [ub:] rows) plus constraint names and
   relations (which decide row order and slack columns).  Which [ub:]
   rows the standard form keeps also depends on the coefficient values,
   which the rest of the cache key ({!cache_key}) dumps, indexed by
   variable number; the signature prefixes it. *)
let signature m =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (string_of_int m.nvars);
  List.iter
    (fun vi ->
      Buffer.add_char buf '|';
      Buffer.add_string buf vi.name;
      Buffer.add_char buf (match vi.ub with Some _ -> 'u' | None -> '-'))
    (List.rev m.vars);
  Buffer.add_char buf '#';
  List.iter
    (fun c ->
      Buffer.add_char buf '|';
      Buffer.add_string buf c.cname;
      Buffer.add_char buf (match c.rel with Le -> 'L' | Ge -> 'G' | Eq -> 'E'))
    (List.rev m.cons);
  Buffer.contents buf

module Cache = struct
  module Disk = Solve_store

  type entry = {
    e_key : string; (* full canonical dump: the collision guard *)
    e_res : result;
    mutable e_tick : int; (* last-use stamp, for LRU eviction *)
  }

  type t = {
    tbl : (string, entry) Hashtbl.t;
    capacity : int;
    disk : Disk.t option;
    mutable tick : int;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
    mutable disk_hits : int;
  }

  let create ?(capacity = 512) ?disk () =
    if capacity <= 0 then invalid_arg "Lp.Cache.create: capacity <= 0";
    { tbl = Hashtbl.create 64; capacity; disk; tick = 0;
      hits = 0; misses = 0; evictions = 0; disk_hits = 0 }

  let clear t = Hashtbl.reset t.tbl
  let hits t = t.hits
  let misses t = t.misses
  let evictions t = t.evictions
  let disk_hits t = t.disk_hits
  let disk t = t.disk
  let length t = Hashtbl.length t.tbl

  let use t e =
    t.tick <- t.tick + 1;
    e.e_tick <- t.tick

  (* LRU insert: at capacity the stalest entry goes — not the whole
     table, which used to throw away a full working set on sweep
     workloads exactly when it was most valuable. The scan is O(n) per
     eviction; with the default capacity that is a few microseconds
     against the milliseconds a simplex run costs. *)
  let insert t key e =
    if (not (Hashtbl.mem t.tbl key))
       && Hashtbl.length t.tbl >= t.capacity
    then begin
      let victim =
        Hashtbl.fold
          (fun k e acc ->
            match acc with
            | Some (_, best) when best.e_tick <= e.e_tick -> acc
            | _ -> Some (k, e))
          t.tbl None
      in
      match victim with
      | Some (k, _) ->
        Hashtbl.remove t.tbl k;
        t.evictions <- t.evictions + 1
      | None -> ()
    end;
    Hashtbl.replace t.tbl key e;
    use t e
end

(* Exact cache key: the structural signature plus every coefficient of
   the *model* — objective sense and terms, constraint terms and
   right-hand sides, and the upper bounds.  The standard form is a
   deterministic function of exactly these, so equal keys translate to
   identical instances and a hit returns a result bit-identical to what
   re-solving would produce — while the lookup itself never pays for
   the translation (which is what makes a hit cheaper than a solve in
   the first place).  Rationals are kept in canonical form, so exact
   decimal dumps compare exactly. *)
let cache_key sg (m : model) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf sg;
  let dump v =
    Buffer.add_string buf (R.to_string v);
    Buffer.add_char buf ','
  in
  let dump_expr e =
    Imap.iter
      (fun v coeff ->
        Buffer.add_string buf (string_of_int v);
        Buffer.add_char buf ':';
        dump coeff)
      e;
    Buffer.add_char buf ';'
  in
  (match m.objective with
  | None -> Buffer.add_char buf 'n'
  | Some (sense, e) ->
    Buffer.add_char buf (match sense with Minimize -> 'm' | Maximize -> 'M');
    dump_expr e);
  List.iter
    (fun cns ->
      dump_expr cns.expr;
      dump cns.rhs)
    (List.rev m.cons);
  Buffer.add_char buf '|';
  List.iter
    (fun vi ->
      match vi.ub with Some u -> dump u | None -> Buffer.add_char buf 'n')
    (List.rev m.vars);
  Buffer.contents buf

(* Row names, for display: model constraints first, then one
   [ub:<var>] row per upper-bounded variable, the order of
   [solution.duals]. *)
let row_names m =
  List.rev_map (fun c -> c.cname) m.cons
  @ List.filter_map
      (fun vi -> Option.map (fun _ -> "ub:" ^ vi.name) vi.ub)
      (List.rev m.vars)

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

(* Exact solver-effort counters, accumulated across kernel solves (cache
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

let check_solution m f =
  let vars = var_array m in
  let violation = ref None in
  Array.iteri
    (fun v vi ->
      if !violation = None then begin
        let x = f v in
        match vi.ub with
        | _ when R.sign x < 0 ->
          violation :=
            Some (Printf.sprintf "var %s = %s is negative" vi.name
                    (R.to_string x))
        | Some u when R.compare x u > 0 ->
          violation :=
            Some (Printf.sprintf "var %s = %s above ub %s" vi.name
                    (R.to_string x) (R.to_string u))
        | _ -> ()
      end)
    vars;
  List.iter
    (fun cns ->
      if !violation = None then begin
        let lhs = eval f cns.expr in
        let ok =
          match cns.rel with
          | Le -> R.compare lhs cns.rhs <= 0
          | Ge -> R.compare lhs cns.rhs >= 0
          | Eq -> R.equal lhs cns.rhs
        in
        if not ok then
          violation :=
            Some (Printf.sprintf "constraint %s violated: lhs = %s, rhs = %s"
                    cns.cname (R.to_string lhs) (R.to_string cns.rhs))
      end)
    (List.rev m.cons);
  match !violation with
  | Some msg -> Error msg
  | None ->
    let obj =
      match m.objective with
      | None -> R.zero
      | Some (_, e) -> eval f e
    in
    Ok (R.to_string obj)

(* Exact optimality certificate, re-derived from the model alone.  In
   minimisation form (objective and duals negated for [Maximize]), with
   row duals [y] and reduced costs
   [d_v = c_v - sum_r y_r a_rv - y_(ub:v)]: [Le] rows, [ub:] rows
   included, need [y <= 0] and [Ge] rows [y >= 0]; every variable needs
   [d_v >= 0]; and strong duality reads [c.x = sum_r y_r rhs_r].  One
   pass over the nonzeros, the rows walked by position; names are only
   looked up to report a failure. *)
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
  let* _ =
    Result.map_error (fun e -> "primal: " ^ e)
      (check_solution m (Array.get sol.values))
  in
  let sense, f =
    match m.objective with Some o -> o | None -> (Minimize, zero)
  in
  let orient = if sense = Maximize then R.neg else Fun.id in
  let* () =
    if R.equal (eval (Array.get sol.values) f) sol.objective then Ok ()
    else Error "objective differs from the value of the returned point"
  in
  let d = Array.make m.nvars R.zero in
  Imap.iter (fun v c -> d.(v) <- orient c) f;
  let dual_obj = ref R.zero and bad_row = ref (-1) in
  let row r rel rhs expr =
    let y = orient sol.duals.(r) in
    let ok =
      match rel with
      | Le -> R.sign y <= 0
      | Ge -> R.sign y >= 0
      | Eq -> true
    in
    if (not ok) && !bad_row < 0 then bad_row := r;
    dual_obj := R.add !dual_obj (R.mul y rhs);
    Imap.iter (fun v a -> d.(v) <- R.sub d.(v) (R.mul y a)) expr
  in
  List.iteri (fun r c -> row r c.rel c.rhs c.expr) (List.rev m.cons);
  let r = ref m.ncons in
  List.iteri
    (fun v vi ->
      Option.iter
        (fun u ->
          row !r Le u (Imap.singleton v R.one);
          incr r)
        vi.ub)
    (List.rev m.vars);
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
  let cached =
    match cache with
    | None -> None
    | Some cc ->
      let key = cache_key (signature m) m in
      (* the table is keyed by a fixed-width digest of the canonical
         dump, so the hashtable never hashes (or compares, on the
         bucket walk) the full dump — lookup cost is independent of
         model size.  The dump is echoed in the entry: on the
         astronomically unlikely digest collision the echo differs and
         the lookup degrades to a miss, mirroring {!Solve_store}'s
         key-echo guard. *)
      let hkey = Solve_store.digest key in
      let entry =
        match Hashtbl.find_opt cc.Cache.tbl hkey with
        | Some e when String.equal e.Cache.e_key key ->
          Cache.use cc e;
          Some e
        | Some _ (* digest collision *) | None -> (
          match cc.Cache.disk with
          | None -> None
          | Some d -> (
            match Solve_store.find d key with
            | None -> None
            | Some value -> (
              (* the checksum covers bytes, not answers: an optimum is
                 served only once [certify] proves it from the model *)
              match decode_entry m value with
              | Some sol when Result.is_ok (certify m sol) ->
                cc.Cache.disk_hits <- cc.Cache.disk_hits + 1;
                let e = { Cache.e_key = key; e_res = Optimal sol; e_tick = 0 } in
                Cache.insert cc hkey e;
                Some e
              | Some _ | None ->
                (* an uncertified optimum, or checksum-valid bytes the
                   value decoder rejects (encoding version skew): demote,
                   treat as a miss *)
                Solve_store.quarantine d key;
                None)))
      in
      Some (cc, key, hkey, entry)
  in
  match cached with
  | Some (cc, _, _, Some entry) ->
    cc.Cache.hits <- cc.Cache.hits + 1;
    entry.Cache.e_res
  | _ ->
    (match cached with
    | Some (cc, _, _, None) -> cc.Cache.misses <- cc.Cache.misses + 1
    | _ -> ());
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
    (match cached with
    | Some (cc, key, hkey, None) ->
      Cache.insert cc hkey
        { Cache.e_key = key; e_res = res; e_tick = 0 };
      (match (cc.Cache.disk, res) with
      | Some d, Optimal sol -> Solve_store.add d key (encode_entry sol)
      | _ -> ())
    | _ -> ());
    res

(* --- printing --- *)

let pp_linexpr names ppf e =
  let first = ref true in
  Imap.iter
    (fun v c ->
      let s = R.sign c in
      if !first then begin
        first := false;
        if R.equal c R.one then Format.fprintf ppf "%s" names.(v)
        else if R.equal c R.minus_one then Format.fprintf ppf "-%s" names.(v)
        else Format.fprintf ppf "%a %s" R.pp c names.(v)
      end
      else if s >= 0 then
        if R.equal c R.one then Format.fprintf ppf " + %s" names.(v)
        else Format.fprintf ppf " + %a %s" R.pp c names.(v)
      else if R.equal c R.minus_one then Format.fprintf ppf " - %s" names.(v)
      else Format.fprintf ppf " - %a %s" R.pp (R.abs c) names.(v))
    e;
  if !first then Format.fprintf ppf "0"

let pp ppf m =
  let vars = var_array m in
  let names = Array.map (fun vi -> vi.name) vars in
  (match m.objective with
  | None -> Format.fprintf ppf "(no objective)@."
  | Some (s, e) ->
    Format.fprintf ppf "%s %a@."
      (match s with Maximize -> "maximize" | Minimize -> "minimize")
      (pp_linexpr names) e);
  Format.fprintf ppf "subject to@.";
  List.iter
    (fun c ->
      Format.fprintf ppf "  %s: %a %s %a@." c.cname (pp_linexpr names) c.expr
        (match c.rel with Le -> "<=" | Ge -> ">=" | Eq -> "=")
        R.pp c.rhs)
    (List.rev m.cons);
  Format.fprintf ppf "bounds@.";
  Array.iter
    (fun vi ->
      Format.fprintf ppf "  0 <= %s <= %s@." vi.name
        (match vi.ub with None -> "+inf" | Some u -> R.to_string u))
    vars
