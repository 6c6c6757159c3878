(* Model layer: named variables with bounds, sparse expressions, and the
   translation to the standard form consumed by Simplex.

   Translation rules:
   - finite lower bound  l:  x = x' + l  with  x' >= 0 (shift);
   - free variable:          x = x+ - x-, both >= 0 (split);
   - finite upper bound  u:  extra row  x <= u  (after shifting), unless
     a model row already implies it (see [implied_bounds]);
   - Le / Ge rows get a slack / surplus column, Eq rows none;
   phase-1 artificials are Simplex's business. *)

module R = Rat

type var = int

module Imap = Map.Make (Int)

type linexpr = R.t Imap.t

type relation = Le | Ge | Eq
type sense = Maximize | Minimize

type var_info = { name : string; lb : R.t option; ub : R.t option }

type cons = { cname : string; expr : linexpr; rel : relation; rhs : R.t }

type model = {
  mutable vars : var_info list; (* reversed *)
  mutable nvars : int;
  mutable cons : cons list; (* reversed *)
  mutable ncons : int;
  mutable objective : (sense * linexpr) option;
  names : (string, var) Hashtbl.t;
}

let create () =
  { vars = []; nvars = 0; cons = []; ncons = 0; objective = None;
    names = Hashtbl.create 64 }

let add_var ?(lb = Some R.zero) ?(ub = None) m name =
  if Hashtbl.mem m.names name then
    invalid_arg (Printf.sprintf "Lp.add_var: duplicate variable %S" name);
  (match (lb, ub) with
  | Some l, Some u when R.compare l u > 0 ->
    invalid_arg (Printf.sprintf "Lp.add_var: %S has lb > ub" name)
  | _ -> ());
  let v = m.nvars in
  m.vars <- { name; lb; ub } :: m.vars;
  m.nvars <- m.nvars + 1;
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

type solution = {
  objective : R.t;
  values : var -> R.t;
  duals : (string * R.t) list;
}

type result = Optimal of solution | Infeasible | Unbounded

let duals sol = sol.duals

let constraints m =
  List.rev_map (fun c -> (c.cname, c.rel, c.rhs)) m.cons

let var_bounds m =
  List.rev_map (fun vi -> (vi.name, vi.lb, vi.ub)) m.vars

(* how each model variable maps to standard-form columns *)
type col_map =
  | Shifted of int * R.t (* column, lower bound:  x = col + l *)
  | Split of int * int (* x = col+ - col- *)

(* The instance the kernel solves, and what [solve] needs to map its
   answer back to the model: the column map, the objective constant
   picked up while substituting bounds, whether the objective sign was
   flipped (Maximize), and each named row's kernel row (-1 when
   omitted). *)
type std = {
  rows : Simplex.row array;
  b : R.t array;
  c : R.t array;
  cmap : col_map array;
  obj_const : R.t;
  flip : bool;
  kernel_row : int array;
}

(* Variables whose [ub:] row a model [Le] row already implies: with
   positive coefficients over lower-bounded variables only,
   [sum_j a_j x_j <= r] caps each of its variables at
   [x_v - l_v <= (r - sum_j a_j l_j) / a_v], so [ub:v] is redundant
   when that cap is at most [u_v - l_v].  A row whose slack at the
   lower bounds is negative is infeasible by itself and implies every
   bound. *)
let implied_bounds vars cons =
  let implied = Array.make (Array.length vars) false in
  List.iter
    (fun c ->
      if c.rel = Le then
        let slack =
          Imap.fold
            (fun v a acc ->
              match (acc, vars.(v).lb) with
              | Some s, Some l when R.sign a > 0 -> Some (R.sub s (R.mul a l))
              | _ -> None)
            c.expr (Some c.rhs)
        in
        match slack with
        | None -> ()
        | Some slack ->
          Imap.iter
            (fun v a ->
              match (vars.(v).lb, vars.(v).ub) with
              | Some l, Some u when R.compare slack (R.mul a (R.sub u l)) <= 0
                ->
                implied.(v) <- true
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
  let next_col = ref 0 in
  let fresh () = let c = !next_col in incr next_col; c in
  let cmap =
    Array.map
      (fun vi ->
        match vi.lb with
        | Some l -> Shifted (fresh (), l)
        | None -> let p = fresh () in let q = fresh () in Split (p, q))
      vars
  in
  let slack = ref !next_col in
  (* expression -> (reversed (column, coefficient) terms, constant) with
     x substituted *)
  let expand expr =
    Imap.fold
      (fun v c (terms, const) ->
        match cmap.(v) with
        | Shifted (col, l) -> ((col, c) :: terms, R.add const (R.mul c l))
        | Split (p, q) -> ((q, R.neg c) :: (p, c) :: terms, const))
      expr ([], R.zero)
  in
  let rows = ref [] and b = ref [] and n_rows = ref 0 in
  let add_row rev_terms rel rhs =
    let rev_terms =
      match rel with
      | Eq -> rev_terms
      | Le -> (!slack, R.one) :: rev_terms
      | Ge -> (!slack, R.minus_one) :: rev_terms
    in
    if rel <> Eq then incr slack;
    let terms = Array.of_list (List.rev rev_terms) in
    rows := (Array.map fst terms, Array.map snd terms) :: !rows;
    b := rhs :: !b;
    incr n_rows;
    !n_rows - 1
  in
  (* each named row's kernel row, reversed *)
  let kernel_row = ref [] in
  let keep k = kernel_row := k :: !kernel_row in
  List.iter
    (fun c ->
      let terms, const = expand c.expr in
      keep (add_row terms c.rel (R.sub c.rhs const)))
    cons;
  let implied = implied_bounds vars cons in
  Array.iteri
    (fun v vi ->
      match vi.ub with
      | None -> ()
      | Some _ when implied.(v) -> keep (-1)
      | Some u -> (
        match cmap.(v) with
        | Shifted (col, l) -> keep (add_row [ (col, R.one) ] Le (R.sub u l))
        | Split (p, q) ->
          keep (add_row [ (q, R.minus_one); (p, R.one) ] Le u)))
    vars;
  let sense, obj_expr =
    match m.objective with
    | Some (s, e) -> (s, e)
    | None -> (Minimize, zero)
  in
  let obj_terms, obj_const = expand obj_expr in
  let flip = sense = Maximize in
  let c = Array.make !slack R.zero in
  List.iter (fun (j, v) -> c.(j) <- (if flip then R.neg v else v)) obj_terms;
  {
    rows = Array.of_list (List.rev !rows);
    b = Array.of_list (List.rev !b);
    c;
    cmap;
    obj_const;
    flip;
    kernel_row = Array.of_list (List.rev !kernel_row);
  }

let standard_form m =
  let s = translate m in
  (s.rows, s.b, s.c)

(* --- the solve cache --- *)

(* Structural signature of a model: variable names and bound *shapes*
   (which decide the column map and the candidate upper-bound rows) plus
   constraint names and relations (which decide row order and slack
   columns).  Which [ub:] rows the standard form keeps also depends on
   the coefficient values, which the rest of the cache key
   ({!cache_key}) dumps, indexed by variable number; the signature
   prefixes it. *)
let signature m =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (string_of_int m.nvars);
  List.iter
    (fun vi ->
      Buffer.add_char buf '|';
      Buffer.add_string buf vi.name;
      Buffer.add_char buf (match vi.lb with Some _ -> 's' | None -> 'f');
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

  (* Domain-local cache family: each {!Par.Pool} worker domain lazily
     gets (and keeps, across tasks) its own cache, so parallel sweeps
     reuse solves without locking; the registry only exists for
     aggregate counters and [clear].  Family caches
     are memory-only: a [Disk.t] handle is not safe to share across
     domains (per-handle counters and tempfile sequencing are
     unsynchronised), so the disk tier belongs to single-domain
     caches. *)
  module Family = struct
    type cache = t

    type t = {
      key : cache Domain.DLS.key;
      mu : Mutex.t;
      registry : cache list ref;
    }

    let create ?(capacity = 512) () =
      if capacity <= 0 then
        invalid_arg "Lp.Cache.Family.create: capacity <= 0";
      let mu = Mutex.create () in
      let registry = ref [] in
      let key =
        Domain.DLS.new_key (fun () ->
            let c =
              { tbl = Hashtbl.create 64; capacity; disk = None; tick = 0;
                hits = 0; misses = 0; evictions = 0; disk_hits = 0 }
            in
            Mutex.lock mu;
            registry := c :: !registry;
            Mutex.unlock mu;
            c)
      in
      { key; mu; registry }

    let slot f = Domain.DLS.get f.key

    let caches f =
      Mutex.lock f.mu;
      let l = !(f.registry) in
      Mutex.unlock f.mu;
      l

    let domains f = List.length (caches f)
    let hits f = List.fold_left (fun a c -> a + c.hits) 0 (caches f)
    let misses f = List.fold_left (fun a c -> a + c.misses) 0 (caches f)
    let evictions f =
      List.fold_left (fun a c -> a + c.evictions) 0 (caches f)
    let length f = List.fold_left (fun a c -> a + length c) 0 (caches f)
    let clear f = List.iter clear (caches f)
  end
end

(* Exact cache key: the structural signature plus every coefficient of
   the *model* — objective sense and terms, constraint terms and
   right-hand sides, and both bound values.  The standard form is a
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
      (match vi.lb with Some l -> dump l | None -> Buffer.add_char buf 'n');
      match vi.ub with Some u -> dump u | None -> Buffer.add_char buf 'n')
    (List.rev m.vars);
  Buffer.contents buf

(* Row names of the standard form, in translate's row order: model
   constraints first, then one [ub:<var>] row per upper-bounded
   variable. *)
let row_names m =
  let cons = List.rev_map (fun c -> c.cname) m.cons in
  let ubs =
    List.rev
      (List.fold_left
         (fun acc vi ->
           match vi.ub with
           | None -> acc
           | Some _ -> ("ub:" ^ vi.name) :: acc)
         []
         (List.rev m.vars))
  in
  List.rev_append (List.rev cons) ubs

(* --- disk-record value encoding ---

   The byte-level envelope (version magic, length, checksum, key echo)
   belongs to {!Solve_store}; what is encoded here is only the *value*:
   the solve outcome in exact decimal, one token per line.  Rationals
   round-trip exactly through [R.to_string]/[R.of_string] (canonical
   form), so a record read back is bit-identical to the result that was
   stored — the property the corruption harness asserts end to end.
   Dual names are NOT stored: key equality already implies an identical
   model, so they are rebuilt from the model at decode time, keeping
   records small.  The format tag also names the kernel behaviour: when
   a change makes a re-solve return a different optimal vertex (version
   2: the crash-basis cold start), the tag moves, so records of the old
   kernel are quarantined and re-solved rather than served as a hit that
   differs from a re-solve.  Version 3 drops the warm-start basis line
   that versions 1 and 2 carried after the duals; version 4 keeps
   implied [ub:] rows out of the kernel, which can move the vertex of a
   degenerate model. *)

let value_format = "lpres 4"

let encode_entry ~n (res : result) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf value_format;
  Buffer.add_char buf '\n';
  (match res with
  | Infeasible -> Buffer.add_string buf "I\n"
  | Unbounded -> Buffer.add_string buf "U\n"
  | Optimal sol ->
    Buffer.add_string buf "O\n";
    Buffer.add_string buf (R.to_string sol.objective);
    Buffer.add_char buf '\n';
    Buffer.add_string buf (string_of_int n);
    Buffer.add_char buf '\n';
    for v = 0 to n - 1 do
      Buffer.add_string buf (R.to_string (sol.values v));
      Buffer.add_char buf '\n'
    done;
    Buffer.add_string buf (string_of_int (List.length sol.duals));
    Buffer.add_char buf '\n';
    List.iter
      (fun (_, y) ->
        Buffer.add_string buf (R.to_string y);
        Buffer.add_char buf '\n')
      sol.duals);
  Buffer.contents buf

(* [None] on *any* malformed value, trailing lines included — the caller
   quarantines the record and re-solves cold. *)
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
      let res =
        match line () with
        | "I" -> Infeasible
        | "U" -> Unbounded
        | "O" ->
          let objective = rat () in
          let n = int () in
          if n <> num_vars m then raise Exit;
          let values = Array.make n R.zero in
          for i = 0 to n - 1 do
            values.(i) <- rat ()
          done;
          let names = row_names m in
          let d = int () in
          if d <> List.length names then raise Exit;
          let duals = List.map (fun name -> (name, rat ())) names in
          Optimal { objective; values = (fun v -> values.(v)); duals }
        | _ -> raise Exit
      in
      if !next <> [ "" ] then raise Exit;
      Some res
    with Exit | Invalid_argument _ | Division_by_zero | Failure _ -> None)
  | _ -> None

(* Exact solver-effort counters, accumulated across kernel solves (cache
   hits contribute nothing — no kernel ran).  Pivot counts are
   deterministic (exact arithmetic, deterministic rules), so the bench
   can attribute a speedup to fewer pivots vs cheaper pivots.
   [refactors] and [warm_remapped] are always 0: the tableau kernel never
   refactorises and every solve is cold; the fields stay so trace
   consumers keep their schema. *)
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
    mutable repairs_budget_exceeded : int;
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
      repairs_budget_exceeded = 0;
      retries = 0;
      backoff_time = R.zero;
    }

  let add t ~pivots =
    t.solves <- t.solves + 1;
    t.pivots <- t.pivots + pivots

  let add_reconstruction t ?(delays_reused = 0)
      ?(repairs_budget_exceeded = 0) ~cycles_cancelled ~matchings_repaired
      ~matchings_rebuilt ~slots_reused () =
    t.cycles_cancelled <- t.cycles_cancelled + cycles_cancelled;
    t.matchings_repaired <- t.matchings_repaired + matchings_repaired;
    t.matchings_rebuilt <- t.matchings_rebuilt + matchings_rebuilt;
    t.slots_reused <- t.slots_reused + slots_reused;
    t.delays_reused <- t.delays_reused + delays_reused;
    t.repairs_budget_exceeded <-
      t.repairs_budget_exceeded + repairs_budget_exceeded

  let add_retry t ~backoff =
    t.retries <- t.retries + 1;
    t.backoff_time <- R.add t.backoff_time backoff
end

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
              match decode_entry m value with
              | Some res ->
                cc.Cache.disk_hits <- cc.Cache.disk_hits + 1;
                let e = { Cache.e_key = key; e_res = res; e_tick = 0 } in
                Cache.insert cc hkey e;
                Some e
              | None ->
                (* checksum-valid bytes the value decoder rejects:
                   encoding version skew — demote, treat as a miss *)
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
    let { rows; b; c; cmap; obj_const; flip; kernel_row } = translate m in
    let res =
      match Simplex.minimize ~rows ~b ~c () with
      | Simplex.Infeasible -> Infeasible
      | Simplex.Unbounded -> Unbounded
      | Simplex.Optimal { values; objective; duals = std_duals; pivots } ->
        (match stats with
        | Some s -> Stats.add s ~pivots
        | None -> ());
        let value v =
          match cmap.(v) with
          | Shifted (col, l) -> R.add values.(col) l
          | Split (p, q) -> R.sub values.(p) values.(q)
        in
        let varcache = Array.init n value in
        let objective =
          let raw =
            R.add objective (if flip then R.neg obj_const else obj_const)
          in
          if flip then R.neg raw else raw
        in
        (* kernel duals are for the standard form [min]; re-orient for
           the model's sense so that for all-default-lower-bound models
           (obj_const = 0) strong duality reads
           [objective = sum_r dual_r * rhs_r] over constraint and
           [ub:] rows alike.  An implied [ub:] row the kernel never saw
           is redundant, so pricing it at 0 keeps the duals optimal. *)
        let duals =
          List.mapi
            (fun i name ->
              let k = kernel_row.(i) in
              let y = if k < 0 then R.zero else std_duals.(k) in
              (name, if flip then R.neg y else y))
            (row_names m)
        in
        Optimal { objective; values = (fun v -> varcache.(v)); duals }
    in
    (match cached with
    | Some (cc, key, hkey, None) ->
      Cache.insert cc hkey
        { Cache.e_key = key; e_res = res; e_tick = 0 };
      (match cc.Cache.disk with
      | None -> ()
      | Some d -> Solve_store.add d key (encode_entry ~n res))
    | _ -> ());
    res

let value_by_name m sol name = sol.values (find_var m name)

(* --- validation --- *)

let check_solution m f =
  let vars = var_array m in
  let violation = ref None in
  Array.iteri
    (fun v vi ->
      if !violation = None then begin
        let x = f v in
        (match vi.lb with
        | Some l when R.compare x l < 0 ->
          violation :=
            Some (Printf.sprintf "var %s = %s below lb %s" vi.name
                    (R.to_string x) (R.to_string l))
        | _ -> ());
        match vi.ub with
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
   included, need [y <= 0] and [Ge] rows [y >= 0]; a variable with a
   lower bound needs [d_v >= 0] and a free one [d_v = 0]; and strong
   duality reads [c.x = sum_r y_r rhs_r + sum_v d_v l_v], the last sum
   being the lower-bound shift.  One pass over the nonzeros. *)
let certify m sol =
  let ( let* ) = Result.bind in
  let* _ =
    Result.map_error (fun e -> "primal: " ^ e) (check_solution m sol.values)
  in
  let sense, f =
    match m.objective with Some o -> o | None -> (Minimize, zero)
  in
  let orient = if sense = Maximize then R.neg else Fun.id in
  let* () =
    if R.equal (eval sol.values f) sol.objective then Ok ()
    else Error "objective differs from the value of the returned point"
  in
  let vars = var_array m in
  let names = row_names m in
  let* () =
    if List.equal String.equal names (List.map fst sol.duals) then Ok ()
    else Error "duals do not name the model's rows in order"
  in
  let d = Array.make m.nvars R.zero in
  Imap.iter (fun v c -> d.(v) <- orient c) f;
  let dual_obj = ref R.zero in
  let bad = ref None in
  let row (name, y) (rel, rhs, expr) =
    let y = orient y in
    let ok =
      match rel with
      | Le -> R.sign y <= 0
      | Ge -> R.sign y >= 0
      | Eq -> true
    in
    if (not ok) && !bad = None then
      bad := Some (Printf.sprintf "dual of row %s has the wrong sign: %s" name
                     (R.to_string y));
    dual_obj := R.add !dual_obj (R.mul y rhs);
    Imap.iter (fun v a -> d.(v) <- R.sub d.(v) (R.mul y a)) expr
  in
  let ub_rows =
    List.concat
      (List.mapi
         (fun v vi ->
           match vi.ub with
           | Some u -> [ (Le, u, Imap.singleton v R.one) ]
           | None -> [])
         (Array.to_list vars))
  in
  (* same order as [row_names], whose match with the duals is checked *)
  List.iter2 row sol.duals
    (List.rev_map (fun c -> (c.rel, c.rhs, c.expr)) m.cons @ ub_rows);
  Array.iteri
    (fun v vi ->
      let ok =
        match vi.lb with
        | Some l ->
          dual_obj := R.add !dual_obj (R.mul d.(v) l);
          R.sign d.(v) >= 0
        | None -> R.is_zero d.(v)
      in
      if (not ok) && !bad = None then
        bad := Some (Printf.sprintf "reduced cost of %s is infeasible: %s"
                       vi.name (R.to_string d.(v))))
    vars;
  match !bad with
  | Some e -> Error ("dual: " ^ e)
  | None ->
    let primal = orient sol.objective in
    if R.equal primal !dual_obj then Ok ()
    else
      Error
        (Printf.sprintf "duality gap: primal %s, dual %s" (R.to_string primal)
           (R.to_string !dual_obj))

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
      Format.fprintf ppf "  %s <= %s <= %s@."
        (match vi.lb with None -> "-inf" | Some l -> R.to_string l)
        vi.name
        (match vi.ub with None -> "+inf" | Some u -> R.to_string u))
    vars
