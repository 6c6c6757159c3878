(* SEED SNAPSHOT — do not edit.  Verbatim copy of the seed's revised
   simplex kernel (git show <seed>:lib/lp/revised_simplex.ml; the library
   no longer ships a revised kernel), kept as the independent
   second-opinion solver that test_kernels.ml and test_lp.ml
   cross-check the tableau against. *)

(* Revised simplex: the constraint matrix lives in immutable sparse
   columns; the working state is the explicit basis inverse [binv], the
   basic solution [xb = B^-1 b] and the basis column indices.

   Per iteration:
     y   = c_B^T B^-1              (pricing vector, O(m^2))
     d_j = c_j - y . A_j           (per candidate column, O(nnz_j))
     u   = B^-1 A_j                (entering direction, O(m nnz_j))
     ratio test on xb ./ u, then a rank-one update of binv.

   Phase 1 starts from the all-artificial basis; artificials that remain
   basic at level zero are left in place (they can only leave, never
   re-enter), which handles redundant rows without row surgery. *)

module R = Rat

type outcome =
  | Optimal of { values : R.t array; objective : R.t; pivots : int }
  | Infeasible
  | Unbounded

type state = {
  m : int;
  n : int; (* structural columns *)
  cols : (int * R.t) list array; (* length n + m, sparse by row *)
  binv : R.t array array;
  xb : R.t array;
  basis : int array;
  in_basis : bool array;
  mutable pivots : int;
}

let objective_of st c =
  let obj = ref R.zero in
  for k = 0 to st.m - 1 do
    let cb = c.(st.basis.(k)) in
    if not (R.is_zero cb) then obj := R.add !obj (R.mul cb st.xb.(k))
  done;
  !obj

let pricing_vector st c =
  let y = Array.make st.m R.zero in
  for i = 0 to st.m - 1 do
    let acc = ref R.zero in
    for k = 0 to st.m - 1 do
      let cb = c.(st.basis.(k)) in
      if not (R.is_zero cb) then acc := R.add !acc (R.mul cb st.binv.(k).(i))
    done;
    y.(i) <- !acc
  done;
  y

let reduced_cost st c y j =
  List.fold_left
    (fun acc (i, a) -> R.sub acc (R.mul y.(i) a))
    c.(j)
    st.cols.(j)

let direction st j =
  let u = Array.make st.m R.zero in
  List.iter
    (fun (i, a) ->
      for k = 0 to st.m - 1 do
        if not (R.is_zero st.binv.(k).(i)) then
          u.(k) <- R.add u.(k) (R.mul st.binv.(k).(i) a)
      done)
    st.cols.(j);
  u

let pivot st p j u =
  let inv = R.inv u.(p) in
  let row_p = st.binv.(p) in
  for i = 0 to st.m - 1 do
    row_p.(i) <- R.mul row_p.(i) inv
  done;
  st.xb.(p) <- R.mul st.xb.(p) inv;
  for k = 0 to st.m - 1 do
    if k <> p && not (R.is_zero u.(k)) then begin
      let f = u.(k) in
      let row_k = st.binv.(k) in
      for i = 0 to st.m - 1 do
        row_k.(i) <- R.sub row_k.(i) (R.mul f row_p.(i))
      done;
      st.xb.(k) <- R.sub st.xb.(k) (R.mul f st.xb.(p))
    end
  done;
  st.in_basis.(st.basis.(p)) <- false;
  st.basis.(p) <- j;
  st.in_basis.(j) <- true;
  st.pivots <- st.pivots + 1

exception Unbounded_exc

let optimise st rule c allowed =
  let stall_limit = st.m + Array.length st.cols in
  let best_seen = ref (objective_of st c) in
  let stall = ref 0 in
  let bland_mode = ref (rule = Simplex.Bland) in
  let n_total = Array.length st.cols in
  let continue = ref true in
  while !continue do
    let y = pricing_vector st c in
    let entering =
      if !bland_mode then begin
        let rec go j =
          if j >= n_total then None
          else if
            allowed j
            && (not st.in_basis.(j))
            && R.sign (reduced_cost st c y j) < 0
          then Some j
          else go (j + 1)
        in
        go 0
      end
      else begin
        let best = ref None in
        for j = 0 to n_total - 1 do
          if allowed j && not st.in_basis.(j) then begin
            let d = reduced_cost st c y j in
            if R.sign d < 0 then begin
              match !best with
              | Some (_, db) when R.compare db d <= 0 -> ()
              | Some _ | None -> best := Some (j, d)
            end
          end
        done;
        Option.map fst !best
      end
    in
    match entering with
    | None -> continue := false
    | Some j ->
      let u = direction st j in
      let leave = ref None in
      for k = 0 to st.m - 1 do
        if R.sign u.(k) > 0 then begin
          let ratio = R.div st.xb.(k) u.(k) in
          match !leave with
          | None -> leave := Some (k, ratio)
          | Some (kb, rb) ->
            let cmp = R.compare ratio rb in
            if cmp < 0 || (cmp = 0 && st.basis.(k) < st.basis.(kb)) then
              leave := Some (k, ratio)
        end
      done;
      (match !leave with
      | None -> raise Unbounded_exc
      | Some (p, _) ->
        pivot st p j u;
        if (not !bland_mode) && rule = Simplex.Dantzig then begin
          let obj = objective_of st c in
          if R.compare obj !best_seen < 0 then begin
            best_seen := obj;
            stall := 0
          end
          else begin
            incr stall;
            if !stall > stall_limit then bland_mode := true
          end
        end)
  done

let minimize ?(rule = Simplex.Dantzig) ~a ~b ~c () =
  let m = Array.length a in
  let n = Array.length c in
  if Array.length b <> m then
    invalid_arg "Revised_simplex.minimize: |b| <> rows";
  Array.iter
    (fun row ->
      if Array.length row <> n then
        invalid_arg "Revised_simplex.minimize: ragged matrix")
    a;
  let n_total = n + m in
  (* build sparse columns, flipping rows with negative b *)
  let flip = Array.init m (fun i -> R.sign b.(i) < 0) in
  let cols = Array.make n_total [] in
  for j = 0 to n - 1 do
    let col = ref [] in
    for i = m - 1 downto 0 do
      let v = a.(i).(j) in
      if not (R.is_zero v) then
        col := (i, (if flip.(i) then R.neg v else v)) :: !col
    done;
    cols.(j) <- !col
  done;
  for i = 0 to m - 1 do
    cols.(n + i) <- [ (i, R.one) ]
  done;
  let st =
    {
      m;
      n;
      cols;
      binv = Array.init m (fun k -> Array.init m (fun i -> if i = k then R.one else R.zero));
      xb = Array.init m (fun i -> R.abs b.(i));
      basis = Array.init m (fun i -> n + i);
      in_basis =
        Array.init n_total (fun j -> j >= n);
      pivots = 0;
    }
  in
  (* phase 1 *)
  let c1 = Array.make n_total R.zero in
  for j = n to n_total - 1 do
    c1.(j) <- R.one
  done;
  (try optimise st rule c1 (fun _ -> true)
   with Unbounded_exc -> assert false);
  if R.sign (objective_of st c1) > 0 then Infeasible
  else begin
    (* drive artificials out where a structural pivot exists *)
    for p = 0 to m - 1 do
      if st.basis.(p) >= n then begin
        let found = ref None in
        let j = ref 0 in
        while !found = None && !j < n do
          if not st.in_basis.(!j) then begin
            let u = direction st !j in
            if R.sign u.(p) <> 0 then found := Some (!j, u)
          end;
          incr j
        done;
        match !found with
        | Some (j, u) ->
          if R.sign u.(p) < 0 then begin
            (* negate the row so the pivot element is positive; xb_p is
               zero so feasibility is untouched *)
            for i = 0 to m - 1 do
              st.binv.(p).(i) <- R.neg st.binv.(p).(i)
            done;
            st.xb.(p) <- R.neg st.xb.(p);
            let u = direction st j in
            pivot st p j u
          end
          else pivot st p j u
        | None -> () (* redundant row: artificial stays basic at zero *)
      end
    done;
    (* phase 2 *)
    let c2 = Array.make n_total R.zero in
    Array.blit c 0 c2 0 n;
    match optimise st rule c2 (fun j -> j < n) with
    | () ->
      let values = Array.make n R.zero in
      Array.iteri
        (fun k bj -> if bj < n then values.(bj) <- st.xb.(k))
        st.basis;
      Optimal { values; objective = objective_of st c2; pivots = st.pivots }
    | exception Unbounded_exc -> Unbounded
  end
