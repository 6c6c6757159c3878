(* Reference oracle for Master_slave.solve on a tree: the eager,
   list-based bandwidth-centric closed form the library's lazy sweep
   replaced.  It solves one knapsack at every reached node, bottom-up,
   whether or not the flow ever reaches it, then routes the flow
   top-down over the whole BFS order.  The tests require the lazy sweep
   to agree with it bit for bit on ntask, alpha, send_frac and
   task_flow. *)

module R = Rat
module P = Platform

(* children of each reachable node, as (tree_edge, child) pairs in BFS
   discovery order *)
let children p (t : Tree_decomp.t) =
  let kids = Array.make (P.num_nodes p) [] in
  Array.iter
    (fun v ->
      let e = t.parent_edge.(v) in
      if e >= 0 then begin
        let u = P.edge_src p e in
        kids.(u) <- (e, v) :: kids.(u)
      end)
    t.order;
  Array.map List.rev kids

(* generic bottom-up absorption: children are folded before their
   parent (reverse BFS order), [f v child_results] sees one
   [(tree_edge, child_value)] per child.  Entries of unreached nodes
   keep [default]. *)
let bottom_up p (t : Tree_decomp.t) ~default ~f =
  let kids = children p t in
  let value = Array.make (P.num_nodes p) default in
  for idx = Array.length t.order - 1 downto 0 do
    let v = t.order.(idx) in
    value.(v) <- f v (List.map (fun (e, w) -> (e, value.(w))) kids.(v))
  done;
  value

(* max sum y_e/c_e  s.t.  sum y_e <= 1,  0 <= y_e <= min(1, c_e*cap_e),
   in closed form: the vertex the exact simplex kernel returns.  The
   first child whose bound is 1 takes whatever the strictly cheaper
   children, filled cheapest first with ties to the later child, leave
   of the port; without such a child every child is filled that way.
   Returns the optimum and one (e, y_e) per child, in input order. *)
let knapsack children =
  let items =
    Array.of_list
      (List.map (fun (e, c, cap) -> (e, c, R.min R.one (R.mul c cap))) children)
  in
  let n = Array.length items in
  let cost k = let _, c, _ = items.(k) in c in
  let first_full =
    let rec find k =
      if k = n then None
      else
        let _, _, ub = items.(k) in
        if R.equal ub R.one then Some k else find (k + 1)
    in
    find 0
  in
  let fill =
    List.init n (fun k -> n - 1 - k)
    |> List.filter (fun k ->
           match first_full with
           | None -> true
           | Some f -> R.compare (cost k) (cost f) < 0)
    (* stable on the reversed list: equal costs go to the later child *)
    |> List.stable_sort (fun a b -> R.compare (cost a) (cost b))
  in
  let y = Array.make n R.zero in
  let left =
    List.fold_left
      (fun left k ->
        let _, _, ub = items.(k) in
        let yk = R.min ub left in
        y.(k) <- yk;
        R.sub left yk)
      R.one fill
  in
  Option.iter (fun f -> y.(f) <- left) first_full;
  let value = ref R.zero in
  Array.iteri (fun k (_, c, _) -> value := R.add !value (R.div y.(k) c)) items;
  (!value, List.mapi (fun k (e, _, _) -> (e, y.(k))) children)

(* the whole sweep around any per-node [knapsack] *)
let sweep ~knapsack p ~master =
  let td =
    match Tree_decomp.detect p ~root:master with
    | Some td -> td
    | None -> invalid_arg "Tree_eager_reference.sweep: not a tree"
  in
  (* bottom-up absorption: each node's value is (cap, K, plan) *)
  let absorbed =
    bottom_up p td ~default:(R.zero, R.zero, []) ~f:(fun i cs ->
        let children =
          List.map (fun (e, (c_cap, _, _)) -> (e, P.edge_cost p e, c_cap)) cs
        in
        let k, ys = knapsack children in
        let cap =
          if i = master then R.zero (* the root has no parent link *)
          else
            R.min
              (R.inv (P.edge_cost p td.Tree_decomp.parent_edge.(i)))
              (R.add (P.speed p i) k)
        in
        (cap, k, ys))
  in
  let kk = Array.map (fun (_, k, _) -> k) absorbed in
  let plan = Array.map (fun (_, _, ys) -> ys) absorbed in
  (* top-down: route the actual flow, scaling each saturated plan to
     the excess that really arrives *)
  let n = P.num_nodes p in
  let alpha = Array.make n R.zero in
  let send = Array.make (P.num_edges p) R.zero in
  let inflow = Array.make n R.zero in
  let consumed = ref R.zero in
  Array.iter
    (fun i ->
      let self, excess =
        if i = master then (P.speed p i, kk.(i))
        else
          let f = inflow.(i) in
          let self = R.min f (P.speed p i) in
          (self, R.sub f self)
      in
      if R.sign (P.speed p i) > 0 then alpha.(i) <- R.div self (P.speed p i);
      consumed := R.add !consumed self;
      if R.sign excess > 0 then begin
        let factor = R.div excess kk.(i) in
        List.iter
          (fun (e, y) ->
            let y' = R.mul factor y in
            if R.sign y' > 0 then begin
              send.(e) <- y';
              inflow.(P.edge_dst p e) <- R.div y' (P.edge_cost p e)
            end)
          plan.(i)
      end)
    td.Tree_decomp.order;
  let ntask = R.add (P.speed p master) kk.(master) in
  if not (R.equal !consumed ntask) then
    failwith "Tree_eager_reference.sweep: consumption / ntask mismatch";
  let task_flow =
    Array.mapi
      (fun e y -> if R.is_zero y then R.zero else R.div y (P.edge_cost p e))
      send
  in
  { Master_slave.platform = p; master; ntask; alpha; send_frac = send; task_flow }

let solve_tree p ~master = sweep ~knapsack p ~master
