(* Reference oracle for Master_slave.knapsack and the tree branch of
   Master_slave.solve_reduced: each node's fractional knapsack built and
   solved as an exact LP, and the bottom-up / top-down sweep around it.
   The library computes the same vertex in closed form; the tests
   require both to agree bit for bit. *)

module R = Rat
module P = Platform

(* max sum y_e/c_e  s.t.  sum y_e <= 1,  0 <= y_e <= min(1, c_e*cap_e) *)
let knapsack children =
  match children with
  | [] -> (R.zero, [])
  | _ ->
    let m = Lp.create () in
    let yv =
      List.map
        (fun (e, c, cap) ->
          let ub = R.min R.one (R.mul c cap) in
          (e, c, Lp.add_var ~ub:(Some ub) m (Printf.sprintf "y_%d" e)))
        children
    in
    Lp.add_constraint ~name:"outport" m
      (Lp.sum (List.map (fun (_, _, v) -> Lp.var v) yv))
      Lp.Le R.one;
    Lp.set_objective m Lp.Maximize
      (Lp.sum (List.map (fun (_, c, v) -> Lp.term (R.inv c) v) yv));
    (match Lp.solve m with
    | Lp.Optimal sol ->
      (sol.Lp.objective, List.map (fun (e, _, v) -> (e, sol.Lp.values v)) yv)
    | Lp.Infeasible | Lp.Unbounded ->
      failwith "Knapsack_reference.knapsack: LP not optimal")

(* Master_slave.solve_reduced on a tree, with the LP knapsack above *)
let solve_tree p ~master =
  let td =
    match Tree_decomp.detect p ~root:master with
    | Some td -> td
    | None -> invalid_arg "Knapsack_reference.solve_tree: not a tree"
  in
  let absorbed =
    Tree_decomp.bottom_up p td ~default:(R.zero, R.zero, [])
      ~f:(fun i cs ->
        let children =
          List.map (fun (e, (c_cap, _, _)) -> (e, P.edge_cost p e, c_cap)) cs
        in
        let k, ys = knapsack children in
        let cap =
          if i = master then R.zero
          else
            R.min
              (R.inv (P.edge_cost p td.Tree_decomp.parent_edge.(i)))
              (R.add (P.speed p i) k)
        in
        (cap, k, ys))
  in
  let kk = Array.map (fun (_, k, _) -> k) absorbed in
  let plan = Array.map (fun (_, _, ys) -> ys) absorbed in
  let n = P.num_nodes p in
  let alpha = Array.make n R.zero in
  let send = Array.make (P.num_edges p) R.zero in
  let inflow = Array.make n R.zero in
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
  let task_flow =
    Array.mapi
      (fun e y -> if R.is_zero y then R.zero else R.div y (P.edge_cost p e))
      send
  in
  {
    Master_slave.platform = p;
    master;
    ntask = R.add (P.speed p master) kk.(master);
    alpha;
    send_frac = send;
    task_flow;
  }
