(* Reference oracle for the knapsacks of Master_slave.solve's tree
   closed form: each node's fractional knapsack built and solved as an
   exact LP, inside the eager bottom-up / top-down sweep of
   Tree_eager_reference.  The closed form computes the same vertex; the
   tests require both to agree bit for bit. *)

module R = Rat

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
      (sol.Lp.objective, List.map (fun (e, _, v) -> (e, Lp.value sol v)) yv)
    | Lp.Infeasible | Lp.Unbounded ->
      failwith "Knapsack_reference.knapsack: LP not optimal")

(* Master_slave.solve on a tree, with the LP knapsack above *)
let solve_tree p ~master = Tree_eager_reference.sweep ~knapsack p ~master
