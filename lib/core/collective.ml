module R = Rat
module P = Platform

type mode = Sum | Max

type solution = {
  platform : P.t;
  source : P.node;
  targets : P.node list;
  mode : mode;
  throughput : R.t;
  flows : R.t array array;
  send_frac : R.t array;
}

let message_size = R.one

let validate_spec p ~source ~targets =
  if targets = [] then invalid_arg "Collective.solve: no targets";
  let seen = Hashtbl.create 8 in
  List.iter
    (fun k ->
      if k < 0 || k >= P.num_nodes p then
        invalid_arg "Collective.solve: target out of range";
      if k = source then invalid_arg "Collective.solve: source is a target";
      if Hashtbl.mem seen k then invalid_arg "Collective.solve: duplicate target";
      Hashtbl.replace seen k ())
    targets

(* The LP shared by solve and the kernel-equality tests: returns the
   model plus the handles needed to read a solution back. *)
let build_model mode p ~source ~targets =
  validate_spec p ~source ~targets;
  let nk = List.length targets in
  let target = Array.of_list targets in
  let m = Lp.create () in
  let tp = Lp.add_var m "TP" in
  let unit_iv = Some R.one in
  let s_v =
    Array.init (P.num_edges p) (fun e ->
        Lp.add_var ~ub:unit_iv m (Printf.sprintf "s_%s" (P.edge_name p e)))
  in
  let f_v =
    Array.init nk (fun k ->
        Array.init (P.num_edges p) (fun e ->
            Lp.add_var m
              (Printf.sprintf "f%d_%s" k (P.edge_name p e))))
  in
  (* mode law linking s and f *)
  (match mode with
  | Sum ->
    Array.iteri
      (fun e sv ->
        let c = P.edge_cost p e in
        let total =
          Lp.sum (List.init nk (fun k -> Lp.term c f_v.(k).(e)))
        in
        Lp.add_constraint
          ~name:(Printf.sprintf "sumlaw_%s" (P.edge_name p e))
          m
          (Lp.sub (Lp.var sv) total)
          Lp.Eq R.zero)
      s_v
  | Max ->
    Array.iteri
      (fun e sv ->
        let c = P.edge_cost p e in
        for k = 0 to nk - 1 do
          Lp.add_constraint
            ~name:(Printf.sprintf "maxlaw%d_%s" k (P.edge_name p e))
            m
            (Lp.sub (Lp.var sv) (Lp.term c f_v.(k).(e)))
            Lp.Ge R.zero
        done)
      s_v);
  (* one-port *)
  List.iter
    (fun i ->
      let outs = P.out_edges p i and ins = P.in_edges p i in
      if outs <> [] then
        Lp.add_constraint
          ~name:(Printf.sprintf "outport_%s" (P.name p i))
          m
          (Lp.sum (List.map (fun e -> Lp.var s_v.(e)) outs))
          Lp.Le R.one;
      if ins <> [] then
        Lp.add_constraint
          ~name:(Printf.sprintf "inport_%s" (P.name p i))
          m
          (Lp.sum (List.map (fun e -> Lp.var s_v.(e)) ins))
          Lp.Le R.one)
    (P.nodes p);
  (* hygiene: nothing flows back into the source; targets do not
     re-emit their own messages (both are pure waste, forbidding them
     loses no throughput and keeps flows clean for reconstruction) *)
  for k = 0 to nk - 1 do
    List.iter
      (fun e ->
        Lp.add_constraint m (Lp.var f_v.(k).(e)) Lp.Eq R.zero)
      (P.in_edges p source);
    List.iter
      (fun e ->
        Lp.add_constraint m (Lp.var f_v.(k).(e)) Lp.Eq R.zero)
      (P.out_edges p target.(k))
  done;
  (* conservation per commodity at relay nodes; sink law at targets *)
  for k = 0 to nk - 1 do
    List.iter
      (fun i ->
        if i = source then ()
        else if i = target.(k) then begin
          let inflow =
            Lp.sum
              (List.map (fun e -> Lp.var f_v.(k).(e)) (P.in_edges p i))
          in
          Lp.add_constraint
            ~name:(Printf.sprintf "sink%d" k)
            m
            (Lp.sub inflow (Lp.var tp))
            Lp.Eq R.zero
        end
        else begin
          let inflow =
            List.map (fun e -> Lp.term R.one f_v.(k).(e)) (P.in_edges p i)
          in
          let outflow =
            List.map
              (fun e -> Lp.term R.minus_one f_v.(k).(e))
              (P.out_edges p i)
          in
          Lp.add_constraint
            ~name:(Printf.sprintf "conserve%d_%s" k (P.name p i))
            m
            (Lp.sum (inflow @ outflow))
            Lp.Eq R.zero
        end)
      (P.nodes p)
  done;
  Lp.set_objective m Lp.Maximize (Lp.var tp);
  (m, tp, s_v, f_v)

let model mode p ~source ~targets =
  let m, _, _, _ = build_model mode p ~source ~targets in
  m

let model_handles = build_model

(* busy fraction per edge under the mode law, from cleaned flows *)
let send_frac_of mode p nk flows =
  Array.init (P.num_edges p) (fun e ->
      let c = P.edge_cost p e in
      match mode with
      | Sum -> R.mul c (R.sum (List.init nk (fun k -> flows.(k).(e))))
      | Max ->
        R.mul c
          (List.fold_left
             (fun acc k -> R.max acc flows.(k).(e))
             R.zero
             (List.init nk Fun.id)))

let solution_of_lp mode p ~source ~targets f_v (sol : Lp.solution) =
  let nk = List.length targets in
  let flows =
    Array.init nk (fun k ->
        let raw = Array.map (fun v -> sol.Lp.values v) f_v.(k) in
        Flow.cancel_cycles p raw)
  in
  {
    platform = p;
    source;
    targets;
    mode;
    throughput = sol.Lp.objective;
    flows;
    send_frac = send_frac_of mode p nk flows;
  }

(* --- the tree closed form ------------------------------------------------

   On a tree platform the collective LP has a closed form.  Commodity k
   must cross the tree edge into every subtree containing its target
   (a cut argument: the net k-flow across the edge is at least TP, and
   reverse flow is nonnegative, so the forward flow is too), and the
   tree path achieves exactly that.  With cnt(v) targets below tree
   edge e = (u, v), the edge multiplicity is

     m_e = cnt(v)            under Sum      (distinct messages)
     m_e = [cnt(v) > 0]      under Max      (copies share the wire)

   so every feasible solution has busy fraction s_e >= c_e * m_e * TP,
   and the in-port of v equals s_e while the out-port of u sums its
   child edges.  Hence

     TP <= min( per loaded edge   1 / (c_e * m_e),
                per node          1 / sum_children c_e * m_e )

   and routing TP along every source->target tree path meets the bound
   with equality — the LP optimum, reproduced without a pivot.  The
   test-suite certifies the claim by replaying the decomposed flows
   through Lp.check_solution on the monolithic model.

   An unreachable target forces TP = 0 (its sink law is unsatisfiable
   at any positive rate), returned directly. *)

let zero_solution mode p ~source ~targets =
  let nk = List.length targets in
  let ne = P.num_edges p in
  {
    platform = p;
    source;
    targets;
    mode;
    throughput = R.zero;
    flows = Array.init nk (fun _ -> Array.make ne R.zero);
    send_frac = Array.make ne R.zero;
  }

let solve_tree mode p ~source ~targets td =
  let target = Array.of_list targets in
  if Array.exists (fun t -> not td.Tree_decomp.reached.(t)) target then
    zero_solution mode p ~source ~targets
  else begin
    let nk = Array.length target in
    let is_target = Array.make (P.num_nodes p) false in
    Array.iter (fun t -> is_target.(t) <- true) target;
    let cnt =
      Tree_decomp.subtree_sums p td ~seed:(fun v ->
          if is_target.(v) then 1 else 0)
    in
    let mult v =
      match mode with
      | Sum -> R.of_int cnt.(v)
      | Max -> R.one (* only consulted where cnt > 0 *)
    in
    let tp = ref None in
    let consider x =
      match !tp with
      | Some y when R.compare y x <= 0 -> ()
      | _ -> tp := Some x
    in
    let kids = Tree_decomp.children p td in
    Array.iter
      (fun v ->
        (* loaded tree edge: busy fraction and the in-port of v *)
        let e = td.Tree_decomp.parent_edge.(v) in
        if e >= 0 && cnt.(v) > 0 then
          consider (R.inv (R.mul (P.edge_cost p e) (mult v)));
        (* out-port of v over its loaded child edges *)
        let load =
          List.fold_left
            (fun acc (e, w) ->
              if cnt.(w) > 0 then
                R.add acc (R.mul (P.edge_cost p e) (mult w))
              else acc)
            R.zero kids.(v)
        in
        if R.sign load > 0 then consider (R.inv load))
      td.Tree_decomp.order;
    let tp =
      match !tp with
      | Some x -> x
      | None -> assert false (* >= 1 reached target loads its path *)
    in
    let ne = P.num_edges p in
    let flows = Array.init nk (fun _ -> Array.make ne R.zero) in
    for k = 0 to nk - 1 do
      let v = ref target.(k) in
      while !v <> source do
        let e = td.Tree_decomp.parent_edge.(!v) in
        flows.(k).(e) <- tp;
        v := P.edge_src p e
      done
    done;
    {
      platform = p;
      source;
      targets;
      mode;
      throughput = tp;
      flows;
      send_frac = send_frac_of mode p nk flows;
    }
  end

let solve ?cache mode p ~source ~targets =
  validate_spec p ~source ~targets;
  match Tree_decomp.detect p ~root:source with
  | Some td -> solve_tree mode p ~source ~targets td
  | None -> (
    let m, _tp, _s_v, f_v = build_model mode p ~source ~targets in
    match Lp.solve ?cache m with
    | Lp.Infeasible | Lp.Unbounded ->
      failwith "Collective.solve: LP not optimal (cannot happen)"
    | Lp.Optimal sol -> solution_of_lp mode p ~source ~targets f_v sol)

let per_edge_flow sol ~kind = sol.flows.(kind)

let check_invariants sol =
  let p = sol.platform in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let nk = List.length sol.targets in
  let target = Array.of_list sol.targets in
  let result = ref (Ok ()) in
  let set_err e = if !result = Ok () then result := e in
  (* conservation and sinks *)
  for k = 0 to nk - 1 do
    List.iter
      (fun i ->
        let b = Flow.balance p sol.flows.(k) i in
        if i = sol.source then begin
          if R.sign b > 0 then set_err (err "source absorbs commodity %d" k)
        end
        else if i = target.(k) then begin
          if not (R.equal b sol.throughput) then
            set_err
              (err "target %d receives %s, expected %s" k (R.to_string b)
                 (R.to_string sol.throughput))
        end
        else if not (R.is_zero b) then
          set_err (err "commodity %d unbalanced at %s" k (P.name p i)))
      (P.nodes p)
  done;
  (* mode law *)
  List.iter
    (fun e ->
      let c = P.edge_cost p e in
      let lhs = sol.send_frac.(e) in
      let ok =
        match sol.mode with
        | Sum ->
          R.equal lhs
            (R.mul c (R.sum (List.init nk (fun k -> sol.flows.(k).(e)))))
        | Max ->
          List.for_all
            (fun k -> R.Infix.(lhs >= R.mul c sol.flows.(k).(e)))
            (List.init nk Fun.id)
      in
      if not ok then set_err (err "mode law broken on %s" (P.edge_name p e)))
    (P.edges p);
  (* ports *)
  List.iter
    (fun i ->
      let load es =
        R.sum (List.map (fun e -> sol.send_frac.(e)) es)
      in
      if R.Infix.(load (P.out_edges p i) > R.one) then
        set_err (err "out-port overload at %s" (P.name p i));
      if R.Infix.(load (P.in_edges p i) > R.one) then
        set_err (err "in-port overload at %s" (P.name p i)))
    (P.nodes p);
  !result
