module R = Rat
module P = Platform

type solution = {
  platform : P.t;
  participants : P.node list;
  throughput : R.t;
  flows : ((P.node * P.node) * R.t array) list;
}

let validate_spec p ~participants =
  if List.length participants < 2 then
    invalid_arg "All_to_all.solve: need at least two participants";
  let seen = Hashtbl.create 8 in
  List.iter
    (fun i ->
      if i < 0 || i >= P.num_nodes p then
        invalid_arg "All_to_all.solve: participant out of range";
      if Hashtbl.mem seen i then
        invalid_arg "All_to_all.solve: duplicate participant";
      Hashtbl.replace seen i ())
    participants

let pairs_of participants =
  List.concat_map
    (fun s ->
      List.filter_map
        (fun t -> if s = t then None else Some (s, t))
        participants)
    participants

(* The monolithic LP: one commodity per ordered pair. *)
let build_model p ~participants =
  validate_spec p ~participants;
  let pairs = pairs_of participants in
  let m = Lp.create () in
  let tp = Lp.add_var m "TP" in
  let unit_iv = Some R.one in
  let s_v =
    Array.init (P.num_edges p) (fun e ->
        Lp.add_var ~ub:unit_iv m (Printf.sprintf "s_%s" (P.edge_name p e)))
  in
  let f_v =
    List.map
      (fun (s, t) ->
        ( (s, t),
          Array.init (P.num_edges p) (fun e ->
              Lp.add_var m
                (Printf.sprintf "f_%s_%s_%s" (P.name p s) (P.name p t)
                   (P.edge_name p e))) ))
      pairs
  in
  (* sum law: s_e = sum over pairs of f * c *)
  Array.iteri
    (fun e sv ->
      let c = P.edge_cost p e in
      let total = Lp.sum (List.map (fun (_, fv) -> Lp.term c fv.(e)) f_v) in
      Lp.add_constraint m (Lp.sub (Lp.var sv) total) Lp.Eq R.zero)
    s_v;
  (* one-port *)
  List.iter
    (fun i ->
      let outs = P.out_edges p i and ins = P.in_edges p i in
      if outs <> [] then
        Lp.add_constraint m
          (Lp.sum (List.map (fun e -> Lp.var s_v.(e)) outs))
          Lp.Le R.one;
      if ins <> [] then
        Lp.add_constraint m
          (Lp.sum (List.map (fun e -> Lp.var s_v.(e)) ins))
          Lp.Le R.one)
    (P.nodes p);
  (* per commodity: hygiene, conservation, sink *)
  List.iter
    (fun ((s, t), fv) ->
      List.iter
        (fun e -> Lp.add_constraint m (Lp.var fv.(e)) Lp.Eq R.zero)
        (P.in_edges p s);
      List.iter
        (fun e -> Lp.add_constraint m (Lp.var fv.(e)) Lp.Eq R.zero)
        (P.out_edges p t);
      List.iter
        (fun i ->
          if i = s then ()
          else if i = t then begin
            let inflow =
              Lp.sum (List.map (fun e -> Lp.var fv.(e)) (P.in_edges p i))
            in
            Lp.add_constraint m (Lp.sub inflow (Lp.var tp)) Lp.Eq R.zero
          end
          else begin
            let inflow =
              List.map (fun e -> Lp.term R.one fv.(e)) (P.in_edges p i)
            in
            let outflow =
              List.map (fun e -> Lp.term R.minus_one fv.(e)) (P.out_edges p i)
            in
            Lp.add_constraint m (Lp.sum (inflow @ outflow)) Lp.Eq R.zero
          end)
        (P.nodes p))
    f_v;
  Lp.set_objective m Lp.Maximize (Lp.var tp);
  (m, tp, s_v, f_v)

let model_handles = build_model

let solution_of_lp p ~participants f_v (sol : Lp.solution) =
  let flows =
    List.map
      (fun (pair, fv) ->
        (pair, Flow.cancel_cycles p (Array.map sol.Lp.values fv)))
      f_v
  in
  { platform = p; participants; throughput = sol.Lp.objective; flows }

(* --- the tree closed form ------------------------------------------------

   On a tree, pair (s, t) must cross the link above every subtree that
   separates them, and the tree path is the only way to do it.  With
   inP(v) participants below tree link {u, v} out of nP total, the link
   carries

     m_v = inP(v) * (nP - inP(v))

   commodities in each direction — downward the pairs entering the
   subtree, upward the pairs leaving it.  Any feasible solution has
   s_e >= c_e * m_v * TP on both directed lanes (cut argument per pair,
   reverse flow nonnegative), ports sum their loaded lanes, and routing
   every pair along its tree path at rate TP meets all of it exactly:

     TP = min( 1/(c_e * m_e)            per loaded lane,
               1/sum_out  c_e * m_e     per out-port,
               1/sum_in   c_e * m_e     per in-port )

   If a loaded upward lane does not exist on the platform, some pair
   cannot route at all (the tree link is the only connection between
   the two sides) and the common rate is zero; same when a participant
   is unreachable from the root. *)

let zero_solution p ~participants =
  let ne = P.num_edges p in
  {
    platform = p;
    participants;
    throughput = R.zero;
    flows = List.map (fun pr -> (pr, Array.make ne R.zero)) (pairs_of participants);
  }

let solve_tree p ~participants td =
  let prt = Array.of_list participants in
  let np = Array.length prt in
  if Array.exists (fun i -> not td.Tree_decomp.reached.(i)) prt then
    zero_solution p ~participants
  else begin
    let n = P.num_nodes p in
    let is_p = Array.make n false in
    Array.iter (fun i -> is_p.(i) <- true) prt;
    let inp =
      Tree_decomp.subtree_sums p td ~seed:(fun v ->
          if is_p.(v) then 1 else 0)
    in
    let mult v = inp.(v) * (np - inp.(v)) in
    let upe = Tree_decomp.up_edges p td in
    if
      Array.exists
        (fun v ->
          td.Tree_decomp.parent_edge.(v) >= 0
          && mult v > 0
          && upe.(v) < 0)
        td.Tree_decomp.order
    then zero_solution p ~participants
    else begin
      (* load contributed by the lane above v in one direction *)
      let lane_load e v = R.mul (P.edge_cost p e) (R.of_int (mult v)) in
      let tp = ref None in
      let consider x =
        match !tp with
        | Some y when R.compare y x <= 0 -> ()
        | _ -> tp := Some x
      in
      let kids = Tree_decomp.children p td in
      Array.iter
        (fun v ->
          let down = td.Tree_decomp.parent_edge.(v) in
          if down >= 0 && mult v > 0 then begin
            consider (R.inv (lane_load down v));
            consider (R.inv (lane_load upe.(v) v))
          end;
          (* ports of v: the lane to the parent plus one per child *)
          let self_out, self_in =
            if down >= 0 && mult v > 0 then
              (lane_load upe.(v) v, lane_load down v)
            else (R.zero, R.zero)
          in
          let out_load, in_load =
            List.fold_left
              (fun (o, i) (e, w) ->
                if mult w > 0 then
                  (R.add o (lane_load e w), R.add i (lane_load upe.(w) w))
                else (o, i))
              (self_out, self_in) kids.(v)
          in
          if R.sign out_load > 0 then consider (R.inv out_load);
          if R.sign in_load > 0 then consider (R.inv in_load))
        td.Tree_decomp.order;
      match !tp with
      | None ->
        (* every lane multiplicity is zero: impossible with >= 2
           reached participants *)
        assert false
      | Some tp ->
        let depth = Array.make n 0 in
        Array.iter
          (fun v ->
            let e = td.Tree_decomp.parent_edge.(v) in
            if e >= 0 then depth.(v) <- depth.(P.edge_src p e) + 1)
          td.Tree_decomp.order;
        let ne = P.num_edges p in
        let route s t =
          let arr = Array.make ne R.zero in
          let a = ref s and b = ref t in
          while depth.(!a) > depth.(!b) do
            arr.(upe.(!a)) <- tp;
            a := Tree_decomp.parent p td !a
          done;
          while depth.(!b) > depth.(!a) do
            arr.(td.Tree_decomp.parent_edge.(!b)) <- tp;
            b := Tree_decomp.parent p td !b
          done;
          while !a <> !b do
            arr.(upe.(!a)) <- tp;
            arr.(td.Tree_decomp.parent_edge.(!b)) <- tp;
            a := Tree_decomp.parent p td !a;
            b := Tree_decomp.parent p td !b
          done;
          arr
        in
        let flows =
          List.map (fun (s, t) -> ((s, t), route s t)) (pairs_of participants)
        in
        { platform = p; participants; throughput = tp; flows }
    end
  end

let solve p ~participants =
  validate_spec p ~participants;
  match Tree_decomp.detect p ~root:(List.hd participants) with
  | Some td -> solve_tree p ~participants td
  | None -> (
    let m, _tp, _s_v, f_v = build_model p ~participants in
    match Lp.solve m with
    | Lp.Infeasible | Lp.Unbounded ->
      failwith "All_to_all.solve: LP not optimal (cannot happen)"
    | Lp.Optimal sol -> solution_of_lp p ~participants f_v sol)

let check_invariants sol =
  let p = sol.platform in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let result = ref (Ok ()) in
  let set_err e = if !result = Ok () then result := e in
  List.iter
    (fun ((s, t), flow) ->
      List.iter
        (fun i ->
          let b = Flow.balance p flow i in
          if i = t then begin
            if not (R.equal b sol.throughput) then
              set_err
                (err "pair %s->%s delivers %s" (P.name p s) (P.name p t)
                   (R.to_string b))
          end
          else if i = s then begin
            if R.sign b > 0 then
              set_err (err "source %s absorbs its own commodity" (P.name p s))
          end
          else if not (R.is_zero b) then
            set_err
              (err "pair %s->%s unbalanced at %s" (P.name p s) (P.name p t)
                 (P.name p i)))
        (P.nodes p))
    sol.flows;
  (* port budgets from the summed flows *)
  let load edges =
    R.sum
      (List.concat_map
         (fun e ->
           List.map
             (fun (_, flow) -> R.mul flow.(e) (P.edge_cost p e))
             sol.flows)
         edges)
  in
  List.iter
    (fun i ->
      if R.Infix.(load (P.out_edges p i) > R.one) then
        set_err (err "out-port overload at %s" (P.name p i));
      if R.Infix.(load (P.in_edges p i) > R.one) then
        set_err (err "in-port overload at %s" (P.name p i)))
    (P.nodes p);
  !result
