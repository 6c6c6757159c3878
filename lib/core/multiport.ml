module R = Rat
module P = Platform

type solution = {
  platform : P.t;
  master : P.node;
  ntask : R.t;
  alpha : R.t array;
  task_flow : Flow.t;
}

let solve p ~master ~send_cards ~recv_cards =
  List.iter
    (fun i ->
      if send_cards i < 1 || recv_cards i < 1 then
        invalid_arg "Multiport.solve: card counts must be >= 1")
    (P.nodes p);
  let m = Lp.create () in
  let n = P.num_nodes p in
  let unit_iv = Some R.one in
  let alpha_v =
    Array.init n (fun i ->
        Lp.add_var ~ub:unit_iv m (Printf.sprintf "alpha_%s" (P.name p i)))
  in
  let s_v =
    Array.init (P.num_edges p) (fun e ->
        Lp.add_var ~ub:unit_iv m (Printf.sprintf "s_%s" (P.edge_name p e)))
  in
  List.iter
    (fun i ->
      let outs = P.out_edges p i and ins = P.in_edges p i in
      if outs <> [] then
        Lp.add_constraint m
          (Lp.sum (List.map (fun e -> Lp.var s_v.(e)) outs))
          Lp.Le
          (R.of_int (send_cards i));
      if ins <> [] then
        Lp.add_constraint m
          (Lp.sum (List.map (fun e -> Lp.var s_v.(e)) ins))
          Lp.Le
          (R.of_int (recv_cards i)))
    (P.nodes p);
  List.iter
    (fun e -> Lp.add_constraint m (Lp.var s_v.(e)) Lp.Eq R.zero)
    (P.in_edges p master);
  List.iter
    (fun i ->
      if i <> master then begin
        let inflow =
          List.map
            (fun e -> Lp.term (R.inv (P.edge_cost p e)) s_v.(e))
            (P.in_edges p i)
        in
        let outflow =
          List.map
            (fun e -> Lp.term (R.neg (R.inv (P.edge_cost p e))) s_v.(e))
            (P.out_edges p i)
        in
        let consumed = Lp.term (R.neg (P.speed p i)) alpha_v.(i) in
        Lp.add_constraint m (Lp.sum ((consumed :: inflow) @ outflow)) Lp.Eq
          R.zero
      end)
    (P.nodes p);
  Lp.set_objective m Lp.Maximize
    (Lp.sum (List.map (fun i -> Lp.term (P.speed p i) alpha_v.(i)) (P.nodes p)));
  match Lp.solve m with
  | Lp.Infeasible | Lp.Unbounded ->
    failwith "Multiport.solve: LP not optimal (invalid platform?)"
  | Lp.Optimal sol ->
    let alpha = Array.map sol.Lp.values alpha_v in
    let raw =
      Array.mapi (fun e sv -> R.div (sol.Lp.values sv) (P.edge_cost p e)) s_v
    in
    { platform = p; master; ntask = sol.Lp.objective; alpha;
      task_flow = Flow.cancel_cycles p raw }

type card_schedule = {
  period : R.t;
  rounds : Bipartite_coloring.matching list;
}

let reconstruct sol ~send_card ~recv_card ~send_cards ~recv_cards =
  let p = sol.platform in
  let period = Reconstruct.task_period p ~alpha:sol.alpha sol.task_flow in
  (* flatten (node, card) pairs into dense bipartite indices *)
  let send_base = Array.make (P.num_nodes p) 0 in
  let recv_base = Array.make (P.num_nodes p) 0 in
  let nsend = ref 0 and nrecv = ref 0 in
  List.iter
    (fun i ->
      send_base.(i) <- !nsend;
      nsend := !nsend + send_cards i;
      recv_base.(i) <- !nrecv;
      nrecv := !nrecv + recv_cards i)
    (P.nodes p);
  let bip_edges =
    List.filter_map
      (fun e ->
        let busy = R.mul period (R.mul sol.task_flow.(e) (P.edge_cost p e)) in
        if R.sign busy <= 0 then None
        else begin
          let src = P.edge_src p e and dst = P.edge_dst p e in
          let sc = send_card e and rc = recv_card e in
          if sc < 0 || sc >= send_cards src then
            invalid_arg "Multiport.reconstruct: send card out of range";
          if rc < 0 || rc >= recv_cards dst then
            invalid_arg "Multiport.reconstruct: recv card out of range";
          Some
            {
              Bipartite_coloring.left = send_base.(src) + sc;
              right = recv_base.(dst) + rc;
              weight = busy;
              tag = e;
            }
        end)
      (P.edges p)
  in
  let delta =
    Bipartite_coloring.max_weighted_degree ~left_size:!nsend
      ~right_size:!nrecv bip_edges
  in
  if R.compare delta period > 0 then
    failwith
      (Printf.sprintf
         "Multiport.reconstruct: card load %s exceeds the period %s \
          (rewire the edges across cards)"
         (R.to_string delta) (R.to_string period));
  let rounds =
    Bipartite_coloring.decompose ~left_size:!nsend ~right_size:!nrecv
      bip_edges
  in
  { period; rounds }
