module R = Rat
module P = Platform

type solution = Master_slave.solution

(* The master–slave LP with card budgets on the ports: out <= send_cards,
   in <= recv_cards. *)
let ports fn p ~send_cards ~recv_cards =
  List.iter
    (fun i ->
      if send_cards i < 1 || recv_cards i < 1 then
        invalid_arg (fn ^ ": card counts must be >= 1"))
    (P.nodes p);
  Master_slave.Duplex
    ((fun i -> R.of_int (send_cards i)), fun i -> R.of_int (recv_cards i))

let build_lp p ~master ~send_cards ~recv_cards =
  let fn = "Multiport.build_lp" in
  Master_slave.ports_lp fn (ports fn p ~send_cards ~recv_cards) p ~master

let solve p ~master ~send_cards ~recv_cards =
  let fn = "Multiport.solve" in
  Master_slave.solve_ports fn (ports fn p ~send_cards ~recv_cards) p ~master

type card_schedule = {
  period : R.t;
  rounds : Bipartite_coloring.matching list;
}

let reconstruct (sol : solution) ~send_card ~recv_card ~send_cards ~recv_cards =
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
