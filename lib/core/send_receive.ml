module R = Rat
module P = Platform

type solution = Master_slave.solution

(* The master–slave LP with one half-duplex port per node: time sending
   plus time receiving <= 1. *)
let solve p ~master =
  Master_slave.solve_ports "Send_receive.solve" Master_slave.Half_duplex p
    ~master

type round = { duration : R.t; comms : (P.edge * R.t) list }

type greedy_schedule = {
  period : R.t;
  comm_length : R.t;
  rounds : round list;
  achieved : R.t;
  efficiency : R.t;
}

(* Greedy decomposition: repeatedly take a maximal independent set of
   communications (largest remaining busy time first; an edge conflicts
   with any other touching either of its endpoints) and peel off the
   smallest remaining busy time in the set. *)
let greedy_reconstruct (sol : solution) =
  let p = sol.platform in
  let period = Reconstruct.task_period p ~alpha:sol.alpha sol.task_flow in
  (* remaining busy time per active edge *)
  let remaining =
    ref
      (List.filter_map
         (fun e ->
           let busy = R.mul period (R.mul sol.task_flow.(e) (P.edge_cost p e)) in
           if R.sign busy > 0 then Some (e, ref busy) else None)
         (P.edges p))
  in
  let rounds = ref [] in
  while !remaining <> [] do
    let sorted =
      List.sort (fun (_, a) (_, b) -> R.compare !b !a) !remaining
    in
    let used = Array.make (P.num_nodes p) false in
    let chosen =
      List.filter
        (fun (e, _) ->
          let s = P.edge_src p e and d = P.edge_dst p e in
          if used.(s) || used.(d) then false
          else begin
            used.(s) <- true;
            used.(d) <- true;
            true
          end)
        sorted
    in
    let t =
      List.fold_left
        (fun acc (_, b) -> R.min acc !b)
        (let (_, b0) = List.hd chosen in
         !b0)
        chosen
    in
    let comms =
      List.map
        (fun (e, _) -> (e, R.div t (P.edge_cost p e)))
        chosen
    in
    rounds := { duration = t; comms } :: !rounds;
    List.iter (fun (_, b) -> b := R.sub !b t) chosen;
    remaining := List.filter (fun (_, b) -> R.sign !b > 0) !remaining
  done;
  let rounds = List.rev !rounds in
  let comm_length = R.sum (List.map (fun r -> r.duration) rounds) in
  let effective = R.max period comm_length in
  let tasks = R.mul period sol.ntask in
  let achieved = R.div tasks effective in
  {
    period;
    comm_length;
    rounds;
    achieved;
    efficiency =
      (if R.is_zero sol.ntask then R.one else R.div achieved sol.ntask);
  }

