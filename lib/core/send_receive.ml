module R = Rat
module P = Platform

type solution = {
  platform : P.t;
  master : P.node;
  ntask : R.t;
  alpha : R.t array;
  task_flow : Flow.t;
}

(* Same LP as Master_slave but with a single half-duplex port per node:
   time sending plus time receiving <= 1. *)
let solve p ~master =
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
      let es = P.out_edges p i @ P.in_edges p i in
      if es <> [] then
        Lp.add_constraint
          ~name:(Printf.sprintf "port_%s" (P.name p i))
          m
          (Lp.sum (List.map (fun e -> Lp.var s_v.(e)) es))
          Lp.Le R.one)
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
        Lp.add_constraint m (Lp.sum ((consumed :: inflow) @ outflow)) Lp.Eq R.zero
      end)
    (P.nodes p);
  Lp.set_objective m Lp.Maximize
    (Lp.sum (List.map (fun i -> Lp.term (P.speed p i) alpha_v.(i)) (P.nodes p)));
  match Lp.solve m with
  | Lp.Infeasible | Lp.Unbounded ->
    failwith "Send_receive.solve: LP not optimal (invalid platform?)"
  | Lp.Optimal sol ->
    let alpha = Array.map sol.Lp.values alpha_v in
    let raw =
      Array.mapi (fun e sv -> R.div (sol.Lp.values sv) (P.edge_cost p e)) s_v
    in
    { platform = p; master; ntask = sol.Lp.objective; alpha;
      task_flow = Flow.cancel_cycles p raw }

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
let greedy_reconstruct sol =
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

let check_rounds p rounds =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let rec go k = function
    | [] -> Ok ()
    | r :: rest ->
      if R.sign r.duration <= 0 then err "round %d: empty" k
      else begin
        let used = Array.make (P.num_nodes p) false in
        let rec check = function
          | [] -> go (k + 1) rest
          | (e, items) :: more ->
            let s = P.edge_src p e and d = P.edge_dst p e in
            if used.(s) || used.(d) then err "round %d: node conflict" k
            else if R.compare (R.mul items (P.edge_cost p e)) r.duration > 0
            then err "round %d: transfer exceeds round" k
            else begin
              used.(s) <- true;
              used.(d) <- true;
              check more
            end
        in
        check r.comms
      end
  in
  go 0 rounds
