module R = Rat
module P = Platform

type solution = Collective.solution

let solve ?cache p ~source ~targets =
  Collective.solve ?cache Collective.Sum p ~source ~targets

(* Kinds are target indices.  Within a kind the demands go in reverse
   edge order: the colouring's input order, which fixes the slots. *)
let schedule (sol : solution) =
  let p = sol.Collective.platform in
  let flows = Array.to_list sol.Collective.flows in
  let period = Reconstruct.period (List.concat_map Array.to_list flows) in
  let transfers =
    List.concat
      (List.mapi
         (fun k flow ->
           List.rev
             (Reconstruct.demands p ~period ~kind:k
                ~item_size:Collective.message_size
                ~delays:(Flow.delays p flow) flow))
         flows)
  in
  Reconstruct.reconstruct p ~period ~transfers ~compute:[]
    ~delays:(Array.make (P.num_nodes p) 0)

type run = {
  elapsed : R.t;
  periods : int;
  delivered : R.t array;
  upper_bound : R.t;
}

let simulate ?(periods = 8) (sol : solution) =
  let p = sol.Collective.platform in
  let sched = schedule sol in
  (* messages delivered per target: inflow transfers of its own kind *)
  let delivered =
    Schedule.deliver ~periods sched
      (List.mapi
         (fun k (_, tgt) d ->
           d.Schedule.d_kind = k && P.edge_dst p d.Schedule.d_edge = tgt)
         sol.Collective.pairs)
  in
  let elapsed = R.mul (R.of_int periods) sched.Schedule.period in
  {
    elapsed;
    periods;
    delivered;
    upper_bound = R.mul sol.Collective.throughput elapsed;
  }
