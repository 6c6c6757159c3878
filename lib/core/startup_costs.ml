module R = Rat
module P = Platform

type grouped = {
  base : Schedule.t;
  m : int;
  mega_period : R.t;
  tasks_per_mega : R.t;
}

(* stretched slot structure: (offset, duration, transfers) where each
   transfer keeps base-period semantics but will be submitted with m
   periods worth of items plus its start-up *)
let slot_overhead startup slot =
  List.fold_left
    (fun acc tr ->
      if R.sign tr.Schedule.items > 0 then R.max acc (startup tr.Schedule.edge)
      else acc)
    R.zero slot.Schedule.transfers

let group sol ~startup ~m =
  if m <= 0 then invalid_arg "Startup_costs.group: m <= 0";
  let base = Master_slave.schedule sol in
  let p = base.Schedule.platform in
  List.iter
    (fun e ->
      if R.sign (startup e) < 0 then
        invalid_arg "Startup_costs.group: negative start-up cost")
    (P.edges p);
  let comm_time =
    R.sum
      (List.map
         (fun s ->
           R.add (R.mul (R.of_int m) s.Schedule.duration)
             (slot_overhead startup s))
         base.Schedule.slots)
  in
  let mega_period = R.max comm_time (R.mul (R.of_int m) base.Schedule.period) in
  let tasks_per_mega = R.mul (R.of_int m) (Schedule.tasks_per_period base) in
  { base; m; mega_period; tasks_per_mega }

let recommended_m sol ~tasks =
  if tasks <= 0 then invalid_arg "Startup_costs.recommended_m: tasks <= 0";
  let q = R.div (R.of_int tasks) sol.Master_slave.ntask in
  (* smallest m with m^2 >= q *)
  let rec go m = if R.compare (R.of_int (m * m)) q >= 0 then m else go (m + 1) in
  go 1

type point = {
  tasks : int;
  m : int;
  mega_periods : int;
  makespan : R.t;
  lower_bound : R.t;
  ratio : float;
}

let completed_after (g : grouped) k =
  R.mul (R.of_int g.m) (Schedule.completed_after g.base k)

let makespan_for sol ~startup ~tasks =
  let m = recommended_m sol ~tasks in
  let g = group sol ~startup ~m in
  let nr = R.of_int tasks in
  let rec go k =
    if k > 1_000_000 then failwith "Startup_costs: does not converge"
    else if R.compare (completed_after g k) nr >= 0 then k
    else go (k + 1)
  in
  let mega_periods = go 1 in
  let makespan = R.mul (R.of_int mega_periods) g.mega_period in
  let lower_bound = R.div nr sol.Master_slave.ntask in
  {
    tasks;
    m;
    mega_periods;
    makespan;
    lower_bound;
    ratio = R.to_float makespan /. R.to_float lower_bound;
  }

let ratio_series sol ~startup ~task_counts =
  List.map (fun tasks -> makespan_for sol ~startup ~tasks) task_counts

let sweep p ~master ~startup ~task_counts =
  let sol = Master_slave.solve p ~master in
  (sol, ratio_series sol ~startup ~task_counts)

let simulate_grouped g ~startup ~mega_periods =
  let p = g.base.Schedule.platform in
  let sim = Event_sim.create p in
  let mr = R.of_int g.m in
  for k = 0 to mega_periods - 1 do
    let t0 = R.mul (R.of_int k) g.mega_period in
    (* communication rounds: stretched slots laid out sequentially *)
    let offset = ref R.zero in
    List.iter
      (fun s ->
        let dur =
          R.add (R.mul mr s.Schedule.duration) (slot_overhead startup s)
        in
        let start = R.add t0 !offset in
        List.iter
          (fun tr ->
            if tr.Schedule.delay <= k && R.sign tr.Schedule.items > 0 then begin
              let payload = R.mul mr (R.mul tr.Schedule.items tr.Schedule.item_size) in
              (* affine cost C + n*c as equivalent extra volume C/c *)
              let size =
                R.add payload
                  (R.div (startup tr.Schedule.edge) (P.edge_cost p tr.Schedule.edge))
              in
              Event_sim.at sim start (fun sim ->
                  Event_sim.submit ~strict:true sim
                    (Event_sim.Transfer (tr.Schedule.edge, size)))
            end)
          s.Schedule.transfers;
        offset := R.add !offset dur)
      g.base.Schedule.slots;
    (* computes: m periods worth, once per mega-period *)
    List.iter
      (fun (i, work) ->
        if g.base.Schedule.delays.(i) <= k then
          Event_sim.at sim t0 (fun sim ->
              Event_sim.submit ~strict:true sim
                (Event_sim.Compute (i, R.mul mr work))))
      g.base.Schedule.compute
  done;
  Event_sim.run sim;
  Schedule.completed sim
