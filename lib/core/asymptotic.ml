module R = Rat

type point = {
  tasks : int;
  periods : int;
  makespan : R.t;
  lower_bound : R.t;
  ratio : float;
}

let periods_needed sched n =
  let nr = R.of_int n in
  let maxd =
    List.fold_left
      (fun acc (i, _) -> max acc sched.Schedule.delays.(i))
      0 sched.Schedule.compute
  in
  if R.compare (Schedule.completed_after sched maxd) nr >= 0 then begin
    (* small n: scan the ramp-up region *)
    let rec go k =
      if R.compare (Schedule.completed_after sched k) nr >= 0 then k
      else go (k + 1)
    in
    go 1
  end
  else begin
    (* past the ramp-up, completion is linear: k*tpp - gap *)
    let tpp = Schedule.tasks_per_period sched in
    if R.is_zero tpp then failwith "Asymptotic: no compute in schedule"
    else begin
      let gap =
        R.sub (R.mul (R.of_int maxd) tpp) (Schedule.completed_after sched maxd)
      in
      Bigint.to_int (R.ceil (R.div (R.add nr gap) tpp))
    end
  end

let makespan_for sol ~tasks =
  if tasks <= 0 then invalid_arg "Asymptotic.makespan_for: tasks <= 0";
  if R.is_zero sol.Master_slave.ntask then
    invalid_arg "Asymptotic.makespan_for: zero throughput platform";
  let sched = Master_slave.schedule sol in
  let periods = periods_needed sched tasks in
  let makespan = R.mul (R.of_int periods) sched.Schedule.period in
  let lower_bound = R.div (R.of_int tasks) sol.Master_slave.ntask in
  {
    tasks;
    periods;
    makespan;
    lower_bound;
    ratio = R.to_float makespan /. R.to_float lower_bound;
  }

let ratio_series sol ~task_counts =
  List.map (fun n -> makespan_for sol ~tasks:n) task_counts

let simulate_point sol ~tasks =
  let point = makespan_for sol ~tasks in
  let sched = Master_slave.schedule sol in
  (point, Schedule.completed (Schedule.run ~periods:point.periods sched))
