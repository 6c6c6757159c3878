module R = Rat
module P = Platform

type solution = Collective.solution

let solve ?cache p ~source ~targets =
  Collective.solve ?cache Collective.Sum p ~source ~targets

let period_of (sol : solution) =
  let rates =
    Array.to_list sol.Collective.flows
    |> List.concat_map Array.to_list
    |> List.filter (fun r -> not (R.is_zero r))
  in
  R.of_bigint (R.lcm_denominators rates)

(* per-(edge, kind) demands with per-kind pipeline delays *)
let demands (sol : solution) period =
  let p = sol.Collective.platform in
  let nk = List.length sol.Collective.targets in
  let out = ref [] in
  for k = nk - 1 downto 0 do
    let flow = sol.Collective.flows.(k) in
    let delays = Flow.delays p flow in
    List.iter
      (fun e ->
        let items = R.mul period flow.(e) in
        if R.sign items > 0 then
          out :=
            {
              Schedule.d_edge = e;
              d_kind = k;
              d_items = items;
              d_item_size = Collective.message_size;
              d_delay = delays.(P.edge_src p e);
            }
            :: !out)
      (P.edges p)
  done;
  !out

let schedule (sol : solution) =
  let p = sol.Collective.platform in
  let period = period_of sol in
  let transfers = demands sol period in
  Schedule.reconstruct p ~period ~transfers ~compute:[]
    ~delays:(Array.make (P.num_nodes p) 0)

type run = {
  elapsed : R.t;
  periods : int;
  delivered : R.t array;
  upper_bound : R.t;
}

let simulate ?(periods = 8) (sol : solution) =
  let p = sol.Collective.platform in
  let period = period_of sol in
  let dems = demands sol period in
  let sched =
    Schedule.reconstruct p ~period ~transfers:dems ~compute:[]
      ~delays:(Array.make (P.num_nodes p) 0)
  in
  let sim = Event_sim.create p in
  Schedule.execute ~sim ~periods sched;
  Event_sim.run sim;
  (* analytic per-edge totals must match the simulator exactly *)
  let expected_edge = Array.make (P.num_edges p) R.zero in
  List.iter
    (fun d ->
      let active = periods - d.Schedule.d_delay in
      if active > 0 then
        expected_edge.(d.Schedule.d_edge) <-
          R.add
            expected_edge.(d.Schedule.d_edge)
            (R.mul (R.of_int active)
               (R.mul d.Schedule.d_items d.Schedule.d_item_size)))
    dems;
  List.iter
    (fun e ->
      let got = Event_sim.transferred sim e in
      if not (R.equal got expected_edge.(e)) then
        failwith
          (Printf.sprintf
             "Scatter.simulate: edge %s carried %s, expected %s"
             (P.edge_name p e) (R.to_string got)
             (R.to_string expected_edge.(e))))
    (P.edges p);
  (* messages delivered per target: inflow transfers of its own kind *)
  let target = Array.of_list sol.Collective.targets in
  let delivered =
    Array.mapi
      (fun k tgt ->
        List.fold_left
          (fun acc d ->
            if d.Schedule.d_kind = k && P.edge_dst p d.Schedule.d_edge = tgt
            then begin
              let active = periods - d.Schedule.d_delay in
              if active > 0 then
                R.add acc (R.mul (R.of_int active) d.Schedule.d_items)
              else acc
            end
            else acc)
          R.zero dems)
      target
  in
  let elapsed = R.mul (R.of_int periods) period in
  {
    elapsed;
    periods;
    delivered;
    upper_bound = R.mul sol.Collective.throughput elapsed;
  }
