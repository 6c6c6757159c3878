module R = Rat
module P = Platform
module S = Event_sim

let route p src dst =
  match P.shortest_path p src dst with
  | Some [] -> Some [] (* src = dst *)
  | other -> other

let probe_time p routes =
  List.iter
    (fun r ->
      if r = [] then invalid_arg "Topology_probe.probe_time: empty route";
      let rec contiguous = function
        | [] | [ _ ] -> ()
        | a :: (b :: _ as rest) ->
          if P.edge_dst p a <> P.edge_src p b then
            invalid_arg "Topology_probe.probe_time: broken route";
          contiguous rest
      in
      contiguous r)
    routes;
  let sim = S.create p in
  let finished = ref R.zero in
  let rec hop sim = function
    | [] -> finished := R.max !finished (S.now sim)
    | e :: rest ->
      S.submit sim (S.Transfer (e, R.one)) ~on_done:(fun sim -> hop sim rest)
  in
  List.iter (fun r -> hop sim r) routes;
  S.run sim;
  !finished

let measure_bandwidth p src dst =
  match route p src dst with
  | None -> R.zero
  | Some r -> R.inv (probe_time p [ r ])

(* Dual-value bottleneck signal: solve the master-slave steady-state LP
   and rank the constraints by their optimal dual.  The dual of a
   binding row is the marginal throughput per unit of extra capacity on
   that resource, so a saturated link shows up as a positive dual on its
   [outport_]/[inport_] row and a compute-bound host on its conservation
   row or [ub:alpha_] row — an exact, noise-free complement to the
   pairwise probe heuristics below. *)
let bottlenecks p ~master =
  match snd (Master_slave.solve_lp_only p ~master) with
  | Lp.Infeasible | Lp.Unbounded -> []
  | Lp.Optimal sol ->
    Lp.duals sol
    |> List.filter (fun (_, y) -> R.sign y <> 0)
    |> List.stable_sort (fun (_, a) (_, b) -> R.compare (R.abs b) (R.abs a))

type report = {
  hosts : P.node list;
  alone : (P.node * R.t) list;
  joint : ((P.node * P.node) * R.t) list;
  clusters : P.node list list;
}

let infer p ~master ~hosts =
  if List.length hosts < 2 then
    invalid_arg "Topology_probe.infer: need at least two hosts";
  let routes =
    List.map
      (fun h ->
        match route p master h with
        | Some r -> (h, r)
        | None ->
          invalid_arg
            (Printf.sprintf "Topology_probe.infer: %s unreachable"
               (P.name p h)))
      hosts
  in
  let alone = List.map (fun (h, r) -> (h, probe_time p [ r ])) routes in
  let rec pairs = function
    | [] -> []
    | (h, r) :: rest ->
      List.map (fun (h', r') -> ((h, h'), probe_time p [ r; r' ])) rest
      @ pairs rest
  in
  let joint = pairs routes in
  (* threshold: midpoint between the least and most interfering pair *)
  let times = List.map snd joint in
  let lo = List.fold_left R.min (List.hd times) times in
  let hi = List.fold_left R.max (List.hd times) times in
  let clusters =
    if R.equal lo hi then [ hosts ]
    else begin
      let threshold = R.div_int (R.add lo hi) 2 in
      (* union-find over hosts: link pairs above the threshold *)
      let idx = List.mapi (fun i h -> (h, i)) hosts in
      let parent = Array.init (List.length hosts) Fun.id in
      let rec find i = if parent.(i) = i then i else find parent.(i) in
      let union i j = parent.(find i) <- find j in
      List.iter
        (fun ((a, b), t) ->
          if R.compare t threshold > 0 then
            union (List.assoc a idx) (List.assoc b idx))
        joint;
      let buckets = Hashtbl.create 8 in
      List.iter
        (fun (h, i) ->
          let root = find i in
          let cur = Option.value ~default:[] (Hashtbl.find_opt buckets root) in
          Hashtbl.replace buckets root (h :: cur))
        idx;
      Hashtbl.fold (fun _ members acc -> List.rev members :: acc) buckets []
      |> List.sort compare
    end
  in
  { hosts; alone; joint; clusters }
