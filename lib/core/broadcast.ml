module R = Rat
module P = Platform

let targets_of p ~source =
  List.filter (fun i -> i <> source) (P.nodes p)

let lp_bound p ~source =
  Collective.solve Collective.Max p ~source ~targets:(targets_of p ~source)

let tree_packing p ~source =
  Multicast.best_tree_packing p ~source ~targets:(targets_of p ~source)

let bound_met ?cache p ~source =
  let targets = targets_of p ~source in
  let bound =
    (Collective.solve ?cache Collective.Max p ~source ~targets)
      .Collective.throughput
  in
  let achieved =
    (Multicast.best_tree_packing ?cache p ~source ~targets).Multicast.throughput
  in
  (R.equal bound achieved, bound, achieved)
