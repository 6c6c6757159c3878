module R = Rat
module P = Platform

let targets_of p ~source =
  List.filter (fun i -> i <> source) (P.nodes p)

let lp_bound ?cache p ~source =
  Collective.solve ?cache Collective.Max p ~source
    ~targets:(targets_of p ~source)

let lp_bound_reduced ?stats p ~source =
  Collective.solve_reduced ?stats
    Collective.Max p ~source
    ~targets:(targets_of p ~source)

let tree_packing ?cache p ~source =
  Multicast.best_tree_packing ?cache p ~source
    ~targets:(targets_of p ~source)

let bound_met ?cache p ~source =
  let bound = (lp_bound ?cache p ~source).Collective.throughput in
  let achieved =
    (tree_packing ?cache p ~source).Multicast.throughput
  in
  (R.equal bound achieved, bound, achieved)
