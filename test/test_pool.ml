(* Tests for the Domain pool (lib/par) and the pool-width independence
   of everything fanned out across it.

   The container this suite usually runs on may report a single core, in
   which case [Pool.default] degenerates to a sequential pool — so every
   test that wants actual cross-domain scheduling builds its own pool
   with [~domains] > 0 (spawning domains is allowed even on one core;
   they just time-share). *)

exception Boom of int

let test_map_order () =
  Pool.with_pool ~domains:3 (fun pool ->
      Alcotest.(check int) "size" 4 (Pool.size pool);
      let xs = List.init 100 Fun.id in
      Alcotest.(check (list int))
        "map = List.map" (List.map succ xs)
        (Pool.map pool succ xs);
      let a = Array.init 50 (fun i -> i * i) in
      Alcotest.(check (array int))
        "map_array = Array.map"
        (Array.map (fun x -> x + 1) a)
        (Pool.map_array pool (fun x -> x + 1) a))

let test_sequential_pool () =
  Pool.with_pool ~domains:0 (fun pool ->
      Alcotest.(check int) "size" 1 (Pool.size pool);
      Alcotest.(check (list int))
        "sequential map" [ 2; 3; 4 ]
        (Pool.map pool succ [ 1; 2; 3 ]))

let test_exception_propagates () =
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          let ran = Array.make 20 false in
          let got =
            try
              Pool.run pool ~count:20 ~body:(fun i ->
                  ran.(i) <- true;
                  if i = 7 then raise (Boom i));
              None
            with Boom i -> Some i
          in
          Alcotest.(check (option int)) "Boom re-raised" (Some 7) got;
          (* the failing task does not cancel the rest *)
          Alcotest.(check bool)
            "all tasks still ran" true
            (Array.for_all Fun.id ran)))
    [ 0; 2 ]

let test_nested_maps () =
  Pool.with_pool ~domains:2 (fun pool ->
      let table =
        Pool.map pool
          (fun i -> Pool.map pool (fun j -> (i * 10) + j) [ 0; 1; 2 ])
          [ 1; 2; 3 ]
      in
      Alcotest.(check (list (list int)))
        "nested" [ [ 10; 11; 12 ]; [ 20; 21; 22 ]; [ 30; 31; 32 ] ]
        table)

let test_use_after_shutdown () =
  let pool = Pool.create ~domains:2 () in
  Pool.shutdown pool;
  Pool.shutdown pool;
  Alcotest.(check (list int))
    "runs sequentially after shutdown" [ 1; 4; 9 ]
    (Pool.map pool (fun x -> x * x) [ 1; 2; 3 ])

(* enumerate_trees: the parallel decision-prefix split must reproduce
   the sequential output exactly, order included *)
let test_enumerate_trees_pool_independent () =
  let p = Platform_gen.random_graph ~seed:5 ~nodes:6 ~extra_edges:2 () in
  let targets = [ 2; 4 ] in
  let seq =
    Pool.with_pool ~domains:0 (fun pool ->
        Multicast.enumerate_trees ~pool p ~source:0 ~targets)
  in
  Alcotest.(check bool) "found some trees" true (List.length seq > 0);
  Pool.with_pool ~domains:3 (fun pool ->
      let par = Multicast.enumerate_trees ~pool p ~source:0 ~targets in
      Alcotest.(check (list (list int))) "same trees, same order" seq par)

(* Experiments.all: same tables whatever the pool width *)
let test_experiments_pool_independent () =
  let render tables = List.map Exp_common.render tables in
  let seq =
    Pool.with_pool ~domains:0 (fun pool -> Experiments.all ~pool ())
  in
  Pool.with_pool ~domains:2 (fun pool ->
      let par = Experiments.all ~pool () in
      Alcotest.(check (list string))
        "same tables" (render seq) (render par))

let suite =
  ( "pool",
    [
      Alcotest.test_case "map preserves order" `Quick test_map_order;
      Alcotest.test_case "domains:0 is sequential" `Quick test_sequential_pool;
      Alcotest.test_case "exception propagation" `Quick
        test_exception_propagates;
      Alcotest.test_case "nested maps" `Quick test_nested_maps;
      Alcotest.test_case "use after shutdown" `Quick test_use_after_shutdown;
      Alcotest.test_case "enumerate_trees pool-independent" `Quick
        test_enumerate_trees_pool_independent;
      Alcotest.test_case "experiments pool-independent" `Slow
        test_experiments_pool_independent;
    ] )
