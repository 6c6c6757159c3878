(* The exact solve cache: [Lp.Cache] memoises solved instances, and a
   hit is bit-identical to re-solving.  Every solve is cold, so the
   cache is the only reuse at the LP layer. *)

module R = Rat
module P = Platform

let r = R.of_ints
let rat = Alcotest.testable R.pp R.equal

(* same node and edge structure, weights and costs divided by the
   multiplier — what Dynamic_sched.scaled_platform produces per phase *)
let scaled p mult =
  P.create
    ~names:(Array.of_list (List.map (P.name p) (P.nodes p)))
    ~weights:
      (Array.of_list
         (List.map
            (fun i ->
              match P.weight p i with
              | Ext_rat.Inf -> Ext_rat.Inf
              | Ext_rat.Fin w -> Ext_rat.Fin (R.div w mult))
            (P.nodes p)))
    ~edges:
      (List.map
         (fun e -> (P.edge_src p e, P.edge_dst p e, R.div (P.edge_cost p e) mult))
         (P.edges p))

let test_cache_hits () =
  let cache = Lp.Cache.create () in
  let p = Platform_gen.figure1 () in
  let s1 = (Master_slave.solve ~cache p ~master:0).Master_slave.ntask in
  let s2 = (Master_slave.solve ~cache p ~master:0).Master_slave.ntask in
  Alcotest.check rat "memoised result identical" s1 s2;
  Alcotest.(check int) "one miss" 1 (Lp.Cache.misses cache);
  Alcotest.(check int) "one hit" 1 (Lp.Cache.hits cache);
  Alcotest.(check int) "one entry" 1 (Lp.Cache.length cache);
  (* a perturbed instance is a different key, not a false hit *)
  let s3 = (Master_slave.solve ~cache (scaled p R.two) ~master:0).Master_slave.ntask in
  Alcotest.(check int) "perturbation misses" 2 (Lp.Cache.misses cache);
  Alcotest.check rat "scaled platform doubles throughput" (R.mul R.two s1) s3

let test_cache_capacity () =
  let cache = Lp.Cache.create ~capacity:2 () in
  let p = Platform_gen.figure1 () in
  List.iter
    (fun k ->
      ignore (Master_slave.solve ~cache (scaled p (R.of_int k)) ~master:0))
    [ 1; 2; 3; 4; 5 ];
  Alcotest.(check bool) "capacity bounds the table" true
    (Lp.Cache.length cache <= 2);
  Alcotest.(check bool) "rejects capacity 0" true
    (try ignore (Lp.Cache.create ~capacity:0 ()); false
     with Invalid_argument _ -> true)

let gen_case =
  QCheck.Gen.(
    let* seed = int_range 0 10_000 in
    let* nodes = int_range 4 7 in
    (* at least one chord: a tree would take the closed form and never
       reach the cache *)
    let* extra = int_range 1 4 in
    let* mults = list_size (return 3) (int_range 1 8) in
    return (seed, nodes, extra, mults))

let print_case (seed, nodes, extra, mults) =
  Printf.sprintf "seed=%d nodes=%d extra=%d mults=[%s]" seed nodes extra
    (String.concat ";" (List.map string_of_int mults))

let arb_case = QCheck.make ~print:print_case gen_case

let prop_cache_replays =
  QCheck.Test.make ~name:"cache replays bit-identical results" ~count:15
    arb_case (fun (seed, nodes, extra, mults) ->
      let base = Platform_gen.random_graph ~seed ~nodes ~extra_edges:extra () in
      QCheck.assume (Tree_decomp.detect base ~root:0 = None);
      let plats = List.map (fun k -> scaled base (r k 4)) mults in
      let cache = Lp.Cache.create () in
      let pass () =
        List.map
          (fun p -> (Master_slave.solve ~cache p ~master:0).Master_slave.ntask)
          plats
      in
      let first = pass () in
      let second = pass () in
      Lp.Cache.hits cache >= List.length plats
      && List.for_all2 R.equal first second)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  ( "warm",
    [
      Alcotest.test_case "cache hits" `Quick test_cache_hits;
      Alcotest.test_case "cache capacity" `Quick test_cache_capacity;
      q prop_cache_replays;
    ] )
