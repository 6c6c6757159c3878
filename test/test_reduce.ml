(* Tests for gather/reduce duality (§4.2, [12]). *)

module R = Rat
module P = Platform

let r = R.of_ints
let ri = R.of_int
let rat = Alcotest.testable R.pp R.equal

let test_gather_star () =
  (* two sources gathering into the hub: the hub's receive port is the
     bottleneck: TP * (c1 + c2) <= 1 *)
  let p =
    Platform_gen.star ~master_weight:Ext_rat.inf
      ~slaves:[ (Ext_rat.inf, ri 1); (Ext_rat.inf, ri 3) ]
      ()
  in
  let g = Reduce_op.gather_throughput p ~sink:0 ~sources:[ 1; 2 ] in
  Alcotest.check rat "gather rate" (r 1 4) g

let test_reduce_star_same_as_gather () =
  (* on a star nothing can be combined en route: reduce = gather *)
  let p =
    Platform_gen.star ~master_weight:Ext_rat.inf
      ~slaves:[ (Ext_rat.inf, ri 1); (Ext_rat.inf, ri 3) ]
      ()
  in
  let g = Reduce_op.gather_throughput p ~sink:0 ~sources:[ 1; 2 ] in
  let rd = Reduce_op.reduce_throughput p ~sink:0 ~sources:[ 1; 2 ] in
  Alcotest.check rat "no combining on a star" g rd

let test_reduce_chain_combines () =
  (* chain A -> B -> M: B can merge A's partial result with its own, so
     reduce runs at the speed of one link while gather pays both
     streams on B->M *)
  let p =
    P.create ~names:[| "M"; "B"; "A" |]
      ~weights:[| Ext_rat.inf; Ext_rat.inf; Ext_rat.inf |]
      ~edges:[ (2, 1, ri 1); (1, 0, ri 1) ]
  in
  let g = Reduce_op.gather_throughput p ~sink:0 ~sources:[ 1; 2 ] in
  let rd = Reduce_op.reduce_throughput p ~sink:0 ~sources:[ 1; 2 ] in
  Alcotest.check rat "gather pays twice on B->M" (r 1 2) g;
  Alcotest.check rat "reduce combines" (ri 1) rd

let test_fig2_reduce () =
  (* reduce is defined on the transpose, so reducing on the transposed
     Figure 2 platform is the Max-law multicast on the original: the
     combining-reduce bound equals the (unachievable) multicast bound 1 *)
  let p, src, targets = Platform_gen.multicast_fig2 () in
  let fwd =
    (Collective.solve Collective.Max p ~source:src ~targets).Collective.throughput
  in
  let bwd = Reduce_op.reduce_throughput (P.transpose p) ~sink:src ~sources:targets in
  Alcotest.check rat "double transposition identity" fwd bwd;
  Alcotest.check rat "both equal one" (ri 1) bwd

let test_gather_invariants () =
  let p = Platform_gen.figure1 () in
  let sol = Reduce_op.gather_solution p ~sink:0 ~sources:[ 2; 4 ] in
  match Oracles.check_invariants sol with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let suite =
  ( "reduce",
    [
      Alcotest.test_case "gather star" `Quick test_gather_star;
      Alcotest.test_case "reduce = gather on star" `Quick test_reduce_star_same_as_gather;
      Alcotest.test_case "reduce combines on chain" `Quick test_reduce_chain_combines;
      Alcotest.test_case "fig2 transposition" `Quick test_fig2_reduce;
      Alcotest.test_case "gather invariants" `Quick test_gather_invariants;
    ] )
