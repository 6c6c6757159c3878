(* Direct tests for the flow utilities (cycle cancelling, pipeline
   delays) that schedule reconstruction relies on. *)

module R = Rat
module P = Platform

let r = R.of_ints
let ri = R.of_int
let rat = Alcotest.testable R.pp R.equal

(* M -> A -> B -> A? needs explicit cyclic graphs *)
let triangle () =
  P.create ~names:[| "A"; "B"; "C" |]
    ~weights:[| Ext_rat.inf; Ext_rat.inf; Ext_rat.inf |]
    ~edges:
      [ (0, 1, ri 1); (1, 2, ri 1); (2, 0, ri 1); (0, 2, ri 1) ]

let test_balance () =
  let p = triangle () in
  let f = Flow.zero p in
  f.(0) <- ri 3; (* A->B *)
  f.(1) <- ri 1; (* B->C *)
  Alcotest.check rat "A balance" (ri (-3)) (Flow.balance p f 0);
  Alcotest.check rat "B balance" (ri 2) (Flow.balance p f 1);
  Alcotest.check rat "C balance" (ri 1) (Flow.balance p f 2)

let test_cancel_pure_cycle () =
  let p = triangle () in
  let f = Flow.zero p in
  f.(0) <- ri 2; (* A->B *)
  f.(1) <- ri 2; (* B->C *)
  f.(2) <- ri 2; (* C->A *)
  Alcotest.(check bool) "cyclic before" false (Flow.is_acyclic p f);
  let g = Flow.cancel_cycles p f in
  Alcotest.(check bool) "acyclic after" true (Flow.is_acyclic p g);
  List.iter
    (fun e -> Alcotest.check rat "cycle fully cancelled" R.zero g.(e))
    (P.edges p)

let test_cancel_preserves_balances () =
  let p = triangle () in
  let f = Flow.zero p in
  (* useful flow A->...->C plus a parasitic cycle *)
  f.(0) <- r 5 2; (* A->B *)
  f.(1) <- r 5 2; (* B->C *)
  f.(2) <- ri 1; (* C->A: closes a cycle with 0 and 1 *)
  f.(3) <- r 1 3; (* A->C direct *)
  let g = Flow.cancel_cycles p f in
  Alcotest.(check bool) "acyclic" true (Flow.is_acyclic p g);
  List.iter
    (fun i ->
      Alcotest.check rat
        ("balance preserved at " ^ P.name p i)
        (Flow.balance p f i) (Flow.balance p g i))
    (P.nodes p);
  (* cancelling can only reduce flow *)
  List.iter
    (fun e -> Alcotest.(check bool) "no increase" true R.Infix.(g.(e) <= f.(e)))
    (P.edges p)

let test_delays_chain () =
  let p =
    P.create ~names:[| "M"; "A"; "B" |]
      ~weights:[| Ext_rat.inf; Ext_rat.inf; Ext_rat.inf |]
      ~edges:[ (0, 1, ri 1); (1, 2, ri 1) ]
  in
  let f = Flow.zero p in
  f.(0) <- ri 1;
  f.(1) <- ri 1;
  let d = Flow.delays p f in
  Alcotest.(check (array int)) "chain depths" [| 0; 1; 2 |] d

let test_delays_idle_nodes () =
  let p = triangle () in
  let f = Flow.zero p in
  f.(3) <- ri 1; (* only A->C *)
  let d = Flow.delays p f in
  Alcotest.(check int) "A depth" 0 d.(0);
  Alcotest.(check int) "B untouched" 0 d.(1);
  Alcotest.(check int) "C depth" 1 d.(2)

let test_delays_longest_path () =
  (* diamond with a long branch: delay follows the LONGEST path, as the
     buffer argument requires *)
  let p =
    P.create ~names:[| "M"; "X"; "Y"; "T" |]
      ~weights:[| Ext_rat.inf; Ext_rat.inf; Ext_rat.inf; Ext_rat.inf |]
      ~edges:[ (0, 3, ri 1); (0, 1, ri 1); (1, 2, ri 1); (2, 3, ri 1) ]
  in
  let f = Array.make 4 R.one in
  let d = Flow.delays p f in
  Alcotest.(check int) "T waits for the long branch" 3 d.(3)

let test_delays_reject_cycles () =
  let p = triangle () in
  let f = Flow.zero p in
  f.(0) <- ri 1;
  f.(1) <- ri 1;
  f.(2) <- ri 1;
  Alcotest.(check bool) "cyclic flow rejected" true
    (try ignore (Flow.delays p f); false with Invalid_argument _ -> true)

let prop_cancel_idempotent =
  QCheck.Test.make ~name:"cancel_cycles is idempotent" ~count:100
    (QCheck.pair (QCheck.int_range 0 100) (QCheck.int_range 3 8))
    (fun (seed, n) ->
      let p = Platform_gen.random_graph ~seed ~nodes:n ~extra_edges:4 () in
      let st = Random.State.make [| seed; 77 |] in
      let f =
        Array.init (P.num_edges p) (fun _ ->
            R.of_ints (Random.State.int st 8) 3)
      in
      let g = Flow.cancel_cycles p f in
      let h = Flow.cancel_cycles p g in
      Flow.is_acyclic p g
      && Array.for_all2 R.equal g h
      && List.for_all
           (fun i -> R.equal (Flow.balance p f i) (Flow.balance p g i))
           (P.nodes p))

(* random flow on a random cyclic graph, as in [prop_cancel_idempotent] *)
let random_instance seed n =
  let p = Platform_gen.random_graph ~seed ~nodes:n ~extra_edges:4 () in
  let st = Random.State.make [| seed; 77 |] in
  let f =
    Array.init (P.num_edges p) (fun _ -> R.of_ints (Random.State.int st 8) 3)
  in
  (p, f)

let prop_cancel_acyclic_balanced =
  QCheck.Test.make ~name:"cancel_cycles: acyclic, balances, no increase"
    ~count:100
    (QCheck.pair (QCheck.int_range 0 100) (QCheck.int_range 3 8))
    (fun (seed, n) ->
      let p, f = random_instance seed n in
      let g = Flow.cancel_cycles p f in
      Flow.is_acyclic p g
      && List.for_all
           (fun i -> R.equal (Flow.balance p f i) (Flow.balance p g i))
           (P.nodes p)
      && Array.for_all2 (fun ge fe -> R.Infix.(ge <= fe)) g f)

let prop_cancel_acyclic_fixed_point =
  QCheck.Test.make ~name:"cancel_cycles: identity on acyclic input" ~count:100
    (QCheck.pair (QCheck.int_range 0 100) (QCheck.int_range 3 8))
    (fun (seed, n) ->
      let p, f = random_instance seed n in
      let g = Flow.cancel_cycles p f in
      (* g is acyclic: a second cancellation must find nothing at all *)
      let h, found = Flow.cancel_cycles_counted p g in
      found = 0 && Array.for_all2 R.equal h g)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  ( "flow",
    [
      Alcotest.test_case "balance" `Quick test_balance;
      Alcotest.test_case "cancel pure cycle" `Quick test_cancel_pure_cycle;
      Alcotest.test_case "cancel preserves balances" `Quick test_cancel_preserves_balances;
      Alcotest.test_case "delays on a chain" `Quick test_delays_chain;
      Alcotest.test_case "delays of idle nodes" `Quick test_delays_idle_nodes;
      Alcotest.test_case "delays take longest path" `Quick test_delays_longest_path;
      Alcotest.test_case "delays reject cycles" `Quick test_delays_reject_cycles;
      q prop_cancel_idempotent;
      q prop_cancel_acyclic_balanced;
      q prop_cancel_acyclic_fixed_point;
    ] )
