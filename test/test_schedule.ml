(* Direct tests for the periodic-schedule representation and the §4.1
   reconstruction entry point. *)

module R = Rat
module P = Platform
module S = Schedule

let r = R.of_ints
let ri = R.of_int
let rat = Alcotest.testable R.pp R.equal

let duo () =
  P.create ~names:[| "A"; "B" |]
    ~weights:[| Ext_rat.of_int 2; Ext_rat.of_int 1 |]
    ~edges:[ (0, 1, ri 1); (1, 0, ri 1) ]

let demand ?(kind = 0) ?(delay = 0) e items =
  { S.d_edge = e; d_kind = kind; d_items = items; d_item_size = R.one; d_delay = delay }

let test_reconstruct_simple () =
  let p = duo () in
  let sched =
    Reconstruct.reconstruct p ~period:(ri 4)
      ~transfers:[ demand 0 (ri 2) ]
      ~compute:[ (1, ri 2) ]
      ~delays:[| 0; 1 |]
  in
  (match S.check_well_formed sched with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "one slot" 1 (S.slot_count sched);
  Alcotest.check rat "items preserved" (ri 2) (S.items_on_edge sched 0 ~kind:0);
  Alcotest.check rat "compute work" (ri 2) (S.compute_work sched 1);
  Alcotest.check rat "no work on A" R.zero (S.compute_work sched 0)

let test_reconstruct_rejections () =
  let p = duo () in
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "zero period" true
    (bad (fun () ->
         Reconstruct.reconstruct p ~period:R.zero ~transfers:[] ~compute:[]
           ~delays:[| 0; 0 |]));
  Alcotest.(check bool) "overloaded port" true
    (bad (fun () ->
         Reconstruct.reconstruct p ~period:(ri 1)
           ~transfers:[ demand 0 (ri 5) ]
           ~compute:[] ~delays:[| 0; 0 |]));
  Alcotest.(check bool) "compute too large" true
    (bad (fun () ->
         Reconstruct.reconstruct p ~period:(ri 1) ~transfers:[]
           ~compute:[ (0, ri 3) ]
           ~delays:[| 0; 0 |]));
  Alcotest.(check bool) "negative items" true
    (bad (fun () ->
         Reconstruct.reconstruct p ~period:(ri 1)
           ~transfers:[ demand 0 (ri (-1)) ]
           ~compute:[] ~delays:[| 0; 0 |]))

let test_kinds_share_edge () =
  (* two kinds on the same edge must both be carried and accounted *)
  let p = duo () in
  let sched =
    Reconstruct.reconstruct p ~period:(ri 4)
      ~transfers:[ demand ~kind:0 0 (ri 1); demand ~kind:1 0 (ri 2) ]
      ~compute:[] ~delays:[| 0; 0 |]
  in
  Alcotest.check rat "kind 0" (ri 1) (S.items_on_edge sched 0 ~kind:0);
  Alcotest.check rat "kind 1" (ri 2) (S.items_on_edge sched 0 ~kind:1);
  Alcotest.check rat "absent kind" R.zero (S.items_on_edge sched 0 ~kind:7)

let test_execute_respects_delays () =
  let p = duo () in
  let sched =
    Reconstruct.reconstruct p ~period:(ri 4)
      ~transfers:[ demand ~delay:2 0 (ri 1) ]
      ~compute:[ (1, ri 1) ]
      ~delays:[| 0; 3 |]
  in
  let sim = Event_sim.create p in
  S.execute ~sim ~periods:4 sched;
  Event_sim.run sim;
  (* transfer active in periods 2,3 only *)
  Alcotest.check rat "two transfers" (ri 2) (Event_sim.transferred sim 0);
  (* compute active in period 3 only *)
  Alcotest.check rat "one compute" (ri 1) (Event_sim.completed_work sim 1)

let test_execute_strict_catches_sabotage () =
  (* executing a schedule against a platform that is already busy
     violates strictness *)
  let p = duo () in
  let sched =
    Reconstruct.reconstruct p ~period:(ri 4)
      ~transfers:[ demand 0 (ri 2) ]
      ~compute:[] ~delays:[| 0; 0 |]
  in
  let sim = Event_sim.create p in
  (* occupy A's send port before the schedule starts *)
  Event_sim.submit sim (Event_sim.Transfer (0, ri 3));
  S.execute ~sim ~periods:1 sched;
  Alcotest.(check bool) "conflict detected" true
    (try Event_sim.run sim; false with Event_sim.Conflict _ -> true)

let test_nonstrict_execution_queues () =
  let p = duo () in
  let sched =
    Reconstruct.reconstruct p ~period:(ri 4)
      ~transfers:[ demand 0 (ri 2) ]
      ~compute:[] ~delays:[| 0; 0 |]
  in
  let sim = Event_sim.create p in
  Event_sim.submit sim (Event_sim.Transfer (0, ri 3));
  S.execute ~sim ~periods:1 ~strict:false sched;
  Event_sim.run sim;
  Alcotest.check rat "everything eventually runs" (ri 5)
    (Event_sim.transferred sim 0)

let test_two_kind_slots_are_matchings () =
  (* conflicting transfers (same edge, two kinds) end up in distinct or
     compatible slots; total busy time equals the port load *)
  let p = duo () in
  let sched =
    Reconstruct.reconstruct p ~period:(ri 4)
      ~transfers:[ demand ~kind:0 0 (ri 2); demand ~kind:1 0 (ri 2); demand 1 (ri 3) ]
      ~compute:[] ~delays:[| 0; 0 |]
  in
  match S.check_well_formed sched with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_render_timeline () =
  let p = duo () in
  let sched =
    Reconstruct.reconstruct p ~period:(ri 4)
      ~transfers:[ demand ~kind:3 0 (ri 2) ]
      ~compute:[ (1, ri 2) ]
      ~delays:[| 0; 1 |]
  in
  let out = S.render_timeline ~width:16 sched in
  let contains needle =
    let nl = String.length needle and hl = String.length out in
    let rec go i = i + nl <= hl && (String.sub out i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "send lane" true (contains "A send");
  Alcotest.(check bool) "recv lane" true (contains "B recv");
  Alcotest.(check bool) "cpu lane" true (contains "B cpu");
  Alcotest.(check bool) "kind digit" true (contains "3");
  Alcotest.(check bool) "compute marks" true (contains "#");
  Alcotest.(check bool) "narrow width rejected" true
    (try ignore (S.render_timeline ~width:2 sched); false
     with Invalid_argument _ -> true)

let test_period_and_demands () =
  let p = duo () in
  Alcotest.check rat "lcm of denominators" (ri 6)
    (Reconstruct.period [ r 1 2; R.zero; r 2 3 ]);
  Alcotest.check rat "no rates" R.one (Reconstruct.period []);
  let dems =
    Reconstruct.demands p ~period:(ri 4) ~kind:5 ~item_size:(ri 2)
      ~delays:[| 3; 1 |] [| R.zero; r 1 2 |]
  in
  match dems with
  | [ d ] ->
    Alcotest.(check int) "edge" 1 d.S.d_edge;
    Alcotest.(check int) "kind" 5 d.S.d_kind;
    Alcotest.check rat "period * flow items" (ri 2) d.S.d_items;
    Alcotest.check rat "item size" (ri 2) d.S.d_item_size;
    Alcotest.(check int) "delay of the source" 1 d.S.d_delay
  | _ -> Alcotest.fail "one demand per edge that carries flow"

let test_run_measures () =
  let p = duo () in
  let sched =
    Reconstruct.reconstruct p ~period:(ri 4)
      ~transfers:[ demand 0 (ri 2) ]
      ~compute:[ (0, ri 1); (1, ri 2) ]
      ~delays:[| 0; 2 |]
  in
  Alcotest.check rat "tasks per period" (ri 3) (S.tasks_per_period sched);
  Alcotest.check rat "ramp-up" (ri 1) (S.completed_after sched 1);
  Alcotest.check rat "after 4 periods" (ri 8) (S.completed_after sched 4);
  Alcotest.check rat "strict run agrees" (ri 8)
    (S.completed (S.run ~periods:4 sched))

let test_deliver_checks_data_units () =
  (* items of size 2: the edge carries twice the items in data units *)
  let p = duo () in
  let sched =
    Reconstruct.reconstruct p ~period:(ri 4)
      ~transfers:
        [ { (demand ~delay:1 0 (ri 1)) with S.d_item_size = ri 2 } ]
      ~compute:[] ~delays:[| 0; 0 |]
  in
  let into_b d = P.edge_dst p d.S.d_edge = 1 in
  let into_a d = P.edge_dst p d.S.d_edge = 0 in
  (match S.deliver ~periods:3 sched [ into_b; into_a ] with
  | [| b; a |] ->
    Alcotest.check rat "items into B" (ri 2) b;
    Alcotest.check rat "nothing into A" R.zero a
  | _ -> Alcotest.fail "one total per selector");
  let claims_more =
    {
      sched with
      S.demands =
        Array.map (fun d -> { d with S.d_items = ri 2 }) sched.S.demands;
    }
  in
  Alcotest.(check bool) "mismatch detected" true
    (try ignore (S.deliver ~periods:3 claims_more [ into_b ]); false
     with Failure _ -> true)

let prop_reconstruction_roundtrip =
  QCheck.Test.make ~name:"reconstruct preserves per-kind volumes" ~count:100
    (QCheck.pair (QCheck.int_range 0 100) (QCheck.int_range 2 6))
    (fun (seed, n) ->
      let p = Platform_gen.random_graph ~seed ~nodes:n ~extra_edges:2 () in
      let st = Random.State.make [| seed; 13 |] in
      (* small random demands, then scale the period up to fit *)
      let dems =
        List.filter_map
          (fun e ->
            let items = R.of_ints (Random.State.int st 4) 2 in
            if R.sign items > 0 then
              Some (demand ~kind:(Random.State.int st 3) e items)
            else None)
          (P.edges p)
      in
      if dems = [] then true
      else begin
        let period =
          List.fold_left
            (fun acc d ->
              R.add acc (R.mul d.S.d_items (P.edge_cost p d.S.d_edge)))
            R.one dems
        in
        let sched =
          Reconstruct.reconstruct p ~period ~transfers:dems ~compute:[]
            ~delays:(Array.make (P.num_nodes p) 0)
        in
        (match S.check_well_formed sched with
        | Ok () -> ()
        | Error e -> QCheck.Test.fail_report e);
        List.for_all
          (fun d ->
            let total =
              List.fold_left
                (fun acc d' ->
                  if d'.S.d_edge = d.S.d_edge && d'.S.d_kind = d.S.d_kind then
                    R.add acc d'.S.d_items
                  else acc)
                R.zero dems
            in
            R.equal (S.items_on_edge sched d.S.d_edge ~kind:d.S.d_kind) total)
          dems
      end)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  ( "schedule",
    [
      Alcotest.test_case "reconstruct simple" `Quick test_reconstruct_simple;
      Alcotest.test_case "reconstruct rejections" `Quick test_reconstruct_rejections;
      Alcotest.test_case "kinds share an edge" `Quick test_kinds_share_edge;
      Alcotest.test_case "execute respects delays" `Quick test_execute_respects_delays;
      Alcotest.test_case "strict catches sabotage" `Quick test_execute_strict_catches_sabotage;
      Alcotest.test_case "non-strict queues" `Quick test_nonstrict_execution_queues;
      Alcotest.test_case "multi-kind slots" `Quick test_two_kind_slots_are_matchings;
      Alcotest.test_case "render timeline" `Quick test_render_timeline;
      Alcotest.test_case "period and demands" `Quick test_period_and_demands;
      Alcotest.test_case "run measures" `Quick test_run_measures;
      Alcotest.test_case "deliver checks data units" `Quick
        test_deliver_checks_data_units;
      q prop_reconstruction_roundtrip;
    ] )
