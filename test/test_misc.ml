(* Odds and ends: printers, file IO, table rendering and simulator
   accounting details not covered by the main suites. *)

module R = Rat
let ri = R.of_int
let rat = Alcotest.testable R.pp R.equal

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_lp_pp () =
  let m = Lp.create () in
  let x = Lp.add_var ~ub:(Some (ri 4)) m "x" in
  let y = Lp.add_var m "y" in
  Lp.add_constraint ~name:"cap" m
    (Lp.of_terms [ (ri 2, x); (R.of_ints (-1) 2, y) ])
    Lp.Le (ri 7);
  Lp.set_objective m Lp.Maximize (Lp.add (Lp.var x) (Lp.var y));
  let out = Format.asprintf "%a" Lp.pp m in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("pp mentions " ^ needle) true (contains needle out))
    [ "maximize"; "cap:"; "2 x"; "- 1/2 y"; "<= 7"; "bounds"; "0 <= x <= 4"; "0 <= y <= +inf" ];
  Alcotest.(check int) "num_vars" 2 (Lp.num_vars m);
  Alcotest.(check int) "num_constraints" 1 (Lp.num_constraints m);
  Alcotest.(check string) "find_var/var_name roundtrip" "x"
    (Lp.var_name m (Lp.find_var m "x"));
  Alcotest.(check bool) "unknown var" true
    (try ignore (Lp.find_var m "z"); false with Not_found -> true)

let test_platform_pp_and_file () =
  let p = Platform_gen.figure1 () in
  let out = Format.asprintf "%a" Platform.pp p in
  Alcotest.(check bool) "pp mentions nodes" true (contains "node P1 w=3" out);
  Alcotest.(check bool) "pp mentions edges" true (contains "edge P1->P2" out);
  (* of_file round-trip through a temp file *)
  let path = Filename.temp_file "steady" ".platform" in
  let oc = open_out path in
  output_string oc (Platform_parse.to_string p);
  close_out oc;
  let q = Platform_parse.of_file path in
  Sys.remove path;
  Alcotest.(check bool) "file round-trip" true (Platform.equal p q)

let test_exp_table_render () =
  let t =
    {
      Exp_common.id = "E0";
      title = "demo";
      headers = [ "alpha"; "b" ];
      rows = [ [ "1"; "2" ]; [ "333"; "4" ] ];
      notes = [ "a note" ];
    }
  in
  let out = Exp_common.render t in
  Alcotest.(check bool) "title" true (contains "=== E0: demo ===" out);
  Alcotest.(check bool) "aligned header" true (contains "alpha  b" out);
  Alcotest.(check bool) "row" true (contains "333    4" out);
  Alcotest.(check bool) "note" true (contains "note: a note" out);
  Alcotest.(check string) "rat helper" "5/3" (Exp_common.rat (R.of_ints 5 3));
  Alcotest.(check string) "flt helper" "1.2346" (Exp_common.flt 1.23456)

let test_experiment_smoke () =
  (* one cheap experiment end to end through the shared renderer *)
  let t = Experiments.e1_master_slave_lp () in
  Alcotest.(check string) "id" "E1" t.Exp_common.id;
  Alcotest.(check int) "six platform rows" 6 (List.length t.Exp_common.rows);
  let out = Exp_common.render t in
  Alcotest.(check bool) "mentions ntask" true (contains "ntask = 4/3" out)

let test_sim_partial_busy () =
  (* busy_time counts the in-flight fraction of a running operation *)
  let p =
    Platform.create ~names:[| "A" |] ~weights:[| Ext_rat.of_int 2 |] ~edges:[]
  in
  let s = Event_sim.create p in
  Event_sim.submit s (Event_sim.Compute (0, ri 3)); (* needs 6 time units *)
  Event_sim.run_until s (ri 4);
  Alcotest.check rat "busy so far" (ri 4) (Event_sim.busy_time s (Event_sim.Cpu 0));
  Alcotest.(check int) "still running" 1 (Event_sim.running_ops s);
  Alcotest.(check int) "nothing pending" 0 (Event_sim.pending_ops s);
  Event_sim.submit s (Event_sim.Compute (0, ri 1));
  Alcotest.(check int) "queued behind" 1 (Event_sim.pending_ops s);
  Event_sim.run s;
  Alcotest.check rat "all done" (ri 4) (Event_sim.completed_work s 0)

let test_bigint_hash_min_max () =
  let a = Bigint.of_string "123456789123456789" in
  let b = Bigint.of_string "123456789123456789" in
  Alcotest.(check int) "hash stable" (Bigint.hash a) (Bigint.hash b);
  Alcotest.(check bool) "infix" true
    Bigint.Infix.(a = b && a >= b && Bigint.zero < a);
  Alcotest.(check bool) "rat hash stable" true
    (Rat.hash (R.of_ints 6 4) = Rat.hash (R.of_ints 3 2))

let suite =
  ( "misc",
    [
      Alcotest.test_case "Lp.pp" `Quick test_lp_pp;
      Alcotest.test_case "Platform pp + of_file" `Quick test_platform_pp_and_file;
      Alcotest.test_case "experiment table render" `Quick test_exp_table_render;
      Alcotest.test_case "experiment smoke (E1)" `Quick test_experiment_smoke;
      Alcotest.test_case "sim partial busy" `Quick test_sim_partial_busy;
      Alcotest.test_case "hash/min/max odds" `Quick test_bigint_hash_min_max;
    ] )
