(* Seeded chaos campaigns: the invariant battery must hold on every
   fuzzed fault plan, and a campaign must be deterministic in its
   seed — a red campaign is a reproducible bug report. *)

let test_smoke_green () =
  let s = Chaos.run_campaign ~smoke:true ~seed:42 () in
  (match s.Chaos.violations with
  | [] -> ()
  | v :: _ ->
    Alcotest.failf "%d violations; first %s: %s"
      (List.length s.Chaos.violations)
      v.Chaos.v_plan v.Chaos.v_what);
  Alcotest.(check bool) "enough plans" true (s.Chaos.plans >= 36);
  Alcotest.(check bool) "both plan kinds covered" true
    (s.Chaos.outage_plans > 0 && s.Chaos.slowdown_plans > 0)

let test_shape_axis () =
  (* the shape axis must cover multi-hop platforms, and a restricted
     relay-only sweep must stay green on its own *)
  Alcotest.(check bool) "tree and graph shapes in the default axis" true
    (List.mem "tree9" Chaos.shapes && List.mem "graph8" Chaos.shapes);
  let s =
    Chaos.run_campaign ~smoke:true ~shapes:[ "tree6"; "graph8" ] ~seed:11 ()
  in
  (match s.Chaos.violations with
  | [] -> ()
  | v :: _ ->
    Alcotest.failf "%d violations; first %s: %s"
      (List.length s.Chaos.violations)
      v.Chaos.v_plan v.Chaos.v_what);
  Alcotest.(check int) "families x shapes plans" 12 s.Chaos.plans

let test_determinism () =
  let a = Chaos.run_campaign ~smoke:true ~seed:7 () in
  let b = Chaos.run_campaign ~smoke:true ~seed:7 () in
  Alcotest.(check int) "same plans" a.Chaos.plans b.Chaos.plans;
  Alcotest.(check int) "same runs" a.Chaos.runs b.Chaos.runs;
  Alcotest.(check int) "same split" a.Chaos.outage_plans b.Chaos.outage_plans;
  Alcotest.(check int) "same violations"
    (List.length a.Chaos.violations)
    (List.length b.Chaos.violations);
  Alcotest.(check int) "same solver effort" a.Chaos.effort.Lp.Stats.solves
    b.Chaos.effort.Lp.Stats.solves;
  Alcotest.(check int) "same retries" a.Chaos.effort.Lp.Stats.retries
    b.Chaos.effort.Lp.Stats.retries

let test_effort_exercised () =
  (* the campaign is a soak test for the solver and the retry
     machinery: the Robust and Reactive runs must actually exercise the
     solver and the failure executor *)
  let s = Chaos.run_campaign ~smoke:true ~seed:42 () in
  let e = s.Chaos.effort in
  Alcotest.(check bool) "kernel solves ran" true (e.Lp.Stats.solves > 0);
  Alcotest.(check bool) "failure executor retried" true
    (e.Lp.Stats.retries > 0)

let suite =
  ( "chaos",
    [
      Alcotest.test_case "smoke campaign is green" `Quick test_smoke_green;
      Alcotest.test_case "campaign deterministic in seed" `Quick
        test_determinism;
      Alcotest.test_case "effort counters exercised" `Quick
        test_effort_exercised;
      Alcotest.test_case "multi-hop shape axis" `Quick test_shape_axis;
    ] )
