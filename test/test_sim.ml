(* Tests for the one-port full-overlap discrete-event simulator. *)

module R = Rat
module E = Ext_rat
module S = Event_sim

let r = R.of_ints
let ri = R.of_int
let rat = Alcotest.testable R.pp R.equal

(* A --(c=2)--> B, both computing nodes *)
let duo () =
  Platform.create ~names:[| "A"; "B" |]
    ~weights:[| E.of_int 3; E.of_int 2 |]
    ~edges:[ (0, 1, ri 2); (1, 0, ri 2) ]

let test_compute_timing () =
  let s = S.create (duo ()) in
  let finished = ref R.minus_one in
  S.submit s (S.Compute (0, ri 4)) ~on_done:(fun s -> finished := S.now s);
  S.run s;
  (* 4 units at w=3 -> 12 time units *)
  Alcotest.check rat "completion time" (ri 12) !finished;
  Alcotest.check rat "work recorded" (ri 4) (S.completed_work s 0);
  Alcotest.(check int) "count" 1 (S.completed_compute_count s 0);
  Alcotest.check rat "cpu busy" (ri 12) (S.busy_time s (S.Cpu 0))

let test_transfer_timing () =
  let s = S.create (duo ()) in
  let finished = ref R.minus_one in
  S.submit s (S.Transfer (0, r 3 2)) ~on_done:(fun s -> finished := S.now s);
  S.run s;
  (* size 3/2 at c=2 -> 3 time units *)
  Alcotest.check rat "completion" (ri 3) !finished;
  Alcotest.check rat "transferred" (r 3 2) (S.transferred s 0);
  Alcotest.check rat "send port busy" (ri 3) (S.busy_time s (S.Send 0));
  Alcotest.check rat "recv port busy" (ri 3) (S.busy_time s (S.Recv 1))

let test_full_overlap () =
  (* compute + send + receive simultaneously on B: full overlap means all
     three finish as if alone *)
  let s = S.create (duo ()) in
  S.submit s (S.Compute (1, ri 5)); (* 10 time units on B *)
  S.submit s (S.Transfer (0, ri 1)); (* A->B: B receives, 2 units *)
  S.submit s (S.Transfer (1, ri 1)); (* B->A: B sends, 2 units *)
  S.run s;
  Alcotest.check rat "all done at 10" (ri 10) (S.now s);
  Alcotest.check rat "recv busy 2" (ri 2) (S.busy_time s (S.Recv 1));
  Alcotest.check rat "send busy 2" (ri 2) (S.busy_time s (S.Send 1))

let test_one_port_queuing () =
  (* two transfers out of A must serialise on A's send port *)
  let p =
    Platform.create ~names:[| "A"; "B"; "C" |]
      ~weights:[| E.of_int 1; E.of_int 1; E.of_int 1 |]
      ~edges:[ (0, 1, ri 2); (0, 2, ri 3) ]
  in
  let s = S.create p in
  let t1 = ref R.zero and t2 = ref R.zero in
  S.submit s (S.Transfer (0, ri 1)) ~on_done:(fun s -> t1 := S.now s);
  S.submit s (S.Transfer (1, ri 1)) ~on_done:(fun s -> t2 := S.now s);
  S.run s;
  Alcotest.check rat "first at 2" (ri 2) !t1;
  Alcotest.check rat "second at 5 (serialised)" (ri 5) !t2;
  Alcotest.check rat "send port busy 5" (ri 5) (S.busy_time s (S.Send 0))

let test_strict_conflict () =
  let s = S.create (duo ()) in
  S.submit s (S.Transfer (0, ri 1));
  Alcotest.(check bool) "strict raises" true
    (try S.submit ~strict:true s (S.Transfer (0, ri 1)); false
     with S.Conflict _ -> true);
  (* CPU conflicts too *)
  S.submit s (S.Compute (0, ri 1));
  Alcotest.(check bool) "strict cpu raises" true
    (try S.submit ~strict:true s (S.Compute (0, ri 1)); false
     with S.Conflict _ -> true)

let test_fifo_order () =
  (* queued ops start in submission order *)
  let s = S.create (duo ()) in
  let order = ref [] in
  for k = 1 to 3 do
    S.submit s (S.Compute (0, ri 1)) ~on_done:(fun _ -> order := k :: !order)
  done;
  S.run s;
  Alcotest.(check (list int)) "FIFO" [ 1; 2; 3 ] (List.rev !order)

let test_timers_and_chaining () =
  (* a controller that reacts to completions by submitting new work *)
  let s = S.create (duo ()) in
  let completions = ref 0 in
  let rec feed s =
    incr completions;
    if !completions < 4 then S.submit s (S.Compute (1, ri 1)) ~on_done:feed
  in
  S.at s (ri 5) (fun s -> S.submit s (S.Compute (1, ri 1)) ~on_done:feed);
  S.run s;
  (* starts at 5, each takes 2 -> 4 completions by 13 *)
  Alcotest.(check int) "four tasks" 4 !completions;
  Alcotest.check rat "end time" (ri 13) (S.now s);
  Alcotest.(check bool) "past timer rejected" true
    (try S.at s (ri 1) (fun _ -> ()); false with Invalid_argument _ -> true)

let test_run_until () =
  let s = S.create (duo ()) in
  S.submit s (S.Compute (0, ri 4)); (* done at 12 *)
  S.run_until s (ri 5);
  Alcotest.check rat "clock advanced" (ri 5) (S.now s);
  Alcotest.check rat "not yet done" R.zero (S.completed_work s 0);
  Alcotest.(check int) "still running" 1 (S.running_ops s);
  S.run_until s (ri 12);
  Alcotest.check rat "done now" (ri 4) (S.completed_work s 0)

let test_zero_work () =
  let s = S.create (duo ()) in
  let fired = ref false in
  S.submit s (S.Compute (0, R.zero)) ~on_done:(fun _ -> fired := true);
  S.run s;
  Alcotest.(check bool) "zero work completes" true !fired;
  Alcotest.check rat "at time 0" R.zero (S.now s)

let test_invalid_submissions () =
  let p =
    Platform.create ~names:[| "A"; "Router" |]
      ~weights:[| E.of_int 1; E.inf |]
      ~edges:[ (0, 1, ri 1) ]
  in
  let s = S.create p in
  Alcotest.(check bool) "router cannot compute" true
    (try S.submit s (S.Compute (1, ri 1)); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative work" true
    (try S.submit s (S.Compute (0, ri (-1))); false
     with Invalid_argument _ -> true)

let test_cpu_slowdown_trace () =
  (* multiplier 1/2 from t=2: work 2 at w=1 -> 2 units at full speed;
     1 unit done by t=1... done: from 0-2 at rate 1 (2 units), so work 3
     takes: 2 units by t=2, 3rd unit at half speed -> 2 more -> t=4 *)
  let s =
    S.create ~cpu_traces:[ (0, [ (ri 2, r 1 2) ]) ] (duo ())
  in
  let w1 = Platform.weight (S.platform s) 0 in
  ignore w1;
  (* node 0 has w=3: rescale: work 1 takes 3 at rate 1.  Use work 1:
     by t=2, progress = 2/3 unit-equivalents of the 3 needed; remaining
     time-at-rate-1 = 1, at rate 1/2 -> 2 -> done at 4 *)
  let finished = ref R.zero in
  S.submit s (S.Compute (0, ri 1)) ~on_done:(fun s -> finished := S.now s);
  S.run s;
  Alcotest.check rat "slowdown respected" (ri 4) !finished

let test_outage_trace () =
  (* bandwidth outage on edge 0 during [1, 3): transfer of size 1 at c=2
     needs 2 busy time units -> 1 done before outage, stalls 2, finishes
     at 4 *)
  let s =
    S.create
      ~bw_traces:[ (0, [ (ri 1, R.zero); (ri 3, R.one) ]) ]
      (duo ())
  in
  let finished = ref R.zero in
  S.submit s (S.Transfer (0, ri 1)) ~on_done:(fun s -> finished := S.now s);
  S.run s;
  Alcotest.check rat "outage stalls transfer" (ri 4) !finished;
  (* port time includes the stall *)
  Alcotest.check rat "busy includes stall" (ri 4) (S.busy_time s (S.Send 0))

let test_speedup_trace () =
  (* doubling CPU speed from t=3: work 2 at w=3 needs 6 time-units of
     progress; 3 done by t=3, remaining 3 at double speed -> 3/2 more *)
  let s = S.create ~cpu_traces:[ (0, [ (ri 3, ri 2) ]) ] (duo ()) in
  let finished = ref R.zero in
  S.submit s (S.Compute (0, ri 2)) ~on_done:(fun s -> finished := S.now s);
  S.run s;
  Alcotest.check rat "speedup respected" (r 9 2) !finished

let test_trace_validation () =
  let bad traces =
    try ignore (S.create ~cpu_traces:traces (duo ())); false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "negative time" true (bad [ (0, [ (ri (-1), R.one) ]) ]);
  Alcotest.(check bool) "negative mult" true (bad [ (0, [ (ri 1, ri (-2)) ]) ]);
  Alcotest.(check bool) "non-increasing" true
    (bad [ (0, [ (ri 2, R.one); (ri 2, R.two) ]) ])

(* property: on a contention-free platform, total busy time equals the
   serial sum of operation durations, and makespan equals the max *)
let prop_single_resource_serialises =
  QCheck.Test.make ~name:"ops on one CPU serialise exactly" ~count:100
    (QCheck.list_of_size (QCheck.Gen.int_range 1 10) (QCheck.int_range 1 20))
    (fun works ->
      let s = S.create (duo ()) in
      List.iter (fun w -> S.submit s (S.Compute (0, ri w))) works;
      S.run s;
      let expected = ri (3 * List.fold_left ( + ) 0 works) in
      R.equal (S.now s) expected
      && R.equal (S.busy_time s (S.Cpu 0)) expected)

let prop_parallel_edges_overlap =
  QCheck.Test.make ~name:"disjoint transfers overlap fully" ~count:100
    (QCheck.pair (QCheck.int_range 1 20) (QCheck.int_range 1 20))
    (fun (a, b) ->
      (* A->B and B->A use disjoint ports *)
      let s = S.create (duo ()) in
      S.submit s (S.Transfer (0, ri a));
      S.submit s (S.Transfer (1, ri b));
      S.run s;
      R.equal (S.now s) (ri (2 * max a b)))

(* property: completion under a random piecewise-constant speed trace
   matches an independent analytic integration of the rate profile *)
let prop_trace_integration =
  QCheck.Test.make ~name:"piecewise-rate completion matches integration"
    ~count:150
    (QCheck.make
       ~print:(fun (w, bps) ->
         Printf.sprintf "work=%d bps=%s" w
           (String.concat ";"
              (List.map (fun (t, m) -> Printf.sprintf "(%d,%d/4)" t m) bps)))
       QCheck.Gen.(
         let* w = int_range 1 12 in
         let* n = int_range 1 4 in
         let* raw =
           list_repeat n (pair (int_range 1 40) (int_range 1 8))
         in
         (* strictly increasing breakpoint times *)
         let _, bps =
           List.fold_left
             (fun (t, acc) (dt, m) -> (t + dt, (t + dt, m) :: acc))
             (0, []) raw
         in
         return (w, List.rev bps)))
    (fun (w, bps) ->
      let p =
        Platform.create ~names:[| "A" |] ~weights:[| E.of_int 2 |] ~edges:[]
      in
      let trace = List.map (fun (t, m) -> (ri t, r m 4)) bps in
      let s = S.create ~cpu_traces:[ (0, trace) ] p in
      let finished = ref None in
      S.submit s (S.Compute (0, ri w)) ~on_done:(fun s -> finished := Some (S.now s));
      S.run s;
      match !finished with
      | None -> false
      | Some tf ->
        (* independent integration: rate = mult/2 work-units per time unit
           on each constant piece; accumulate until w is consumed *)
        let pieces =
          (R.zero, R.one)
          :: List.map (fun (t, m) -> (ri t, r m 4)) bps
        in
        let rec integrate remaining = function
          | [] -> assert false
          | [ (t0, m) ] ->
            (* last piece: runs forever *)
            R.add t0 (R.div remaining (R.div m (ri 2)))
          | (t0, m) :: ((t1, _) :: _ as rest) ->
            let rate = R.div m (ri 2) in
            let capacity = R.mul rate (R.sub t1 t0) in
            if R.Infix.(capacity >= remaining) then
              R.add t0 (R.div remaining rate)
            else integrate (R.sub remaining capacity) rest
        in
        R.equal tf (integrate (ri w) pieces))

(* --- failure layer: cancellation, outage events, stranding --- *)

(* forwarding master, two unit slaves *)
let star3 () =
  Platform.create
    ~names:[| "M"; "A"; "B" |]
    ~weights:[| E.inf; E.of_int 1; E.of_int 1 |]
    ~edges:[ (0, 1, ri 1); (0, 2, ri 1) ]

let test_cancel_running () =
  let s = S.create (star3 ()) in
  let reason = ref None in
  let id =
    S.submit_op s (S.Transfer (0, ri 4))
      ~on_cancel:(fun _ rsn -> reason := Some rsn)
  in
  (* queued behind the master's send port *)
  S.submit s (S.Transfer (1, ri 1));
  S.at s (ri 2) (fun s -> Alcotest.(check bool) "cancel hits" true (S.cancel s id));
  S.run s;
  Alcotest.(check bool) "on_cancel fired" true (!reason = Some S.Cancelled);
  Alcotest.check rat "partial progress discarded" R.zero (S.transferred s 0);
  Alcotest.check rat "queued op freed and completed" (ri 1) (S.transferred s 1);
  (* cancelled at t=2 with 2 of 4 units left *)
  (match S.cancelled_ops s with
  | [ c ] ->
    Alcotest.check rat "remaining" (ri 2) c.S.c_remaining;
    Alcotest.check rat "time" (ri 2) c.S.c_time
  | l -> Alcotest.failf "expected 1 cancellation, got %d" (List.length l));
  (* the id is dead now *)
  Alcotest.(check bool) "second cancel is a no-op" false (S.cancel s id);
  Alcotest.check rat "send port busy while it ran" (ri 3)
    (S.busy_time s (S.Send 0))

let test_outage_events () =
  let p =
    Platform.create ~names:[| "A" |] ~weights:[| E.of_int 2 |] ~edges:[]
  in
  (* down at 2, back at 5, mere slowdown at 7 (no event) *)
  let s =
    S.create ~cpu_traces:[ (0, [ (ri 2, R.zero); (ri 5, R.one); (ri 7, r 1 2) ]) ] p
  in
  let events = ref [] in
  S.on_outage s (fun t out -> events := (S.now t, out) :: !events);
  S.submit s (S.Compute (0, ri 10));
  S.run s;
  (match List.rev !events with
  | [ (t1, o1); (t2, o2) ] ->
    Alcotest.check rat "outage at 2" (ri 2) t1;
    Alcotest.(check bool) "subject" true (o1.S.out_subject = S.Cpu_of 0);
    Alcotest.check rat "went to 0" R.zero o1.S.out_multiplier;
    Alcotest.check rat "was nominal" R.one o1.S.out_was;
    Alcotest.check rat "recovery at 5" (ri 5) t2;
    Alcotest.check rat "back to 1" R.one o2.S.out_multiplier;
    Alcotest.check rat "was 0" R.zero o2.S.out_was
  | l -> Alcotest.failf "expected 2 outage events, got %d" (List.length l));
  Alcotest.check rat "multiplier_of after the end" (r 1 2)
    (S.multiplier_of s (S.Cpu_of 0))

let test_trace_multiplier () =
  let tr = [ (ri 2, r 1 2); (ri 5, R.zero) ] in
  Alcotest.check rat "before" R.one (S.trace_multiplier tr R.one);
  Alcotest.check rat "on breakpoint" (r 1 2) (S.trace_multiplier tr (ri 2));
  Alcotest.check rat "after last" R.zero (S.trace_multiplier tr (ri 9))

(* regression: a permanent outage used to leave queued ops stranded in
   the pending list forever, invisible unless the caller polled
   [pending_ops]; [run] must cancel them through the outage path *)
let test_full_outage_no_recovery () =
  let s = S.create ~bw_traces:[ (0, [ (ri 1, R.zero) ]) ] (star3 ()) in
  let reasons = ref [] in
  ignore
    (S.submit_op s (S.Transfer (0, ri 5))
       ~on_cancel:(fun _ rsn -> reasons := rsn :: !reasons));
  (* queued behind the doomed transfer's send port, but on a live link:
     stranding the first op must let this one run to completion *)
  S.submit s (S.Transfer (1, ri 1));
  S.run s;
  Alcotest.(check bool) "stranded" true (!reasons = [ S.Stranded ]);
  Alcotest.check rat "doomed transfer not credited" R.zero (S.transferred s 0);
  Alcotest.check rat "live transfer completed" (ri 1) (S.transferred s 1);
  Alcotest.(check int) "nothing pending" 0 (S.pending_ops s);
  Alcotest.(check int) "nothing running" 0 (S.running_ops s);
  (match S.cancelled_ops s with
  | [ c ] ->
    (* 1 of 5 units transferred before the cut at t=1 *)
    Alcotest.check rat "remaining" (ri 4) c.S.c_remaining;
    Alcotest.check rat "stranded at the cut" (ri 1) c.S.c_time
  | l -> Alcotest.failf "expected 1 cancellation, got %d" (List.length l))

let test_dead_from_start () =
  (* multiplier 0 from t=0 with no recovery: [run] must terminate and
     report, not spin or strand silently *)
  let s = S.create ~bw_traces:[ (0, [ (R.zero, R.zero) ]) ] (star3 ()) in
  S.submit s (S.Transfer (0, ri 2));
  S.submit s (S.Transfer (0, ri 3));
  S.run s;
  Alcotest.(check int) "both reported" 2 (List.length (S.cancelled_ops s));
  Alcotest.(check int) "nothing pending" 0 (S.pending_ops s);
  Alcotest.(check int) "nothing running" 0 (S.running_ops s);
  Alcotest.check rat "nothing transferred" R.zero (S.transferred s 0)

(* --- snapshots --- *)

(* A scripted run whose callbacks are a function of their operation's
   id and kind, or of their timer's tag, so a restored simulator can be
   handed the same ones.  Every completion, timer and outage is
   logged. *)
module Script = struct
  let rec submit log s kind =
    let idr = ref (-1) in
    idr := S.submit_op s kind ~on_done:(finished log idr kind)

  and finished log idr kind s =
    log := (S.now s, Printf.sprintf "op %d" !idr) :: !log;
    match kind with
    | S.Transfer (e, x) ->
      submit log s (S.Compute (Platform.edge_dst (S.platform s) e, x))
    | S.Compute _ -> ()

  let timer log tag s =
    log := (S.now s, Printf.sprintf "timer %d" tag) :: !log;
    for _ = 1 to tag do
      submit log s (S.Transfer (0, ri 1))
    done;
    submit log s (S.Compute (0, ri tag))

  let observe log s o =
    log :=
      (S.now s, "multiplier " ^ R.to_string o.S.out_multiplier) :: !log

  let cpu_traces = [ (0, [ (ri 5, R.zero); (ri 11, R.one) ]) ]
  let bw_traces = [ (0, [ (ri 4, r 1 2); (ri 20, ri 2) ]) ]

  (* the simulator, its log, and the log's length when [cut] snapshots *)
  let start () =
    let log = ref [] in
    let s = S.create ~cpu_traces ~bw_traces (duo ()) in
    S.on_outage s (observe log);
    List.iter
      (fun (t, tag) -> S.at ~tag s (ri t) (timer log tag))
      [ (0, 2); (3, 1); (7, 3); (15, 2) ];
    (s, log)

  let restore log snap =
    S.restore ~cpu_traces ~bw_traces (duo ()) snap
      ~callbacks:(fun id kind -> (Some (finished log (ref id) kind), None))
      ~timer:(timer log)
end

let measures s =
  ( S.now s,
    List.map (S.completed_work s) [ 0; 1 ],
    List.map (S.transferred s) [ 0; 1 ],
    List.map (S.busy_time s)
      [ S.Cpu 0; S.Send 0; S.Recv 0; S.Cpu 1; S.Send 1; S.Recv 1 ] )

let drop n l = List.filteri (fun i _ -> i >= n) l

(* Snapshot a scripted run at many points — between runs, after
   [run_until], and from inside a timer whose time other queue entries
   share — restore, and continue: the restored run logs what the
   original logs after the snapshot, in the same order, and ends in the
   same state; and a restored simulator snapshots to the same data. *)
let test_snapshot_round_trip () =
  let check_from label snapshot_of =
    let s, log = Script.start () in
    let snap, mark = snapshot_of s log in
    S.run s;
    let tail = drop mark (List.rev !log) in
    let log' = ref [] in
    match Script.restore log' snap with
    | Error m -> Alcotest.failf "%s: restore refused: %s" label m
    | Ok s' ->
      Alcotest.(check bool) (label ^ ": snapshot of the restored") true
        (S.snapshot s' = snap);
      S.on_outage s' (Script.observe log');
      S.run s';
      Alcotest.(check (list (pair string string)))
        (label ^ ": the same events after the cut")
        (List.map (fun (t, x) -> (R.to_string t, x)) tail)
        (List.map (fun (t, x) -> (R.to_string t, x)) (List.rev !log'));
      Alcotest.(check bool) (label ^ ": the same end state") true
        (measures s = measures s')
  in
  List.iter
    (fun cut ->
      check_from (Printf.sprintf "run_until %s" (R.to_string cut))
        (fun s log ->
          S.run_until s cut;
          (S.snapshot s, List.length !log)))
    [ R.zero; ri 1; ri 4; ri 5; r 11 2; ri 7; ri 10; ri 11; ri 12; ri 17; ri 40 ];
  (* from inside a callback at t=7, after the timer of tag 3 and before
     the completions and timers it queues at t=7 *)
  check_from "inside a timer" (fun s log ->
      let taken = ref None in
      S.at ~tag:99 s (ri 7) (fun s -> taken := Some (S.snapshot s, List.length !log));
      S.run_until s (ri 7);
      Option.get !taken)

(* Snapshots no run of the engine leaves: [restore] names the first
   inconsistency and returns no simulator. *)
let test_restore_refuses_forged () =
  let s, _ = Script.start () in
  S.run_until s (ri 4);
  let snap = S.snapshot s in
  let running = snap.S.s_running and events = snap.S.s_events in
  let transfer =
    match List.find_opt (fun r -> match r.S.r_kind with S.Transfer _ -> true | _ -> false) running with
    | Some x -> x
    | None -> Alcotest.fail "no transfer running at t=4"
  in
  let later t = R.add t R.one in
  let cases =
    [
      ( "two running operations on one port",
        { snap with
          S.s_running =
            List.sort (fun a b -> Int.compare a.S.r_id b.S.r_id)
              ({ transfer with S.r_id = snap.S.s_next_id } :: running);
          s_next_id = snap.S.s_next_id + 1 } );
      ( "event before the clock",
        { snap with
          S.s_events =
            List.map (fun (t, ev) -> (R.sub t (ri 10), ev)) events } );
      ( "completion at the wrong time",
        { snap with
          S.s_events =
            List.map
              (fun (t, ev) ->
                match ev with S.Q_complete _ -> (later t, ev) | _ -> (t, ev))
              events } );
      ( "a breakpoint is missing",
        { snap with
          S.s_events =
            List.filter
              (fun (_, ev) -> match ev with S.Q_breakpoint _ -> false | _ -> true)
              events } );
      ( "node off the platform",
        { snap with
          S.s_nodes =
            List.map
              (fun n -> if n.S.n_node = 1 then { n with S.n_node = 2 } else n)
              snap.S.s_nodes } );
      ( "a queued operation could start",
        { snap with
          S.s_running = List.filter (fun r -> r != transfer) running;
          s_queued = { S.q_id = transfer.S.r_id; q_kind = transfer.S.r_kind } :: snap.S.s_queued } );
    ]
  in
  List.iter
    (fun (what, forged) ->
      match Script.restore (ref []) forged with
      | Ok _ -> Alcotest.failf "%s: restored" what
      | Error m -> Alcotest.(check string) what what m)
    cases;
  (* taken inside a completion, before the engine starts what it
     unblocked: the transfer queued behind it could start *)
  let s = S.create (duo ()) in
  let taken = ref None in
  S.submit s (S.Transfer (0, ri 1)) ~on_done:(fun s -> taken := Some (S.snapshot s));
  S.submit s (S.Transfer (0, ri 1));
  S.run s;
  match
    S.restore (duo ()) (Option.get !taken)
      ~callbacks:(fun _ _ -> (None, None))
      ~timer:(fun _ _ -> ())
  with
  | Ok _ -> Alcotest.fail "inside a completion: restored"
  | Error m ->
    Alcotest.(check string) "inside a completion" "a queued operation could start" m

let suite =
  let q = QCheck_alcotest.to_alcotest in
  ( "sim",
    [
      Alcotest.test_case "compute timing" `Quick test_compute_timing;
      Alcotest.test_case "transfer timing" `Quick test_transfer_timing;
      Alcotest.test_case "full overlap" `Quick test_full_overlap;
      Alcotest.test_case "one-port queuing" `Quick test_one_port_queuing;
      Alcotest.test_case "strict conflicts" `Quick test_strict_conflict;
      Alcotest.test_case "FIFO order" `Quick test_fifo_order;
      Alcotest.test_case "timers and chaining" `Quick test_timers_and_chaining;
      Alcotest.test_case "run_until" `Quick test_run_until;
      Alcotest.test_case "zero work" `Quick test_zero_work;
      Alcotest.test_case "invalid submissions" `Quick test_invalid_submissions;
      Alcotest.test_case "cpu slowdown trace" `Quick test_cpu_slowdown_trace;
      Alcotest.test_case "outage trace" `Quick test_outage_trace;
      Alcotest.test_case "speedup trace" `Quick test_speedup_trace;
      Alcotest.test_case "trace validation" `Quick test_trace_validation;
      Alcotest.test_case "cancel running op" `Quick test_cancel_running;
      Alcotest.test_case "outage events" `Quick test_outage_events;
      Alcotest.test_case "trace_multiplier" `Quick test_trace_multiplier;
      Alcotest.test_case "full outage, no recovery" `Quick
        test_full_outage_no_recovery;
      Alcotest.test_case "dead from start" `Quick test_dead_from_start;
      Alcotest.test_case "snapshot round trip" `Quick test_snapshot_round_trip;
      Alcotest.test_case "restore refuses forged state" `Quick
        test_restore_refuses_forged;
      q prop_single_resource_serialises;
      q prop_parallel_edges_overlap;
      q prop_trace_integration;
    ] )
