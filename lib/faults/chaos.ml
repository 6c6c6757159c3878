module R = Rat
module P = Platform
module Dy = Dynamic_sched

type violation = { v_plan : string; v_what : string }

type summary = {
  plans : int;
  runs : int;
  outage_plans : int;
  slowdown_plans : int;
  violations : violation list;
  effort : Lp.Stats.t;
}

let ri = R.of_int
let rr = R.of_ints

(* ---- campaign axes ------------------------------------------------- *)

(* The shape axis spans the executor's whole routing range: star
   families (slave count, heterogeneity, computing master — the
   single-hop regime), random trees (every delivery is a multi-hop
   relay chain) and random connected general graphs (cycles, multiple
   routes between the master and a consumer).  Weights/costs — and for
   the seeded generators the platform seed itself — are drawn from the
   same seeded stream as the fault plan, so every (seed, shape) pair is
   a different platform. *)
let shapes = [ "star3"; "star5m"; "star8"; "tree6"; "tree9"; "graph8" ]

let make_shape g name =
  let pick_w () = Ext_rat.of_int (1 + Faults.rand_int g 4) in
  let pick_c () = rr (1 + Faults.rand_int g 3) (1 + Faults.rand_int g 2) in
  let slaves k = List.init k (fun _ -> (pick_w (), pick_c ())) in
  let pseed () = 1 + Faults.rand_int g 1_000_000 in
  match name with
  | "star3" -> Platform_gen.star ~master_weight:Ext_rat.inf ~slaves:(slaves 3) ()
  | "star5m" ->
    (* computing master: master work competes with its own port *)
    Platform_gen.star ~master_weight:(Ext_rat.of_int 2) ~slaves:(slaves 5) ()
  | "star8" -> Platform_gen.star ~master_weight:Ext_rat.inf ~slaves:(slaves 8) ()
  | "tree6" -> Platform_gen.random_tree ~seed:(pseed ()) ~nodes:6 ()
  | "tree9" ->
    (* capped degree: deeper, more path-like — longer relay chains *)
    Platform_gen.random_tree ~seed:(pseed ()) ~nodes:9 ~max_degree:3 ()
  | "graph8" ->
    Platform_gen.random_connected_graph ~seed:(pseed ()) ~nodes:8
      ~extra_edges:3 ()
  | _ -> invalid_arg "Chaos: unknown shape"

let families =
  [ "mixed"; "storm"; "cascade"; "partition"; "master_cut"; "slowdown" ]

let phase = ri 10
let phases = 8
let horizon = R.mul (ri phases) phase

(* grid-aligned window strictly inside the horizon *)
let random_window g =
  let k1 = 1 + Faults.rand_int g (phases - 2) in
  let k2 = k1 + 1 + Faults.rand_int g (phases - k1 - 1) in
  let until = if Faults.rand_int g 3 = 0 then None else Some (R.mul (ri k2) phase) in
  { Faults.from = R.mul (ri k1) phase; until }

let slow_factor g =
  match Faults.rand_int g 3 with
  | 0 -> rr 1 2
  | 1 -> rr 1 3
  | _ -> rr 3 4

(* outage-free plan: slowdowns only, so Reactive/Oracle run too *)
let slowdown_plan g p density =
  List.init density (fun _ ->
      let w = random_window g in
      if Faults.rand_int g 2 = 0 then
        Faults.Cpu_slow (Faults.rand_int g (P.num_nodes p), w, slow_factor g)
      else
        Faults.Link_slow (Faults.rand_int g (P.num_edges p), w, slow_factor g))

let make_plan g family p density =
  let rp faults =
    Faults.random_plan g p ~master:0 ~horizon ~align:phase ~faults
  in
  match family with
  | "mixed" -> rp density
  | "storm" ->
    (* extra link cuts deliberately OFF the phase grid (half-phase
       offsets): in-flight transfers die mid-phase, which is what
       drives the boundary-cancellation + exponential-backoff retry
       machinery.  CPU faults stay grid-aligned so the capacity bound
       below remains exact. *)
    let half = R.div phase (ri 2) in
    (* cut task-carrying links (master out-edges), so some cuts land on
       links with transfers actually in flight *)
    let master_out =
      List.filter (fun e -> P.edge_src p e = 0) (P.edges p) |> Array.of_list
    in
    let offgrid =
      List.init density (fun _ ->
          let k1 = 1 + Faults.rand_int g ((2 * (phases - 2)) - 1) in
          let k2 = k1 + 1 + Faults.rand_int g ((2 * (phases - 1)) - k1) in
          let until =
            if Faults.rand_int g 3 = 0 then None
            else Some (R.mul (ri k2) half)
          in
          Faults.Link_cut
            ( master_out.(Faults.rand_int g (Array.length master_out)),
              { Faults.from = R.mul (ri k1) half; until } ))
    in
    offgrid @ rp density
  | "cascade" ->
    Faults.cascading_slowdown p ~master:0 ~at:phase ~step:phase ~factor:(rr 1 2)
    @ rp (max 1 (density / 2))
  | "partition" ->
    let root = 1 + Faults.rand_int g (P.num_nodes p - 1) in
    Faults.subtree_partition p ~master:0 ~root ~at:(R.mul (ri 2) phase)
      ~until:(R.mul (ri 5) phase) ()
    @ rp (max 1 (density / 2))
  | "master_cut" ->
    (* the unsurvivable stretch: master isolated for three phases, then
       everything recovers — degraded epochs plus re-expansion *)
    Faults.master_adjacent_cut p ~master:0 ~at:(R.mul (ri 3) phase)
      ~until:(R.mul (ri 6) phase) ()
    @ rp (max 1 (density / 2))
  | "slowdown" -> slowdown_plan g p density
  | _ -> invalid_arg "Chaos: unknown family"

let outage_free =
  List.for_all (function
    | Faults.Cpu_slow _ | Faults.Link_slow _ -> true
    | Faults.Node_crash _ | Faults.Cpu_crash _ | Faults.Link_cut _ -> false)

(* ---- invariants ---------------------------------------------------- *)

(* Sound physics bound for arbitrary churn: total completed work cannot
   exceed the summed per-epoch CPU capacity (multiplier-scaled speeds).
   The tighter per-epoch LP bound ({!Dy.fault_throughput_bound}) is NOT
   a valid cross-epoch invariant — task files delivered during a fast
   epoch are legitimately computed during a later comm-limited one, so
   a slowdown wave followed by recovery beats the summed LP optima —
   which is why the curated single-fault scenarios assert it but the
   fuzzer cannot.  Multipliers are grid-aligned (every fault window sits
   on phase boundaries), so sampling at each phase start is exact. *)
let capacity_bound p faults =
  let total = ref R.zero in
  for k = 0 to phases - 1 do
    let t0 = R.mul (ri k) phase in
    List.iter
      (fun i ->
        let s = P.speed p i in
        if R.sign s > 0 then
          let m = Faults.multiplier p faults (Event_sim.Cpu_of i) t0 in
          total := R.add !total (R.mul phase (R.mul m s)))
      (P.nodes p)
  done;
  !total

let check plan what cond violations =
  if not cond then violations := { v_plan = plan; v_what = what } :: !violations

(* ---- crash-recovery scratch space ----------------------------------- *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Sys.rmdir path with Sys_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()

(* scratch base is overridable so CI can point it at a workspace path
   and upload the kept stores as failure artifacts *)
let fresh_ckpt_dir =
  let ctr = ref 0 in
  fun () ->
    incr ctr;
    let base =
      match Sys.getenv_opt "STEADY_CHAOS_CKPT_DIR" with
      | Some d -> d
      | None -> Filename.get_temp_dir_name ()
    in
    Filename.concat base
      (Printf.sprintf "steady-chaos-ckpt-%d-%d" (Unix.getpid ()) !ctr)

let check_accounting plan label (o : Dy.outcome) violations =
  check plan
    (Printf.sprintf "%s: per-phase entries %d <> phases %d" label
       (List.length o.Dy.per_phase) phases)
    (List.length o.Dy.per_phase = phases)
    violations;
  check plan
    (Printf.sprintf "%s: per-phase sum <> completed" label)
    (R.equal (R.sum o.Dy.per_phase) o.Dy.completed)
    violations;
  let l = o.Dy.losses in
  check plan
    (Printf.sprintf "%s: loss accounting %d <> %d+%d" label
       l.Dy.cancelled_transfers l.Dy.retries l.Dy.lost_tasks)
    (l.Dy.cancelled_transfers = l.Dy.retries + l.Dy.lost_tasks)
    violations

(* ---- driver -------------------------------------------------------- *)

let run_plan ~plan ~g ~family ~shape ~density ~effort ~runs ~violations =
  let p = make_shape g shape in
  let faults = make_plan g family p density in
  Faults.validate p faults;
  let cpu_traces, bw_traces = Faults.traces p faults in
  let sc =
    { Dy.platform = p; master = 0; cpu_traces; bw_traces; phase; phases }
  in
  (* the nominal master-slave LP must carry an exact optimality
     certificate; it is solved outside [effort], which counts the
     strategy runs only *)
  (match Master_slave.solve_lp_only p ~master:0 with
  | m, Lp.Optimal sol -> (
    match Lp.certify m sol with
    | Ok () -> ()
    | Error e -> check plan ("LP certificate: " ^ e) false violations)
  | _, (Lp.Infeasible | Lp.Unbounded) ->
    check plan "LP certificate: nominal LP not optimal" false violations);
  let run ?stats strategy =
    incr runs;
    Dy.run ?stats sc strategy
  in
  let robust_r = run ~stats:effort Dy.Robust in
  let static_r = run Dy.Static in
  let cap = capacity_bound p faults in
  (* Robust must stay within a pipeline's worth of Static's throughput.
     The exact [Robust >= Static] does NOT hold at a finite horizon: the
     LP extras beyond the static floor are submitted after each
     boundary's floor batch, but the one-port queue is non-preemptive,
     so extras queued at boundary [k] can delay boundary [k+1]'s floor
     deliveries — and the horizon cutoff then strands a sliver of
     floor supply in flight.  On a star that truncation artefact is
     bounded by what Static moves in a single phase; on multi-hop
     shapes a file crosses up to [depth] links store-and-forward, so
     up to [depth] phases of floor supply can sit in the relay
     pipeline when the horizon cuts.  In steady state (and in the
     curated [test_dynamic] scenarios) the exact dominance holds. *)
  let depth = max 1 (P.depth_from p 0) in
  let slack =
    R.mul (ri depth)
      (List.fold_left
         (fun a x -> if R.compare x a > 0 then x else a)
         R.zero static_r.Dy.per_phase)
  in
  let static_floor = R.sub static_r.Dy.completed slack in
  check plan
    (Printf.sprintf "Robust %s trails Static %s by over a phase"
       (R.to_string robust_r.Dy.completed)
       (R.to_string static_r.Dy.completed))
    (R.compare robust_r.Dy.completed static_floor >= 0)
    violations;
  check plan "Robust exceeds the CPU capacity bound"
    (R.compare robust_r.Dy.completed cap <= 0)
    violations;
  check_accounting plan "Robust" robust_r violations;
  check plan "Static reports losses"
    (static_r.Dy.losses = Dy.no_losses)
    violations;
  check_accounting plan "Static" static_r violations;
  (* crash injection + recovery: kill a checkpointed run at a
     seeded epoch (the halt hook fires exactly where a [kill -9]
     would land — after that boundary's checkpoint commit), resume
     from disk, and certify the stitched outcome bit-identical to the
     uninterrupted run above *)
  let halt = 1 + Faults.rand_int g (phases - 1) in
  let ckdir = fresh_ckpt_dir () in
  let checkpoint = { Dy.Checkpoint.dir = ckdir; every = 1 } in
  let violations_before = List.length !violations in
  (match
     ( incr runs;
       Dy.run ~checkpoint ~halt_at:halt sc Dy.Robust )
   with
  | _ ->
    check plan
      (Printf.sprintf "kill@%d: halt hook did not fire" halt)
      false violations
  | exception Dy.Checkpoint.Halted h ->
    check plan
      (Printf.sprintf "kill@%d: halted at the wrong epoch %d" halt h)
      (h = halt) violations;
    incr runs;
    let resumed, from = Dy.resume ~checkpoint sc in
    check plan
      (Printf.sprintf "kill@%d: resume did not pick up the checkpoint" halt)
      (from = Some halt) violations;
    check plan
      (Printf.sprintf "kill@%d: resumed outcome differs from uninterrupted"
         halt)
      (Dy.outcomes_equal resumed robust_r)
      violations
  | exception exn ->
    check plan
      ("kill: unexpected exception " ^ Printexc.to_string exn)
      false violations);
  (* a failed recovery check keeps its checkpoint store on disk — the
     exact record that misbehaved is the bug report *)
  if List.length !violations = violations_before then rm_rf ckdir
  else
    check plan
      ("kill: checkpoint store kept for inspection at " ^ ckdir)
      false violations;
  let slowdown_only = outage_free faults in
  if slowdown_only then begin
    let reactive = run ~stats:effort Dy.Reactive in
    let oracle = run Dy.Oracle in
    let ob = Dy.oracle_throughput_bound sc in
    List.iter
      (fun (label, (o : Dy.outcome)) ->
        check plan
          (label ^ " exceeds the oracle throughput bound")
          (R.compare o.Dy.completed ob <= 0)
          violations;
        check_accounting plan label o violations)
      [
        ("Static", static_r);
        ("Reactive", reactive);
        ("Oracle", oracle);
        ("Robust", robust_r);
      ];
    (* the fault-blind strategies never look at the failure state *)
    List.iter
      (fun (label, (o : Dy.outcome)) ->
        check plan (label ^ " reports losses")
          (o.Dy.losses = Dy.no_losses)
          violations)
      [ ("Reactive", reactive); ("Oracle", oracle) ]
  end;
  slowdown_only

let run_campaign ?(smoke = false) ?shapes:(axis = shapes) ~seed () =
  (* every name is checked before any plan runs, so a typo is one
     error rather than a violation per plan *)
  List.iter
    (fun name ->
      if not (List.mem name shapes) then
        invalid_arg
          (Printf.sprintf "Chaos: unknown shape %S (known: %s)" name
             (String.concat ", " shapes)))
    axis;
  let densities = if smoke then [ 4 ] else [ 2; 5; 9 ] in
  let subseeds = if smoke then [ 1 ] else [ 1; 2; 3; 4 ] in
  let plans = ref 0 and runs = ref 0 in
  let outage_plans = ref 0 and slowdown_plans = ref 0 in
  let violations = ref [] in
  let effort = Lp.Stats.create () in
  List.iteri
    (fun fi family ->
      List.iteri
        (fun si shape ->
          List.iter
            (fun density ->
              List.iter
                (fun sub ->
                  let plan =
                    Printf.sprintf "%s/%s/d%d/s%d" family shape density sub
                  in
                  let mix =
                    (((seed * 31) + fi) * 31 + si) * 31 + (density * 7) + sub
                  in
                  let g = Faults.generator ~seed:(1 + abs mix) in
                  incr plans;
                  match
                    run_plan ~plan ~g ~family ~shape ~density ~effort ~runs
                      ~violations
                  with
                  | true -> incr slowdown_plans
                  | false -> incr outage_plans
                  | exception exn ->
                    violations :=
                      {
                        v_plan = plan;
                        v_what = "exception: " ^ Printexc.to_string exn;
                      }
                      :: !violations)
                subseeds)
            densities)
        axis)
    families;
  {
    plans = !plans;
    runs = !runs;
    outage_plans = !outage_plans;
    slowdown_plans = !slowdown_plans;
    violations = List.rev !violations;
    effort;
  }

let pp_summary ppf s =
  Format.fprintf ppf
    "chaos campaign: %d plans (%d with outages, %d slowdown-only), %d runs, \
     %d violations@."
    s.plans s.outage_plans s.slowdown_plans s.runs
    (List.length s.violations);
  Format.fprintf ppf
    "effort: solves=%d pivots=%d retries=%d backoff_time=%a@."
    s.effort.Lp.Stats.solves s.effort.Lp.Stats.pivots
    s.effort.Lp.Stats.retries R.pp
    s.effort.Lp.Stats.backoff_time;
  List.iter
    (fun v -> Format.fprintf ppf "VIOLATION %s: %s@." v.v_plan v.v_what)
    s.violations
