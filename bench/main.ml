(* Benchmark harness.

   Part 1 regenerates every experiment table (E1-E17, the paper's
   figures and claims — see DESIGN.md for the index).

   Part 2 is the timing suite (bechamel):
   - E13: LP solve + reconstruction wall-clock vs platform size — the
     paper's polynomiality claim;
   - the matching-peeling (edge colouring) cost;
   - substrate costs: bignum arithmetic, rational arithmetic on both
     representation paths, simulator event processing, tree enumeration.

   Part 2.5 measures the solve cache: the E10 dynamic workload
   (Reactive + Oracle, 32 phases) plus its oracle throughput bound,
   cold vs cached.
   Every accelerated run is checked against the cold objectives before
   its time is recorded — a fast wrong answer never lands in the JSON.

   Part 2.6 measures the persistent solve store: a populate pass
   (write-through), a second pass with a fresh handle and empty memory
   cache (a stand-in for a second process — every solve must come off
   disk, bit-identical), and a corruption pass that flips a byte in
   every record and requires quarantine + cold re-solve, never an
   exception or a changed objective.  [--cache-dir DIR] (or
   [STEADY_CACHE_DIR]) points the suite at a persistent directory so
   successive bench runs really do share solves; by default a temp
   directory is used and removed.

   Part 3 is the Domain-pool sweep: the independent E13 LP solves and
   the E1-E17 battery, each run once on a sequential pool and once on a
   pool of [max 1 (recommended_domain_count - 1)] workers, so the
   parallel speedup (or lack of it, on a single-core box) is measured
   rather than assumed.

   Every timed row also lands in a machine-readable snapshot
   (BENCH_steady.json by default, [--json PATH] to override) so the perf
   trajectory is trackable across PRs.  [--tables-only] prints part 1
   plus the colouring ablation and exits — that mode is what the
   [@bench-tables] dune alias runs.  [--smoke] executes every workload
   body exactly once with reduced sizes and no bechamel sampling or
   JSON write — that mode is wired into the default [runtest] alias so
   tier-1 both compiles and runs this file. *)

open Bechamel
open Toolkit

module R = Rat

(* --- part 1: tables --- *)

let print_tables () =
  print_endline "########## experiment tables (E1-E17) ##########\n";
  List.iter
    (fun t ->
      print_string (Exp_common.render t);
      print_newline ())
    (Experiments.all ())

(* --- part 2: timed benchmarks --- *)

let sized_platform n =
  Platform_gen.random_graph ~seed:(97 + n) ~nodes:n ~extra_edges:(n / 2) ()

(* Workload setup (platform generation, reference solves) happens when
   this list is built, not at module load: [--tables-only] never pays
   for it, and [--smoke] builds it exactly once. *)
let timed_workloads () : (string * (unit -> unit)) list =
  let ms_lp n =
    let p = sized_platform n in
    ( Printf.sprintf "E13/master-slave LP n=%d" n,
      fun () -> ignore (Master_slave.solve p ~master:0) )
  in
  let scatter_lp n =
    let p = sized_platform n in
    let targets = [ 1; n - 1 ] in
    ( Printf.sprintf "E13/scatter LP n=%d" n,
      fun () -> ignore (Scatter.solve p ~source:0 ~targets) )
  in
  let reconstruction n =
    let p = sized_platform n in
    let sol = Master_slave.solve p ~master:0 in
    ( Printf.sprintf "E13/reconstruction n=%d" n,
      fun () -> ignore (Master_slave.schedule sol) )
  in
  let tableau =
    let p = sized_platform 12 in
    let model, _ = Master_slave.solve_lp_only p ~master:0 in
    ( "ablation/solver tableau n=12",
      fun () ->
        match Lp.solve model with
        | Lp.Optimal _ -> ()
        | Lp.Infeasible | Lp.Unbounded -> assert false )
  in
  let coloring =
    let st = Random.State.make [| 5 |] in
    let edges =
      List.init 40 (fun tag ->
          {
            Bipartite_coloring.left = Random.State.int st 8;
            right = Random.State.int st 8;
            weight = R.of_ints (1 + Random.State.int st 16) 4;
            tag;
          })
    in
    ( "substrate/edge colouring 8x8x40",
      fun () ->
        ignore (Bipartite_coloring.decompose ~left_size:8 ~right_size:8 edges)
    )
  in
  let simulator =
    let p = Platform_gen.figure1 () in
    let sol = Master_slave.solve p ~master:0 in
    let sched = Master_slave.schedule sol in
    ( "substrate/simulate 10 periods (fig 1)",
      fun () ->
        let sim = Event_sim.create p in
        Schedule.execute ~sim ~periods:10 sched;
        Event_sim.run sim )
  in
  let bigint =
    let a = Bigint.of_string (String.make 60 '7') in
    let b = Bigint.of_string (String.make 37 '3') in
    ( "substrate/bigint divmod 200x120 bits",
      fun () -> ignore (Bigint.divmod a b) )
  in
  let karatsuba =
    let huge = Bigint.of_string (String.make 6000 '8') in
    ( "substrate/mul 20k bits (karatsuba)",
      fun () -> ignore (Bigint.mul huge huge) )
  in
  let schoolbook =
    let huge = Bigint.of_string (String.make 6000 '8') in
    ( "substrate/mul 20k bits (schoolbook)",
      fun () -> ignore (Bigint.mul_schoolbook huge huge) )
  in
  let rat_small =
    let x = R.of_ints 355 113 and y = R.of_ints 103993 33102 in
    ( "substrate/rat mul+add (small path)",
      fun () -> ignore (R.add (R.mul x y) (R.div x y)) )
  in
  let rat_big =
    (* denominators past 2^62 pin both operands to the Bigint path *)
    let big = R.make Bigint.one (Bigint.pow Bigint.two 80) in
    let x = R.add (R.of_ints 355 113) big
    and y = R.add (R.of_ints 103993 33102) big in
    assert ((not (R.fits_small x)) && not (R.fits_small y));
    ( "substrate/rat mul+add (bigint path)",
      fun () -> ignore (R.add (R.mul x y) (R.div x y)) )
  in
  let trees =
    let p, src, targets = Platform_gen.multicast_fig2 () in
    ( "substrate/multicast tree enumeration (fig 2)",
      fun () -> ignore (Multicast.enumerate_trees p ~source:src ~targets) )
  in
  [
    ms_lp 6; ms_lp 10; ms_lp 14; ms_lp 17; ms_lp 20;
    scatter_lp 6; scatter_lp 10;
    reconstruction 6; reconstruction 10;
    tableau;
    coloring; simulator; bigint; karatsuba; schoolbook;
    rat_small; rat_big; trees;
  ]

let run_benchmarks () =
  print_endline "########## timing suite (bechamel) ##########\n";
  let all_tests =
    Test.make_grouped ~name:"steady" ~fmt:"%s %s"
      (List.map
         (fun (name, fn) -> Test.make ~name (Staged.stage fn))
         (timed_workloads ()))
  in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg [ instance ] all_tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let time_ns =
          match Analyze.OLS.estimates ols with
          | Some [ t ] -> t
          | Some _ | None -> nan
        in
        (name, time_ns) :: acc)
      results []
  in
  let rows = List.sort compare rows in
  List.iter
    (fun (name, t) ->
      if t >= 1e6 then Printf.printf "%-48s %10.3f ms/run\n" name (t /. 1e6)
      else if t >= 1e3 then Printf.printf "%-48s %10.3f us/run\n" name (t /. 1e3)
      else Printf.printf "%-48s %10.0f ns/run\n" name t)
    rows;
  rows

(* --- shared wall-clock helpers --- *)

let wall_ns f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1e9)

let best_of ~runs f =
  (* a compacted heap before each workload keeps the wall-clock rows
     comparable regardless of what ran earlier in the process *)
  Gc.compact ();
  let result, ns = wall_ns f in
  let best = ref ns in
  for _ = 2 to runs do
    let _, ns = wall_ns f in
    if ns < !best then best := ns
  done;
  (result, !best)

let record rows name ns =
  rows := (name, ns) :: !rows;
  if ns >= 1e6 then Printf.printf "%-56s %10.3f ms wall\n" name (ns /. 1e6)
  else Printf.printf "%-56s %10.3f us wall\n" name (ns /. 1e3)

(* exact-effort annotations: rows solved with an [Lp.Stats] counter
   attached also land their solve/pivot/refactorisation counts — and,
   since schema 4, the reconstruction effort (cycles cancelled by
   search, matchings repaired vs rebuilt, slots reused; schema 5 adds
   warm-served delay vectors; schema 6 the churn counters: repair
   budgets exceeded, transfer retries and total backoff time; schema 7
   the guarded recovery/ rows: checkpointed and resumed robust runs;
   schema 8 drops the LP warm-start rows and counters) — in
   the JSON, so effort regressions show up even when wall-clock noise
   hides them *)
let effort_rows : (string, Lp.Stats.t) Hashtbl.t = Hashtbl.create 16

let record_effort name (st : Lp.Stats.t) =
  Hashtbl.replace effort_rows name st;
  Printf.printf "%-56s %10s\n" name
    (Printf.sprintf "%d solves, %d pivots, %d refactors" st.Lp.Stats.solves
       st.Lp.Stats.pivots st.Lp.Stats.refactors);
  if
    st.Lp.Stats.matchings_repaired + st.Lp.Stats.matchings_rebuilt
    + st.Lp.Stats.slots_reused + st.Lp.Stats.delays_reused > 0
  then
    Printf.printf "%-56s %10s\n" name
      (Printf.sprintf
         "%d cycles, %d repaired, %d rebuilt, %d slots, %d delays reused"
         st.Lp.Stats.cycles_cancelled st.Lp.Stats.matchings_repaired
         st.Lp.Stats.matchings_rebuilt st.Lp.Stats.slots_reused
         st.Lp.Stats.delays_reused);
  if
    st.Lp.Stats.repairs_budget_exceeded + st.Lp.Stats.retries > 0
    || R.sign st.Lp.Stats.backoff_time > 0
  then
    Printf.printf "%-56s %10s\n" name
      (Printf.sprintf "%d budgets exceeded, %d retries, backoff %s"
         st.Lp.Stats.repairs_budget_exceeded st.Lp.Stats.retries
         (R.to_string st.Lp.Stats.backoff_time))

(* --- cache / warm statistics, aggregated across the whole run --- *)

(* every suite that creates an [Lp.Cache], a disk store or a
   [Reconstruct.Warm] slot notes it here once it is done with it; the
   totals land in the JSON snapshot so reuse rates are trackable across
   PRs *)
let stats_cache_hits = ref 0
let stats_cache_misses = ref 0
let stats_cache_evictions = ref 0
let stats_disk_hits = ref 0
let stats_disk_stores = ref 0
let stats_disk_evictions = ref 0
let stats_quarantined = ref 0
let stats_recon_hits = ref 0
let stats_recon_misses = ref 0

let note_cache c =
  stats_cache_hits := !stats_cache_hits + Lp.Cache.hits c;
  stats_cache_misses := !stats_cache_misses + Lp.Cache.misses c;
  stats_cache_evictions := !stats_cache_evictions + Lp.Cache.evictions c;
  stats_disk_hits := !stats_disk_hits + Lp.Cache.disk_hits c

let note_store s =
  stats_disk_stores := !stats_disk_stores + Lp.Cache.Disk.stores s;
  stats_disk_evictions := !stats_disk_evictions + Lp.Cache.Disk.evictions s;
  stats_quarantined := !stats_quarantined + Lp.Cache.Disk.quarantined s

let note_recon w =
  stats_recon_hits := !stats_recon_hits + Reconstruct.Warm.hits w;
  stats_recon_misses := !stats_recon_misses + Reconstruct.Warm.misses w

(* --- part 2.5: solve-cache workloads --- *)

(* mildly perturbed copy of [p]: every finite node weight divided by
   [cpu], every edge cost divided by [bw] — the same transformation
   Dynamic_sched applies per phase: same structure, nearby
   coefficients *)
let scale_platform p ~cpu ~bw =
  Platform.create
    ~names:(Array.of_list (List.map (Platform.name p) (Platform.nodes p)))
    ~weights:
      (Array.of_list
         (List.map
            (fun i ->
              match Platform.weight p i with
              | Ext_rat.Inf -> Ext_rat.Inf
              | Ext_rat.Fin w -> Ext_rat.Fin (R.div w cpu))
            (Platform.nodes p)))
    ~edges:
      (List.map
         (fun e ->
           ( Platform.edge_src p e,
             Platform.edge_dst p e,
             R.div (Platform.edge_cost p e) bw ))
         (Platform.edges p))

let perturbed_platforms ~n ~k =
  let base = sized_platform n in
  List.init k (fun i ->
      scale_platform base
        ~cpu:(R.of_ints (16 + (3 * i)) 16)
        ~bw:(R.of_ints (48 - (5 * i)) 48))

let resolve_all plats =
  List.map
    (fun p -> (Master_slave.solve p ~master:0).Master_slave.ntask)
    plats

(* [p] with a link [a]-[b] both ways at cost [c], after [p]'s edges (so
   every existing edge keeps its index) *)
let with_link p a b c =
  Platform.create
    ~names:(Array.of_list (List.map (Platform.name p) (Platform.nodes p)))
    ~weights:(Array.of_list (List.map (Platform.weight p) (Platform.nodes p)))
    ~edges:
      (List.map
         (fun e ->
           (Platform.edge_src p e, Platform.edge_dst p e, Platform.edge_cost p e))
         (Platform.edges p)
      @ [ (a, b, c); (b, a, c) ])

(* E10-style dynamic scenario, larger than the E10 exemplar: a wide
   star plus one slave-slave link, several cpu and bandwidth traces
   whose joint multiplier vector cycles with period 3, so the oracle
   and the bound revisit the same few scaled platforms — the situation
   the solve cache targets — while the reactive forecasts produce fresh
   nearby LPs, which miss it.  The extra link closes a cycle: on a bare
   star the bound would take the tree closed form and never reach the
   cache. *)
let dynamic_scenario ~slaves ~phases =
  let p =
    with_link
      (Platform_gen.star ~master_weight:Ext_rat.inf
         ~slaves:
           (List.init slaves (fun i ->
                (Ext_rat.of_ints (3 + (i mod 7)) 2, R.of_ints (2 + (i mod 5)) 3)))
         ())
      1 2 R.one
  in
  let phase = R.of_int 4 in
  let cycle = [| R.one; R.of_ints 3 4; R.of_ints 1 2 |] in
  let trace offset =
    List.init (phases - 1) (fun j ->
        (R.mul (R.of_int (j + 1)) phase, cycle.((j + 1 + offset) mod 3)))
  in
  let cpu_traces =
    List.filter_map
      (fun i -> if i > 0 && i mod 2 = 1 then Some (i, trace i) else None)
      (Platform.nodes p)
  in
  let bw_traces =
    List.filter_map
      (fun e -> if e mod 3 = 0 then Some (e, trace (e + 1)) else None)
      (Platform.edges p)
  in
  { Dynamic_sched.platform = p; master = 0; cpu_traces; bw_traces; phase;
    phases }

let run_cache_suite ~smoke () =
  print_endline "\n########## solve-cache workloads ##########\n";
  let runs = if smoke then 1 else 3 in
  let rows = ref [] in
  let record = record rows in
  (* E10 dynamic run and oracle bound, cold vs cached *)
  let slaves = if smoke then 4 else 16 and phases = if smoke then 4 else 32 in
  let sc = dynamic_scenario ~slaves ~phases in
  let dyn reuse () =
    let cache = if reuse then Some (Lp.Cache.create ()) else None in
    let run s = Dynamic_sched.run ?cache ~reuse sc s in
    let re = run Dynamic_sched.Reactive in
    let o = run Dynamic_sched.Oracle in
    Option.iter note_cache cache;
    (re.Dynamic_sched.completed, o.Dynamic_sched.completed)
  in
  let e10 tail = Printf.sprintf "warm/E10 Reactive+Oracle %d phases (%s)" phases tail in
  let _, cold_ns = best_of ~runs (dyn false) in
  record (e10 "cold") cold_ns;
  let _, cache_ns = best_of ~runs (dyn true) in
  record (e10 "cache") cache_ns;
  Printf.printf "%-56s %10.2fx\n" "warm/E10 dynamic speedup" (cold_ns /. cache_ns);
  let bound tail = Printf.sprintf "warm/E10 oracle bound %d phases (%s)" phases tail in
  let b_cold, ns =
    best_of ~runs (fun () -> Dynamic_sched.oracle_throughput_bound ~reuse:false sc)
  in
  record (bound "cold") ns;
  let cold_bound_ns = ns in
  let b_cached, ns =
    best_of ~runs (fun () ->
        let cache = Lp.Cache.create () in
        let b = Dynamic_sched.oracle_throughput_bound ~cache sc in
        note_cache cache;
        b)
  in
  if not (R.equal b_cold b_cached) then
    failwith "bench: oracle bound differs between cold and cached solves";
  record (bound "cached") ns;
  Printf.printf "%-56s %10.2fx\n" "warm/E10 oracle bound speedup" (cold_bound_ns /. ns);
  List.rev !rows

(* --- part 2.6: incremental reconstruction workloads --- *)

(* [p] with one edge's cost scaled — the small per-phase rhs
   perturbation of a phased sweep *)
let scale_one_edge p victim factor =
  Platform.create
    ~names:(Array.of_list (List.map (Platform.name p) (Platform.nodes p)))
    ~weights:(Array.of_list (List.map (Platform.weight p) (Platform.nodes p)))
    ~edges:
      (List.map
         (fun e ->
           let c = Platform.edge_cost p e in
           ( Platform.edge_src p e,
             Platform.edge_dst p e,
             if e = victim then R.mul c factor else c ))
         (Platform.edges p))

(* Saturated heterogeneous star: the master's out-port is the binding
   resource and most slaves carry flow, so the schedule has on the order
   of [n] singleton communication slots — the reconstruction-heavy
   regime (a tree's knapsack plans concentrate flow on a couple of
   links, which makes the colouring trivial and the schedule layer
   nearly free).  Slave weights are matched to costs so that the
   knapsack spreads the port budget across ~3/4 of the slaves. *)
let recon_star n =
  Platform_gen.star ~master_weight:Ext_rat.inf
    ~slaves:
      (List.init (n - 1) (fun i ->
           let c = R.of_ints (3 + (i mod 5)) (2 + (i mod 3)) in
           (Ext_rat.Fin (R.mul c (R.of_ints (3 * (n - 1)) 4)), c)))
    ()

(* Reconstruction-heavy phased sweep: one platform, [phases] phases, a
   fresh small bandwidth perturbation every 4th phase and flat segments
   in between — the flat stretches are where a schedule-level warm start
   reuses the previous slots outright, the perturbed ones where it
   repairs them.  The LPs are pre-solved OUTSIDE the timed region so the
   cold and warm rows time exactly the schedule layer.  Every row is
   guarded: each warm schedule must pass strict certification (both
   checkers plus bit-identical period and per-edge volumes vs a cold
   rebuild) and match the cold throughput exactly; at n=200 the warm row
   must beat the cold row by >= 3x and stay under a hard wall-clock
   budget. *)
let run_recon_suite ~smoke () =
  print_endline
    "\n########## incremental reconstruction workloads ##########\n";
  let rows = ref [] in
  let record = record rows in
  let runs = if smoke then 1 else 3 in
  let phases = if smoke then 8 else 32 in
  List.iter
    (fun n ->
      let base = recon_star n in
      let master_out = Array.of_list (Platform.out_edges base 0) in
      let plats = Array.make phases base in
      for k = 1 to phases - 1 do
        plats.(k) <-
          (if k mod 4 = 0 then
             scale_one_edge base
               master_out.(k * 31 mod Array.length master_out)
               (R.of_ints (98 + (k mod 3)) 97)
           else plats.(k - 1))
      done;
      (* pre-solve each phase; flat segments share the solution object,
         so the timed rows see the same instance stream a phased planner
         would hand the schedule layer *)
      let sols = Array.make phases (Master_slave.solve base ~master:0) in
      for k = 1 to phases - 1 do
        sols.(k) <-
          (if plats.(k) == plats.(k - 1) then sols.(k - 1)
           else Master_slave.solve plats.(k) ~master:0)
      done;
      let label tail =
        Printf.sprintf "recon/sweep %d phases n=%d (%s)" phases n tail
      in
      let cold () =
        Array.iter (fun sol -> ignore (Master_slave.schedule sol)) sols
      in
      let warm () =
        let recon = Reconstruct.Warm.create () in
        Array.iter (fun sol -> ignore (Master_slave.schedule ~recon sol)) sols;
        recon
      in
      let (), cold_ns = best_of ~runs cold in
      record (label "cold") cold_ns;
      let last_recon, warm_ns = best_of ~runs warm in
      note_recon last_recon;
      record (label "warm") warm_ns;
      Printf.printf "%-56s %10.2fx\n"
        (Printf.sprintf "recon/speedup n=%d" n)
        (cold_ns /. warm_ns);
      (* guards, untimed: strict mode re-derives a cold schedule per
         phase and raises unless the warm one is equivalent; the
         throughput comparison is re-asserted here independently *)
      let stats = Lp.Stats.create () in
      let recon = Reconstruct.Warm.create () in
      Array.iter
        (fun sol ->
          let w = Master_slave.schedule ~recon ~strict:true ~stats sol in
          let c = Master_slave.schedule sol in
          let tp s =
            R.div (Master_slave.tasks_per_period s sol) s.Schedule.period
          in
          if not (R.equal (tp w) (tp c)) then
            failwith
              (Printf.sprintf "bench: recon n=%d: warm throughput differs" n);
          match Reconstruct.certify w with
          | Ok () -> ()
          | Error e ->
            failwith (Printf.sprintf "bench: recon n=%d: %s" n e))
        sols;
      note_recon recon;
      Printf.printf "%-56s %10s\n"
        (Printf.sprintf "recon/guard n=%d" n)
        "strict certification + throughput exact";
      record_effort (label "warm") stats;
      if stats.Lp.Stats.slots_reused = 0 then
        failwith
          (Printf.sprintf "bench: recon n=%d: warm sweep reused no slots" n);
      (* the acceptance ratio and a hard wall-clock budget, full runs
         only: the schedule-layer warm start must actually pay off *)
      if not smoke then begin
        if n = 200 && cold_ns < 3.0 *. warm_ns then
          failwith
            (Printf.sprintf
               "bench: recon n=200: warm %.1f ms vs cold %.1f ms is below \
                the 3x bar"
               (warm_ns /. 1e6) (cold_ns /. 1e6));
        let budget_ns = 30e9 in
        if cold_ns +. warm_ns > budget_ns then
          failwith
            (Printf.sprintf "bench: recon n=%d rows took %.2f s, budget %.0f s"
               n
               ((cold_ns +. warm_ns) /. 1e9)
               (budget_ns /. 1e9))
      end)
    (if smoke then [ 20 ] else [ 20; 200 ]);
  List.rev !rows

(* --- part 3: Domain-pool sweep --- *)

let sweep_sizes ~smoke =
  if smoke then [ 4; 6 ] else [ 6; 8; 10; 12; 14; 17; 20 ]

let e13_sweep ~smoke pool =
  Pool.iter pool
    (fun n -> ignore (Master_slave.solve (sized_platform n) ~master:0))
    (sweep_sizes ~smoke)

(* at least one worker even on a single-core box: the pool rows exist
   to measure pool overhead against the sequential rows, and a
   zero-worker pool degenerates to the sequential path *)
let pool_width () = max 1 (Domain.recommended_domain_count () - 1)

let run_pool_sweep ~smoke () =
  print_endline "\n########## Domain-pool sweep ##########\n";
  let rows = ref [] in
  let record = record rows in
  Pool.with_pool ~domains:0 (fun seq ->
      (* warm up (first run pays platform-RNG and allocator churn) *)
      e13_sweep ~smoke seq;
      let (), ns = wall_ns (fun () -> e13_sweep ~smoke seq) in
      record "sweep/E13 LP sweep (sequential)" ns;
      if not smoke then begin
        let _, ns = wall_ns (fun () -> Experiments.all ~pool:seq ()) in
        record "sweep/experiments E1-E17 (sequential)" ns
      end);
  Pool.with_pool ~domains:(pool_width ()) (fun pool ->
      let width = Pool.size pool in
      let (), ns = wall_ns (fun () -> e13_sweep ~smoke pool) in
      record (Printf.sprintf "sweep/E13 LP sweep (pool x%d)" width) ns;
      if not smoke then begin
        let _, ns = wall_ns (fun () -> Experiments.all ~pool ()) in
        record (Printf.sprintf "sweep/experiments E1-E17 (pool x%d)" width) ns
      end);
  List.rev !rows

(* --- part 2.6: persistent solve store --- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

(* flip one bit in the middle of the file: every record so damaged must
   fail validation (the checksum covers the payload; the header lines
   are structurally checked) *)
let flip_byte path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  if String.length s > 0 then begin
    let b = Bytes.of_string s in
    let pos = Bytes.length b / 2 in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 1));
    let oc = open_out_bin path in
    output_bytes oc b;
    close_out oc
  end

let run_disk_suite ~smoke ~cache_dir () =
  print_endline "\n########## persistent solve store (disk cache) ##########\n";
  let rows = ref [] in
  let record = record rows in
  let temp = cache_dir = None in
  let dir =
    match cache_dir with
    | Some d -> d
    | None ->
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "steady-bench-cache-%d" (Unix.getpid ()))
  in
  if temp then rm_rf dir;
  let n = if smoke then 6 else 12 and k = if smoke then 3 else 8 in
  let plats = perturbed_platforms ~n ~k in
  let reference = resolve_all plats in
  let solve_through cache =
    List.map
      (fun p -> (Master_slave.solve ~cache p ~master:0).Master_slave.ntask)
      plats
  in
  let guarded what objs =
    if not (List.for_all2 R.equal reference objs) then
      failwith ("bench: disk cache changed an objective in " ^ what)
  in
  (* pass 1: cold solves, written through to disk *)
  let store1 = Lp.Cache.Disk.open_store dir in
  let cache1 = Lp.Cache.create ~disk:store1 () in
  let objs, ns = wall_ns (fun () -> solve_through cache1) in
  guarded "populate" objs;
  record (Printf.sprintf "disk/populate %dx n=%d (write-through)" k n) ns;
  note_cache cache1;
  note_store store1;
  (* pass 2: fresh handle, empty memory cache — a second process.  On a
     persistent --cache-dir the populate pass above already hit, so the
     only hard requirement is that reuse happened at all. *)
  let store2 = Lp.Cache.Disk.open_store dir in
  let cache2 = Lp.Cache.create ~disk:store2 () in
  let objs, ns = wall_ns (fun () -> solve_through cache2) in
  guarded "disk re-solve" objs;
  record (Printf.sprintf "disk/re-solve %dx n=%d (fresh handle)" k n) ns;
  if Lp.Cache.disk_hits cache2 = 0 then
    failwith "bench: no solve was served from the disk cache";
  Printf.printf "%-56s %10s\n" "disk/guard fresh handle"
    (Printf.sprintf "%d/%d served from disk, bit-identical"
       (Lp.Cache.disk_hits cache2) k);
  note_cache cache2;
  note_store store2;
  (* corruption pass: flip a bit in every record; each must be
     quarantined and re-solved cold — never served, never an escape *)
  let recs =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".rec")
  in
  List.iter (fun f -> flip_byte (Filename.concat dir f)) recs;
  let store3 = Lp.Cache.Disk.open_store dir in
  let cache3 = Lp.Cache.create ~disk:store3 () in
  let objs, ns = wall_ns (fun () -> solve_through cache3) in
  guarded "corrupted store" objs;
  record
    (Printf.sprintf "disk/re-solve %dx n=%d (every record corrupted)" k n)
    ns;
  if recs <> [] && Lp.Cache.Disk.quarantined store3 = 0 then
    failwith "bench: corrupted records were not quarantined";
  if Lp.Cache.disk_hits cache3 <> 0 then
    failwith "bench: a corrupted record was served from disk";
  Printf.printf "%-56s %10s\n" "disk/guard corruption"
    (Printf.sprintf "%d records flipped, %d quarantined, all re-solved cold"
       (List.length recs)
       (Lp.Cache.Disk.quarantined store3));
  note_cache cache3;
  note_store store3;
  if temp then rm_rf dir;
  List.rev !rows

(* --- part 4: fault sweep --- *)

(* Seeded random fault plans over a wide star.  The robustness guards
   are part of the bench contract: a Robust run that completes less
   than Static on the same faults, or more than the per-epoch LP bound
   on the surviving platforms, fails the harness — it does not just
   skew a number.  Likewise the unsurvivable master-isolation scenario
   must degrade into a loss report, never raise. *)
let fault_scenario ~slaves ~phases ~seed =
  let p =
    Platform_gen.star ~master_weight:Ext_rat.inf
      ~slaves:
        (List.init slaves (fun i ->
             (Ext_rat.of_ints (3 + (i mod 7)) 2, R.of_ints (2 + (i mod 5)) 3)))
      ()
  in
  let phase = R.of_int 4 in
  let g = Faults.generator ~seed in
  let plan =
    Faults.random_plan g p ~master:0 ~horizon:(R.mul_int phase phases)
      ~align:phase ~faults:(max 3 (slaves / 2))
  in
  let cpu_traces, bw_traces = Faults.traces p plan in
  { Dynamic_sched.platform = p; master = 0; cpu_traces; bw_traces; phase;
    phases }

let run_fault_suite ~smoke () =
  print_endline "\n########## fault sweep (seeded outages) ##########\n";
  let rows = ref [] in
  let record = record rows in
  let slaves = if smoke then 4 else 8 and phases = if smoke then 4 else 16 in
  let seeds = if smoke then [ 1; 2 ] else [ 1; 2; 3; 4; 5 ] in
  (* (seed, static, robust) completed tasks at n=8, 16 phases *)
  let pinned =
    [ (1, (55, 55)); (2, (55, 61)); (3, (62, 62)); (4, (62, 62)); (5, (57, 61)) ]
  in
  List.iter
    (fun seed ->
      let sc = fault_scenario ~slaves ~phases ~seed in
      let cache = Lp.Cache.create () in
      let label tail =
        Printf.sprintf "fault/%s n=%d phases=%d seed=%d" tail slaves phases
          seed
      in
      let st, ns =
        wall_ns (fun () -> Dynamic_sched.run ~cache sc Dynamic_sched.Static)
      in
      record (label "static") ns;
      let rb, ns =
        wall_ns (fun () -> Dynamic_sched.run ~cache sc Dynamic_sched.Robust)
      in
      record (label "robust") ns;
      let bound, ns =
        wall_ns (fun () -> Dynamic_sched.fault_throughput_bound ~cache sc)
      in
      record (label "LP bound") ns;
      note_cache cache;
      let completed (out : Dynamic_sched.outcome) =
        out.Dynamic_sched.completed
      in
      if R.compare (completed rb) (completed st) < 0 then
        failwith
          (Printf.sprintf
             "bench: robust (%s) completed less than static (%s) on fault \
              seed %d"
             (R.to_string (completed rb))
             (R.to_string (completed st))
             seed);
      if R.compare (completed rb) bound > 0 then
        failwith
          (Printf.sprintf "bench: robust exceeded the fault LP bound on seed %d"
             seed);
      (* pinned floors: the executors plan on the kernel's vertex
         ({!Dynamic_sched.run}); a planning vertex that loses tasks to
         the per-phase floors shows up here as lost work *)
      (match List.assoc_opt seed pinned with
      | Some (st_min, rb_min) when not smoke ->
        if
          R.compare (completed st) (R.of_int st_min) < 0
          || R.compare (completed rb) (R.of_int rb_min) < 0
        then
          failwith
            (Printf.sprintf
               "bench: fault seed %d completed static %s / robust %s, below \
                the pinned %d / %d"
               seed
               (R.to_string (completed st))
               (R.to_string (completed rb))
               st_min rb_min)
      | _ -> ());
      Printf.printf "%-56s %10s\n"
        (Printf.sprintf "fault/guard seed=%d" seed)
        (Printf.sprintf "robust %s >= static %s, bound %s"
           (R.to_string (completed rb))
           (R.to_string (completed st))
           (R.to_string bound)))
    seeds;
  (* the unsurvivable case: isolate the master from t=0 *)
  let p =
    Platform_gen.star ~master_weight:Ext_rat.inf
      ~slaves:(List.init slaves (fun i -> (Ext_rat.of_int (1 + i), R.one)))
      ()
  in
  let cpu_traces, bw_traces =
    Faults.traces p (Faults.master_adjacent_cut p ~master:0 ~at:R.zero ())
  in
  let sc =
    { Dynamic_sched.platform = p; master = 0; cpu_traces; bw_traces;
      phase = R.of_int 4; phases }
  in
  let rb, ns =
    wall_ns (fun () -> Dynamic_sched.run sc Dynamic_sched.Robust)
  in
  record (Printf.sprintf "fault/master isolated n=%d phases=%d" slaves phases)
    ns;
  if not (R.is_zero rb.Dynamic_sched.completed) then
    failwith "bench: master-isolated run completed work out of thin air";
  if rb.Dynamic_sched.losses.Dynamic_sched.degraded_phases <> phases then
    failwith "bench: master-isolated run did not degrade every phase";
  Printf.printf "%-56s %10s\n" "fault/guard master isolated"
    "throughput 0, structured loss report";
  List.rev !rows

(* --- part 4.5: churn — cross-epoch reuse under restriction --- *)

(* A long fault trace (32 epochs, dense churn) over a heterogeneous
   star: every epoch re-plans on a different surviving subplatform.
   Every LP solve is cold either way; the reuse run adds the exact LP
   cache and Robust's restriction memo, which serve the epochs whose
   multiplier snapshot repeats.  Guards: the reuse and cold outcomes
   must be bit-identical ({!Dynamic_sched.outcomes_equal} — reuse is an
   accelerator, never a result changer), and at n=200 the reuse run
   must beat the cold run. *)
let churn_scenario ~slaves ~phases ~seed =
  let p =
    Platform_gen.star ~master_weight:Ext_rat.inf
      ~slaves:
        (List.init slaves (fun i ->
             (Ext_rat.of_ints (3 + (i mod 7)) 2, R.of_ints (2 + (i mod 5)) 3)))
      ()
  in
  let phase = R.of_int 4 in
  let g = Faults.generator ~seed in
  let plan =
    Faults.random_plan g p ~master:0 ~horizon:(R.mul_int phase phases)
      ~align:phase ~faults:(max 6 (slaves / 2))
  in
  let cpu_traces, bw_traces = Faults.traces p plan in
  { Dynamic_sched.platform = p; master = 0; cpu_traces; bw_traces; phase;
    phases }

let run_churn_suite ~smoke () =
  print_endline
    "\n########## churn: reuse across restrictions ##########\n";
  let rows = ref [] in
  let record = record rows in
  let runs = if smoke then 1 else 3 in
  let phases = 32 in
  let sizes = if smoke then [ 20 ] else [ 20; 200 ] in
  List.iter
    (fun n ->
      let sc = churn_scenario ~slaves:n ~phases ~seed:5 in
      let label tail =
        Printf.sprintf "churn/%s n=%d epochs=%d" tail n phases
      in
      let cold, cold_ns =
        best_of ~runs (fun () ->
            Dynamic_sched.run ~reuse:false sc Dynamic_sched.Robust)
      in
      record (label "robust cold") cold_ns;
      let stats = Lp.Stats.create () in
      let reuse = Dynamic_sched.run ~reuse:true ~stats sc Dynamic_sched.Robust in
      let _, reuse_ns =
        best_of ~runs (fun () ->
            Dynamic_sched.run ~reuse:true sc Dynamic_sched.Robust)
      in
      record (label "robust reuse") reuse_ns;
      record_effort (label "robust reuse") stats;
      if not (Dynamic_sched.outcomes_equal cold reuse) then
        failwith
          (Printf.sprintf
             "bench: churn reuse outcome differs from cold at n=%d — reuse \
              changed a result"
             n);
      Printf.printf "%-56s %10s\n"
        (Printf.sprintf "churn/guard n=%d" n)
        (Printf.sprintf "reuse = cold = %s, speedup %.2fx"
           (R.to_string reuse.Dynamic_sched.completed)
           (cold_ns /. reuse_ns));
      (* hard wall-clock floor where the LP work dominates the run *)
      if (not smoke) && n >= 200 && reuse_ns > cold_ns /. 1.2 then
        failwith
          (Printf.sprintf
             "bench: churn reuse run only %.2fx faster than cold at n=%d \
              (floor 1.2x)"
             (cold_ns /. reuse_ns) n))
    sizes;
  List.rev !rows

(* --- part 4.6: crash recovery — checkpointed runs and resume --- *)

(* The churn scenario again, now under the checkpoint machinery.
   Guards: a checkpointed run must complete bit-identical work to the
   plain reuse run (the record writes and the disk-tier cache are
   accelerator plumbing, never result changers), a run killed mid-flight
   must resume bit-identically from the record, and at n=200 the
   per-epoch checkpoint overhead must stay within 5% of the plain
   wall. *)
let run_recovery_suite ~smoke () =
  print_endline
    "\n########## recovery: checkpointed executor state ##########\n";
  let rows = ref [] in
  let record = record rows in
  let runs = if smoke then 1 else 3 in
  let phases = 32 in
  let fresh_ckpt_dir =
    let ctr = ref 0 in
    fun () ->
      incr ctr;
      let d =
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "steady-bench-ckpt-%d-%d" (Unix.getpid ()) !ctr)
      in
      rm_rf d;
      d
  in
  let completed (o : Dynamic_sched.outcome) = o.Dynamic_sched.completed in
  List.iter
    (fun n ->
      let sc = churn_scenario ~slaves:n ~phases ~seed:5 in
      let label tail =
        Printf.sprintf "recovery/%s n=%d epochs=%d" tail n phases
      in
      let plain, plain_ns =
        best_of ~runs (fun () -> Dynamic_sched.run sc Dynamic_sched.Robust)
      in
      record (label "robust plain") plain_ns;
      (* a checkpointed run owns a write-through disk-tier LP cache (so
         resume can replay the same memo); the fair baseline for the
         checkpoint-record overhead is therefore a run with the same
         fresh disk cache and no checkpointing *)
      let disk_base, disk_ns =
        best_of ~runs (fun () ->
            let dir = fresh_ckpt_dir () in
            let store = Lp.Cache.Disk.open_store dir in
            let cache = Lp.Cache.create ~disk:store () in
            let o = Dynamic_sched.run ~cache sc Dynamic_sched.Robust in
            rm_rf dir;
            o)
      in
      record (label "robust disk cache") disk_ns;
      (* checkpointed run: a fresh store per repetition, so every run
         pays the full write-through cost *)
      let ckpt, ckpt_ns =
        best_of ~runs (fun () ->
            let dir = fresh_ckpt_dir () in
            let checkpoint = { Dynamic_sched.Checkpoint.dir; every = 1 } in
            let o = Dynamic_sched.run ~checkpoint sc Dynamic_sched.Robust in
            rm_rf dir;
            o)
      in
      record (label "robust checkpointed every=1") ckpt_ns;
      if not (Dynamic_sched.outcomes_equal plain disk_base) then
        failwith
          (Printf.sprintf
             "bench: disk-cached run diverged from plain at n=%d — the \
              cache changed a result"
             n);
      if not (Dynamic_sched.outcomes_equal plain ckpt) then
        failwith
          (Printf.sprintf
             "bench: checkpointed run diverged from plain at n=%d — \
              recovery plumbing changed a result"
             n);
      (* kill at mid-run, resume from the record *)
      let halt = phases / 2 in
      let dir = fresh_ckpt_dir () in
      let checkpoint = { Dynamic_sched.Checkpoint.dir; every = 1 } in
      (match
         Dynamic_sched.run ~checkpoint ~halt_at:halt sc Dynamic_sched.Robust
       with
      | _ -> failwith "bench: halt hook did not fire"
      | exception Dynamic_sched.Checkpoint.Halted _ -> ());
      let (resumed, from), resume_ns =
        wall_ns (fun () -> Dynamic_sched.resume ~checkpoint sc)
      in
      rm_rf dir;
      record (Printf.sprintf "recovery/resume from=%d n=%d" halt n) resume_ns;
      if from <> Some halt then
        failwith
          (Printf.sprintf "bench: resume started cold at n=%d (kill at %d)" n
             halt);
      if not (Dynamic_sched.outcomes_equal plain resumed) then
        failwith
          (Printf.sprintf
             "bench: resumed run diverged from uninterrupted at n=%d" n);
      Printf.printf "%-56s %10s\n"
        (Printf.sprintf "recovery/guard n=%d" n)
        (Printf.sprintf "ckpt = resumed = plain = %s, record overhead %.1f%%"
           (R.to_string (completed plain))
           (100. *. ((ckpt_ns /. disk_ns) -. 1.)));
      (* hard ceiling on the checkpoint-record cost itself (against the
         disk-cached baseline, which pays the same LP write-through)
         where the LP work dominates the epoch *)
      if (not smoke) && n >= 200 && ckpt_ns > disk_ns *. 1.05 then
        failwith
          (Printf.sprintf
             "bench: checkpoint-record overhead %.1f%% at n=%d (ceiling 5%%)"
             (100. *. ((ckpt_ns /. disk_ns) -. 1.))
             n))
    (if smoke then [ 20 ] else [ 20; 200 ]);
  List.rev !rows

(* --- scaling suite: the tree closed form --- *)

(* On a tree every [solve] takes the closed form.  Each row is guarded:
   where the monolithic LP is affordable, [solve] must reproduce
   [Lp.solve]'s objective on the model bit-for-bit; the large trees,
   where no monolithic reference is affordable, must stay within a hard
   wall-clock budget before their time is recorded. *)
let run_scale_suite ~smoke () =
  print_endline
    "\n########## scaling: the tree closed form ##########\n";
  let rows = ref [] in
  let record = record rows in
  let guard name got want =
    if not (R.equal got want) then
      failwith
        (Printf.sprintf "bench: %s: objective %s <> reference %s" name
           (R.to_string got) (R.to_string want))
  in
  let lp_objective name m =
    match Lp.solve m with
    | Lp.Optimal s -> s.Lp.objective
    | Lp.Infeasible | Lp.Unbounded ->
      failwith ("bench: " ^ name ^ ": monolithic LP not optimal")
  in
  (* master–slave trees against the monolithic LP at sizes where both
     are affordable: throughput must agree bit-for-bit *)
  List.iter
    (fun n ->
      let p = Platform_gen.random_tree ~seed:(3 * n) ~nodes:n () in
      let name = Printf.sprintf "scale/tree decomposition n=%d" n in
      let m, _, _ = Master_slave.build_lp p ~master:0 in
      let full = lp_objective name m in
      let sol, ns = best_of ~runs:1 (fun () -> Master_slave.solve p ~master:0) in
      guard name sol.Master_slave.ntask full;
      record name ns)
    [ 10; 20 ];
  (* collective LPs through the same tree closed form: scatter (Sum
     law) against [Lp.solve] on its monolithic model where both are
     affordable.  [solve] must reproduce the throughput bit-for-bit and
     beat the kernel by at least 5x — anything less means the closed
     form regressed into running a solver *)
  let cn = if smoke then 10 else 16 in
  let cp = Platform_gen.random_tree ~seed:31 ~nodes:cn () in
  let ctargets = List.filter (fun i -> i <> 0) (Platform.nodes cp) in
  let cname = Printf.sprintf "scale/scatter decomposition n=%d" cn in
  let cfull, cfull_ns =
    best_of ~runs:1 (fun () ->
        lp_objective cname
          (Collective.model Collective.Sum cp ~source:0 ~targets:ctargets))
  in
  let cred, cred_ns =
    best_of ~runs:1 (fun () ->
        Collective.solve Collective.Sum cp ~source:0 ~targets:ctargets)
  in
  guard cname cred.Collective.throughput cfull;
  record (Printf.sprintf "scale/scatter monolithic LP n=%d" cn) cfull_ns;
  record cname cred_ns;
  if cfull_ns < 5. *. cred_ns then
    failwith
      (Printf.sprintf
         "bench: %s: decomposition only %.1fx faster than the monolithic \
          LP (5x required)"
         cname (cfull_ns /. cred_ns));
  (* the broadcast and all-to-all closed forms against [Lp.solve] on
     their monolithic models, untimed, on the same small tree *)
  let bcname = Printf.sprintf "scale/broadcast guard n=%d" cn in
  guard bcname (Broadcast.lp_bound cp ~source:0).Collective.throughput
    (lp_objective bcname
       (Collective.model Collective.Max cp ~source:0
          ~targets:(Broadcast.targets_of cp ~source:0)));
  let small_parts = List.filter (fun i -> i mod 4 = 0) (Platform.nodes cp) in
  let a2aname = Printf.sprintf "scale/all-to-all guard n=%d" cn in
  let am, _, _, _ = All_to_all.model_handles cp ~participants:small_parts in
  guard a2aname
    (All_to_all.solve cp ~participants:small_parts).All_to_all.throughput
    (lp_objective a2aname am);
  Printf.printf "%-56s %10s\n" "scale/collective guards"
    "scatter, broadcast, all-to-all = monolithic LP";
  (* collective rows at sizes the monolithic LP cannot touch (its model
     alone would hold nk * |E| variables): [solve] takes the closed
     form *)
  let big = if smoke then 500 else 2000 in
  let bp = Platform_gen.balanced_tree ~seed:13 ~nodes:big () in
  let bsol, ns = best_of ~runs:1 (fun () -> Broadcast.lp_bound bp ~source:0) in
  let bname = Printf.sprintf "scale/broadcast bound n=%d decomposed" big in
  if R.sign bsol.Collective.throughput <= 0 then
    failwith ("bench: " ^ bname ^ ": non-positive throughput");
  record bname ns;
  if ns > 5e9 then
    failwith (Printf.sprintf "bench: %s took %.2f s, budget 5 s" bname
       (ns /. 1e9));
  let parts =
    List.filter (fun i -> i mod (big / 10) = 0) (Platform.nodes bp)
  in
  let asol, ns =
    best_of ~runs:1 (fun () -> All_to_all.solve bp ~participants:parts)
  in
  let aname =
    Printf.sprintf "scale/all-to-all n=%d p=%d decomposed" big
      (List.length parts)
  in
  if R.sign asol.All_to_all.throughput <= 0 then
    failwith ("bench: " ^ aname ^ ": non-positive throughput");
  record aname ns;
  (* the headline: exact rational solves of large random trees.  The
     10^4-node row must land under 10 s; the smoke row (10^3 nodes)
     under 5 s — a hard failure, not a report, so a regression can
     never ship silently.  The closed form runs no kernel, so the
     recorded effort reads zero solves. *)
  let tree_sizes = if smoke then [ 1000 ] else [ 100; 1000; 10000 ] in
  List.iter
    (fun n ->
      let p = Platform_gen.random_tree ~seed:71 ~nodes:n () in
      let stats = Lp.Stats.create () in
      let sol, ns =
        best_of ~runs:1 (fun () -> Master_slave.solve ~stats p ~master:0)
      in
      let name = Printf.sprintf "scale/random tree n=%d exact solve" n in
      if R.sign sol.Master_slave.ntask <= 0 then
        failwith ("bench: " ^ name ^ ": non-positive throughput");
      record name ns;
      record_effort name stats;
      let budget_ns = if smoke then 5e9 else 10e9 in
      if n >= 1000 && ns > budget_ns then
        failwith
          (Printf.sprintf "bench: %s took %.2f s, budget %.0f s" name
             (ns /. 1e9) (budget_ns /. 1e9)))
    tree_sizes;
  if not smoke then begin
    (* shape sensitivity: same size, deterministic balanced shape *)
    let p = Platform_gen.balanced_tree ~seed:9 ~nodes:10_000 () in
    let sol, ns =
      best_of ~runs:1 (fun () -> Master_slave.solve p ~master:0)
    in
    if R.sign sol.Master_slave.ntask <= 0 then
      failwith "bench: balanced tree n=10000: non-positive throughput";
    record "scale/balanced tree n=10000 exact solve" ns
  end;
  List.rev !rows

(* --- machine-readable snapshot --- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_json path rows =
  let oc = open_out path in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"schema\": \"steady-bench/8\",\n";
  Printf.fprintf oc "  \"unit\": \"ns\",\n";
  Printf.fprintf oc "  \"pool_width_sequential\": 1,\n";
  Printf.fprintf oc "  \"pool_width_parallel\": %d,\n" (pool_width () + 1);
  Printf.fprintf oc "  \"cache_stats\": {\n";
  Printf.fprintf oc "    \"cache_hits\": %d,\n" !stats_cache_hits;
  Printf.fprintf oc "    \"cache_misses\": %d,\n" !stats_cache_misses;
  Printf.fprintf oc "    \"cache_evictions\": %d,\n" !stats_cache_evictions;
  Printf.fprintf oc "    \"disk_hits\": %d,\n" !stats_disk_hits;
  Printf.fprintf oc "    \"disk_stores\": %d,\n" !stats_disk_stores;
  Printf.fprintf oc "    \"disk_evictions\": %d,\n" !stats_disk_evictions;
  Printf.fprintf oc "    \"quarantined_records\": %d,\n" !stats_quarantined;
  Printf.fprintf oc "    \"recon_hits\": %d,\n" !stats_recon_hits;
  Printf.fprintf oc "    \"recon_misses\": %d\n" !stats_recon_misses;
  Printf.fprintf oc "  },\n";
  Printf.fprintf oc "  \"results\": {\n";
  let n = List.length rows in
  List.iteri
    (fun i (name, ns) ->
      let effort =
        match Hashtbl.find_opt effort_rows name with
        | Some st ->
          let base =
            Printf.sprintf
              ", \"solves\": %d, \"pivots\": %d, \"refactors\": %d"
              st.Lp.Stats.solves st.Lp.Stats.pivots st.Lp.Stats.refactors
          in
          let recon =
            if
              st.Lp.Stats.matchings_repaired + st.Lp.Stats.matchings_rebuilt
              + st.Lp.Stats.slots_reused + st.Lp.Stats.cycles_cancelled
              + st.Lp.Stats.delays_reused > 0
            then
              Printf.sprintf
                ", \"cycles_cancelled\": %d, \"matchings_repaired\": %d, \
                 \"matchings_rebuilt\": %d, \"slots_reused\": %d, \
                 \"delays_reused\": %d"
                st.Lp.Stats.cycles_cancelled st.Lp.Stats.matchings_repaired
                st.Lp.Stats.matchings_rebuilt st.Lp.Stats.slots_reused
                st.Lp.Stats.delays_reused
            else ""
          in
          let churn =
            if
              st.Lp.Stats.repairs_budget_exceeded + st.Lp.Stats.retries > 0
              || R.sign st.Lp.Stats.backoff_time > 0
            then
              Printf.sprintf
                ", \"repairs_budget_exceeded\": %d, \"retries\": %d, \
                 \"backoff_time\": \"%s\""
                st.Lp.Stats.repairs_budget_exceeded st.Lp.Stats.retries
                (R.to_string st.Lp.Stats.backoff_time)
            else ""
          in
          base ^ recon ^ churn
        | None -> ""
      in
      Printf.fprintf oc "    \"%s\": { \"ns\": %.1f%s }%s\n" (json_escape name)
        ns effort
        (if i = n - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  }\n}\n";
  close_out oc;
  Printf.printf "\nwrote %s (%d rows)\n" path n

(* ablation: how tight is the <= |E| + 2|V| matching bound in practice? *)
let print_coloring_stats () =
  print_endline
    "########## ablation: matchings produced by the decomposition ##########\n";
  Printf.printf "%-28s %8s %8s %10s\n" "instance" "|E|" "bound" "matchings";
  List.iter
    (fun (label, l, r_, edges) ->
      let ms = Bipartite_coloring.decompose ~left_size:l ~right_size:r_ edges in
      Printf.printf "%-28s %8d %8d %10d\n" label (List.length edges)
        (List.length edges + (2 * (l + r_)))
        (List.length ms))
    (List.map
       (fun (label, seed, l, r_, n) ->
         let st = Random.State.make [| seed |] in
         ( label,
           l,
           r_,
           List.init n (fun tag ->
               {
                 Bipartite_coloring.left = Random.State.int st l;
                 right = Random.State.int st r_;
                 weight = R.of_ints (1 + Random.State.int st 12) 4;
                 tag;
               }) ))
       [
         ("random 4x4, 10 edges", 3, 4, 4, 10);
         ("random 6x6, 25 edges", 7, 6, 6, 25);
         ("random 8x8, 50 edges", 11, 8, 8, 50);
         ("random 10x10, 90 edges", 13, 10, 10, 90);
       ]);
  print_newline ()

let run_smoke ~cache_dir () =
  print_endline "########## smoke: every workload body once ##########\n";
  List.iter
    (fun (name, fn) ->
      fn ();
      Printf.printf "smoke ok  %s\n" name)
    (timed_workloads ());
  ignore (run_cache_suite ~smoke:true ());
  ignore (run_recon_suite ~smoke:true ());
  ignore (run_disk_suite ~smoke:true ~cache_dir ());
  ignore (run_pool_sweep ~smoke:true ());
  ignore (run_fault_suite ~smoke:true ());
  ignore (run_churn_suite ~smoke:true ());
  ignore (run_recovery_suite ~smoke:true ());
  ignore (run_scale_suite ~smoke:true ());
  print_endline "\nsmoke: all workloads executed"

(* fixed-seed chaos campaign (see {!Chaos}); exits non-zero on any
   invariant violation so CI can gate on it *)
let run_chaos ~smoke ~seed ~shapes () =
  let s = Chaos.run_campaign ~smoke ?shapes ~seed () in
  Format.printf "%a@." Chaos.pp_summary s;
  if s.Chaos.violations <> [] then begin
    prerr_endline
      (Printf.sprintf "bench: chaos campaign seed %d: %d violation(s)" seed
         (List.length s.Chaos.violations));
    exit 1
  end

let () =
  let tables_only = ref false in
  let smoke = ref false in
  let faults_only = ref false in
  let recon_only = ref false in
  let recovery_only = ref false in
  let chaos = ref false in
  let chaos_seed = ref 42 in
  let chaos_shapes = ref None in
  let json_path = ref "BENCH_steady.json" in
  let cache_dir = ref (Sys.getenv_opt "STEADY_CACHE_DIR") in
  let rec parse = function
    | [] -> ()
    | "--tables-only" :: rest ->
      tables_only := true;
      parse rest
    | "--smoke" :: rest ->
      smoke := true;
      parse rest
    | "--faults-only" :: rest ->
      faults_only := true;
      parse rest
    | "--recon-only" :: rest ->
      recon_only := true;
      parse rest
    | "--recovery-only" :: rest ->
      recovery_only := true;
      parse rest
    | "--chaos" :: rest ->
      chaos := true;
      parse rest
    | "--chaos-seed" :: s :: rest ->
      (match int_of_string_opt s with
      | Some n -> chaos_seed := n
      | None ->
        prerr_endline ("bench: --chaos-seed expects an integer, got " ^ s);
        exit 2);
      parse rest
    | "--chaos-shapes" :: s :: rest ->
      chaos_shapes :=
        Some (List.map String.trim (String.split_on_char ',' s));
      parse rest
    | "--json" :: path :: rest ->
      json_path := path;
      parse rest
    | "--cache-dir" :: dir :: rest ->
      cache_dir := Some dir;
      parse rest
    | arg :: _ ->
      prerr_endline
        ("usage: main.exe [--tables-only] [--smoke] [--faults-only] \
          [--recon-only] [--recovery-only] [--chaos] [--chaos-seed N] \
          [--chaos-shapes S1,S2] \
          [--json PATH] [--cache-dir DIR]; got " ^ arg);
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !chaos then
    run_chaos ~smoke:!smoke ~seed:!chaos_seed ~shapes:!chaos_shapes ()
  else if !smoke then run_smoke ~cache_dir:!cache_dir ()
  else if !faults_only then ignore (run_fault_suite ~smoke:false ())
  else if !recon_only then ignore (run_recon_suite ~smoke:false ())
  else if !recovery_only then ignore (run_recovery_suite ~smoke:false ())
  else begin
    print_tables ();
    print_coloring_stats ();
    if not !tables_only then begin
      let bench_rows = run_benchmarks () in
      let cache_rows = run_cache_suite ~smoke:false () in
      let recon_rows = run_recon_suite ~smoke:false () in
      let disk_rows = run_disk_suite ~smoke:false ~cache_dir:!cache_dir () in
      let sweep_rows = run_pool_sweep ~smoke:false () in
      let fault_rows = run_fault_suite ~smoke:false () in
      let churn_rows = run_churn_suite ~smoke:false () in
      let recovery_rows = run_recovery_suite ~smoke:false () in
      let scale_rows = run_scale_suite ~smoke:false () in
      write_json !json_path
        (bench_rows @ cache_rows @ recon_rows @ disk_rows @ sweep_rows
       @ fault_rows @ churn_rows @ recovery_rows @ scale_rows)
    end
  end
