(* Closed-loop benchmark of the steady-state pipeline: platform file,
   exact LP, schedule reconstruction, one-port simulation, and the
   fault-tolerant executor with its checkpoint store.

   One client in one domain: each operation ("op") starts only after
   the previous one returned.  Inputs (platform files, fault plans) are
   generated from --seed alone, and every layer is timed from outside,
   around calls into public library functions.  README.md in the
   parent directory lists the workloads, the metrics and which layer
   metric should move which end-to-end metric. *)

module R = Rat
module P = Platform
module MS = Master_slave
module Dy = Dynamic_sched

(* the seed whose exact solve throughputs are committed in reference.txt *)
let default_seed = 1

(* paths from the repository root: the committed answers, and the
   directory for scratch files and trace output *)
let reference_file = "perfbench/reference.txt"
let out_dir = ".perfbench-out"

(* ---- clock, statistics, files --------------------------------------- *)

let now = Monotonic_clock.now
let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6

(* linear interpolation between order statistics *)
let quantile q xs =
  match Array.of_list xs with
  | [||] -> 0.
  | a ->
    Array.sort compare a;
    let pos = q *. float (Array.length a - 1) in
    let lo = int_of_float pos in
    let hi = min (lo + 1) (Array.length a - 1) in
    a.(lo) +. ((pos -. float lo) *. (a.(hi) -. a.(lo)))

let median = quantile 0.5

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* ---- spans ------------------------------------------------------------ *)

(* In-memory spans, written out when the run ends.  With [on = false]
   a span is a plain call. *)
module Trace = struct
  type span = {
    name : string;
    id : int;
    parent : int;  (** -1 for the op's root and for duplicate calls *)
    op : int;
    start : int64;
    stop : int64;
    duplicate : bool;
        (** a second call of an inner layer's public function on the
            op's input, made after the op: not a slice of the op *)
  }

  type t = {
    on : bool;
    mutable spans : span list;
    mutable next_id : int;
    mutable open_spans : int list;
    mutable op : int;
  }

  let create on = { on; spans = []; next_id = 0; open_spans = []; op = 0 }
  let off = create false

  let record t ~duplicate name f =
    if not t.on then f ()
    else begin
      let id = t.next_id in
      t.next_id <- id + 1;
      let parent =
        match t.open_spans with p :: _ when not duplicate -> p | _ -> -1
      in
      t.open_spans <- id :: t.open_spans;
      let start = now () in
      let close () =
        let stop = now () in
        t.open_spans <- List.tl t.open_spans;
        t.spans <-
          { name; id; parent; op = t.op; start; stop; duplicate } :: t.spans
      in
      match f () with
      | v ->
        close ();
        v
      | exception e ->
        close ();
        raise e
    end

  let span t name f = record t ~duplicate:false name f
  let duplicate t name f = record t ~duplicate:true name f
  let ms s = ms_between s.start s.stop
end

(* ---- workloads ---------------------------------------------------------- *)

type outcome = {
  headline_ms : float option;
      (** the workload's latency sample; [None]: the whole op *)
  tasks : R.t;
      (** completed work the op reports: tasks for the executor
          workloads; for the solve workloads, the simulated tasks as a
          share of [ntask * elapsed] *)
  answer : unit -> string;
      (** the op's exact answer, which every repeat of the case must
          reproduce *)
  throughput : R.t option;
      (** the exact LP optimum of a solve op, committed in reference.txt
          for the default seed *)
  check : unit -> (unit, string) result;
      (** correctness checks, run outside the timed region *)
  extras : Trace.t -> (string * float) list;
      (** traced pass only: duplicate inner-layer calls and layer
          counters read from outside *)
}

(* A case is one generated input; the op runs it.  [stats] is given in
   the traced pass only. *)
type case = Trace.t -> Lp.Stats.t option -> outcome

let ( let* ) = Result.bind

let loss_counters (o : Dy.outcome) =
  let l = o.Dy.losses in
  [
    ("exec.retries", float l.Dy.retries);
    ("exec.lost_tasks", float l.Dy.lost_tasks);
    ("exec.degraded_phases", float l.Dy.degraded_phases);
  ]

let cache_counters = function
  | Some c ->
    [
      ("lp.cache_hits", float (Lp.Cache.hits c));
      ("lp.cache_misses", float (Lp.Cache.misses c));
    ]
  | None -> []

let outcome_answer (o : Dy.outcome) =
  let l = o.Dy.losses in
  String.concat " "
    ((R.to_string o.Dy.completed :: List.map R.to_string o.Dy.per_phase)
    @ List.map string_of_int
        [
          l.Dy.timed_out_transfers; l.Dy.cancelled_transfers; l.Dy.retries;
          l.Dy.lost_tasks; l.Dy.degraded_phases; l.Dy.dead_nodes;
          l.Dy.dead_edges;
        ])

(* per-phase and loss accounting of one executor outcome *)
let accounting (sc : Dy.scenario) (o : Dy.outcome) =
  let l = o.Dy.losses in
  if List.length o.Dy.per_phase <> sc.Dy.phases then
    Error "per-phase series has the wrong length"
  else if not (R.equal (R.sum o.Dy.per_phase) o.Dy.completed) then
    Error "per-phase work does not sum to the completed work"
  else if
    l.Dy.timed_out_transfers + l.Dy.cancelled_transfers
    <> l.Dy.retries + l.Dy.lost_tasks
  then
    Error
      (Printf.sprintf "loss accounting %d+%d <> %d+%d" l.Dy.timed_out_transfers
         l.Dy.cancelled_transfers l.Dy.retries l.Dy.lost_tasks)
  else Ok ()

(* -- solve-graph, solve-tree: the `steady-cli solve-ms` path -- *)

let periods = 6 (* steady-cli solve-ms's default *)

(* the returned activities against the LP's own constraints, with the
   flow's objective equal to the claimed throughput *)
let check_lp p ~master (sol : MS.solution) =
  let m, alpha_v, s_v = MS.build_lp p ~master in
  let values = Hashtbl.create 256 in
  Array.iteri (fun i v -> Hashtbl.replace values v sol.MS.alpha.(i)) alpha_v;
  Array.iteri (fun e v -> Hashtbl.replace values v sol.MS.send_frac.(e)) s_v;
  match Lp.check_solution m (Hashtbl.find values) with
  | Error e -> Error ("LP check: " ^ e)
  | Ok obj when obj <> R.to_string sol.MS.ntask ->
    Error
      (Printf.sprintf "flow objective %s <> throughput %s" obj
         (R.to_string sol.MS.ntask))
  | Ok _ -> Ok ()

let solve_case ~reduced path : case =
 fun tr stats ->
  let p =
    Trace.span tr "platform.parse" (fun () -> Platform_parse.of_file path)
  in
  let master = P.find_node p "P0" in
  let sol =
    if reduced then
      Trace.span tr "decomp.solve" (fun () -> MS.solve_reduced ?stats p ~master)
    else Trace.span tr "ms.solve" (fun () -> MS.solve ?stats p ~master)
  in
  let sched = Trace.span tr "recon.schedule" (fun () -> MS.schedule ?stats sol) in
  (* strict mode: a one-port violation raises Event_sim.Conflict *)
  let run = Trace.span tr "sim.simulate" (fun () -> MS.simulate ~periods sol) in
  {
    headline_ms = None;
    (* in units of the LP bound over the simulated horizon: periods,
       hence raw task counts, differ by orders of magnitude between
       platforms *)
    tasks = R.div run.MS.completed run.MS.upper_bound;
    answer =
      (fun () -> R.to_string sol.MS.ntask ^ " " ^ R.to_string run.MS.completed);
    throughput = Some sol.MS.ntask;
    check =
      (fun () ->
        let* () = check_lp p ~master sol in
        let* () =
          Result.map_error (( ^ ) "certify: ") (Reconstruct.certify sched)
        in
        if R.compare run.MS.completed run.MS.upper_bound > 0 then
          Error "simulation beat the LP bound"
        else Ok ());
    extras =
      (fun tr ->
        let slots = ("recon.slots", float (List.length sched.Schedule.slots)) in
        if reduced then [ slots ]
        else begin
          (* Master_slave.solve hides model build, kernel and cycle
             cancellation: time the first two again on the same input *)
          let m, _, _ =
            Trace.duplicate tr "lp.build" (fun () -> MS.build_lp p ~master)
          in
          let st = Lp.Stats.create () in
          ignore (Trace.duplicate tr "lp.solve" (fun () -> Lp.solve ~stats:st m));
          [ slots; ("lp.dup_pivots", float st.Lp.Stats.pivots) ]
        end);
  }

(* Each seed draws fresh platforms for a size ladder that is the same
   for every seed, so the latency quantiles compare across seeds. *)
let solve_setup ~reduced ~families ~seed ~dir =
  let g = Faults.generator ~seed in
  List.mapi
    (fun i make ->
      let p = make (1 + Faults.rand_int g 1_000_000) in
      let path = Filename.concat dir (Printf.sprintf "platform-%03d.txt" i) in
      write_file path (Platform_parse.to_string p);
      solve_case ~reduced path)
    families
  |> Array.of_list

let solve_graph_setup ~tiny ~seed ~dir =
  let sizes = if tiny then [ 6; 8 ] else List.init 252 (fun i -> 20 + (i mod 21)) in
  let families =
    List.map
      (fun n seed ->
        Platform_gen.random_connected_graph ~seed ~nodes:n ~extra_edges:(n / 2) ())
      sizes
  in
  solve_setup ~reduced:false ~families ~seed ~dir

let solve_tree_setup ~tiny ~seed ~dir =
  let sizes = if tiny then [ 50; 100 ] else [ 1000; 2500; 5000; 7500; 10_000 ] in
  let families =
    List.concat_map
      (fun n ->
        List.concat
          (List.init 4 (fun _ ->
               [
                 (fun seed -> Platform_gen.random_tree ~seed ~nodes:n ());
                 (fun seed -> Platform_gen.balanced_tree ~seed ~nodes:n ());
               ])))
      sizes
  in
  solve_setup ~reduced:true ~families ~seed ~dir

(* -- recover: plain, checkpointed, killed and resumed runs per plan -- *)

let fresh_dir =
  let n = ref 0 in
  fun dir what ->
    incr n;
    Filename.concat dir (Printf.sprintf "ckpt-%d-%s" !n what)

(* checkpoint cadence, in epochs; the kill epochs are its multiples, so
   a run resumes from the kill epoch itself *)
let ckpt_every = 4

let recover_case ~dir ~halt sc : case =
 fun tr stats ->
  let ckpt what = { Dy.Checkpoint.dir = fresh_dir dir what; every = ckpt_every } in
  let full = ckpt "full" and killed = ckpt "killed" in
  (* a fresh cache per run is what Dynamic_sched.run makes by default;
     the traced pass passes its own to read the hit counts *)
  let cache = Option.map (fun _ -> Lp.Cache.create ()) stats in
  let plain =
    Trace.span tr "exec.robust" (fun () -> Dy.run ?cache ?stats sc Dy.Robust)
  in
  let checkpointed =
    Trace.span tr "store.ckpt_run" (fun () ->
        Dy.run ~checkpoint:full sc Dy.Robust)
  in
  let halted =
    Trace.span tr "store.ckpt_halt" (fun () ->
        match Dy.run ~checkpoint:killed ~halt_at:halt sc Dy.Robust with
        | _ -> None
        | exception Dy.Checkpoint.Halted h -> Some h)
  in
  let t0 = now () in
  let resumed, from =
    Trace.span tr "store.resume" (fun () -> Dy.resume ~checkpoint:killed sc)
  in
  let resume_ms = ms_between t0 (now ()) in
  {
    headline_ms = Some resume_ms;
    tasks = plain.Dy.completed;
    answer = (fun () -> outcome_answer plain);
    throughput = None;
    check =
      (fun () ->
        let verdict =
          if halted <> Some halt then Error "the halt hook did not fire"
          else if from <> Some halt then
            Error "resume did not start from the kill epoch"
          else if not (Dy.outcomes_equal checkpointed plain) then
            Error "checkpointed run differs from the plain run"
          else if not (Dy.outcomes_equal resumed plain) then
            Error "resumed run differs from the plain run"
          else accounting sc plain
        in
        rm_rf full.Dy.Checkpoint.dir;
        rm_rf killed.Dy.Checkpoint.dir;
        verdict);
    extras =
      (fun tr ->
        ignore (Trace.duplicate tr "exec.static" (fun () -> Dy.run sc Dy.Static));
        let store = Solve_store.open_store full.Dy.Checkpoint.dir in
        ("store.records", float (Solve_store.entries store))
        :: ("store.bytes", float (Solve_store.bytes store))
        :: (cache_counters cache @ loss_counters plain));
  }

(* Stars of 4-11 nodes.  Sizes and kill epochs are stratified over the
   plan index; the seed draws weights and faults. *)
let recover_setup ~tiny ~seed ~dir =
  let plans, phases = if tiny then (3, 8) else (360, 16) in
  let phase = R.of_int 10 in
  let g = Faults.generator ~seed in
  let draw n = Faults.rand_int g n in
  Array.init plans (fun i ->
      let p =
        Platform_gen.star ~master_weight:Ext_rat.inf
          ~slaves:
            (List.init (3 + (i mod 8)) (fun _ ->
                 (Ext_rat.of_int (1 + draw 4), R.of_ints (1 + draw 3) (1 + draw 2))))
          ()
      in
      let faults =
        Faults.random_plan g p ~master:0 ~horizon:(R.mul_int phase phases)
          ~align:phase ~faults:(2 + draw 3)
      in
      let cpu_traces, bw_traces = Faults.traces p faults in
      let sc = { Dy.platform = p; master = 0; cpu_traces; bw_traces; phase; phases } in
      let kills = (phases / ckpt_every) - 1 in
      recover_case ~dir ~halt:(ckpt_every * (1 + (i / 8 mod kills))) sc)

let workloads =
  [
    ("solve-graph", solve_graph_setup);
    ("solve-tree", solve_tree_setup);
    ("recover", recover_setup);
  ]

(* ---- metrics ------------------------------------------------------------ *)

let stats_counters (s : Lp.Stats.t) =
  [
    ("lp.solves", float s.Lp.Stats.solves);
    ("lp.pivots", float s.Lp.Stats.pivots);
    ("lp.refactors", float s.Lp.Stats.refactors);
    ("lp.warm_remapped", float s.Lp.Stats.warm_remapped);
    ("recon.cycles_cancelled", float s.Lp.Stats.cycles_cancelled);
    ("recon.matchings_repaired", float s.Lp.Stats.matchings_repaired);
    ("recon.matchings_rebuilt", float s.Lp.Stats.matchings_rebuilt);
    ("recon.slots_reused", float s.Lp.Stats.slots_reused);
    ("recon.delays_reused", float s.Lp.Stats.delays_reused);
  ]

(* one op of the traced pass: its id and layer counters *)
type traced_op = { op_id : int; counters : (string * float) list }

let counter t name = Option.value ~default:0. (List.assoc_opt name t.counters)

(* summed duration of each span's children, by parent id *)
let child_ms (trace : Trace.t) =
  let sums = Hashtbl.create 64 in
  List.iter
    (fun (s : Trace.span) ->
      let prev = Option.value ~default:0. (Hashtbl.find_opt sums s.Trace.parent) in
      Hashtbl.replace sums s.Trace.parent (prev +. Trace.ms s))
    trace.Trace.spans;
  fun id -> Option.value ~default:0. (Hashtbl.find_opt sums id)

(* Per-layer metrics as (name, unit, value): span times are per-op
   medians at the reference host speed ([scale]), counters per-op
   means.  With host.probe_ms they are BENCHMARK.json's per_layer
   metrics, in its order (smoke_test.py checks). *)
let layer_metrics ~(trace : Trace.t) ~(ops : traced_op list) ~untraced_ms ~scale =
  let per_op = Hashtbl.create 64 in
  List.iter
    (fun (s : Trace.span) ->
      let key = (s.Trace.op, s.Trace.name) in
      let prev = Option.value ~default:0. (Hashtbl.find_opt per_op key) in
      Hashtbl.replace per_op key (prev +. Trace.ms s))
    trace.Trace.spans;
  let span_of t name = Hashtbl.find_opt per_op (t.op_id, name) in
  let med_over f = median (List.filter_map f ops) in
  let span_ms name = med_over (fun t -> span_of t name) in
  let diff_ms a b =
    med_over (fun t ->
        match (span_of t a, span_of t b) with
        | Some x, Some y -> Some (x -. y)
        | _ -> None)
  in
  let total name = List.fold_left (fun a t -> a +. counter t name) 0. ops in
  let ratio a b = if b > 0. then a /. b else 0. in
  let mean name = ratio (total name) (float (List.length ops)) in
  let children = child_ms trace in
  let coverage =
    median
      (List.filter_map
         (fun (s : Trace.span) ->
           if s.Trace.name = "op" then Some (children s.Trace.id /. Trace.ms s)
           else None)
         trace.Trace.spans)
  in
  let repaired = total "recon.matchings_repaired" in
  let ms name v = (name, "ms", v *. scale) and count name = (name, "count", mean name) in
  [
    ms "platform.parse_ms" (span_ms "platform.parse");
    ms "ms.solve_ms" (span_ms "ms.solve");
    ms "lp.build_ms" (span_ms "lp.build");
    ms "lp.solve_ms" (span_ms "lp.solve");
    ( "lp.us_per_pivot",
      "us",
      med_over (fun t ->
          match span_of t "lp.solve" with
          | Some solve_ms when counter t "lp.dup_pivots" > 0. ->
            Some (solve_ms *. scale *. 1000. /. counter t "lp.dup_pivots")
          | _ -> None) );
    count "lp.pivots";
    count "lp.refactors";
    count "lp.solves";
    ("lp.pivots_per_solve", "count", ratio (total "lp.pivots") (total "lp.solves"));
    count "lp.warm_remapped";
    count "lp.cache_hits";
    count "lp.cache_misses";
    ms "decomp.solve_ms" (span_ms "decomp.solve");
    ms "recon.schedule_ms" (span_ms "recon.schedule");
    count "recon.slots";
    count "recon.cycles_cancelled";
    count "recon.matchings_repaired";
    count "recon.matchings_rebuilt";
    count "recon.slots_reused";
    count "recon.delays_reused";
    ( "recon.repair_ratio",
      "ratio",
      ratio repaired (repaired +. total "recon.matchings_rebuilt") );
    ms "sim.simulate_ms" (span_ms "sim.simulate");
    ms "exec.robust_ms" (span_ms "exec.robust");
    ms "exec.static_ms" (span_ms "exec.static");
    ms "exec.replan_ms" (diff_ms "exec.robust" "exec.static");
    count "exec.retries";
    count "exec.lost_tasks";
    count "exec.degraded_phases";
    ms "store.ckpt_run_ms" (span_ms "store.ckpt_run");
    ms "store.ckpt_extra_ms" (diff_ms "store.ckpt_run" "exec.robust");
    ms "store.resume_ms" (span_ms "store.resume");
    count "store.records";
    ("store.bytes", "B", mean "store.bytes");
    ("gc.minor_mw_per_op", "Mw", mean "gc.minor_words" /. 1e6);
    ("gc.promoted_mw_per_op", "Mw", mean "gc.promoted_words" /. 1e6);
    ("gc.major_collections_per_op", "count", mean "gc.major_collections");
    ("trace.coverage", "ratio", coverage);
    ("trace.overhead", "ratio", ratio (span_ms "op") (median untraced_ms) -. 1.);
  ]

(* ---- trace export --------------------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Chrome trace-event JSON (opens in Perfetto): ops and their layer
   calls on thread 1, duplicate inner-layer calls on thread 2. *)
let chrome_trace (trace : Trace.t) =
  let spans = List.rev trace.Trace.spans in
  let t0 =
    List.fold_left (fun a (s : Trace.span) -> min a s.Trace.start) Int64.max_int spans
  in
  let us t = Int64.to_float (Int64.sub t t0) /. 1e3 in
  let events =
    List.map
      (fun (s : Trace.span) ->
        Printf.sprintf
          "{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"op\":%d,\"id\":%d,\"parent\":%d}}"
          (json_string s.Trace.name)
          (json_string (if s.Trace.duplicate then "duplicate" else "op"))
          (us s.Trace.start)
          (Int64.to_float (Int64.sub s.Trace.stop s.Trace.start) /. 1e3)
          (if s.Trace.duplicate then 2 else 1)
          s.Trace.op s.Trace.id s.Trace.parent)
      spans
  in
  "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"note\":\"tid 2 holds \
   duplicate calls of inner layers on the op's input, made after the op; \
   they are not slices of it\"},\"traceEvents\":[\n"
  ^ String.concat ",\n" events
  ^ "\n]}\n"

(* Self time per layer: a span's duration minus its children's. *)
let self_time_table ~workload ~seed (trace : Trace.t) =
  let children = child_ms trace in
  let rows = Hashtbl.create 16 in
  List.iter
    (fun (s : Trace.span) ->
      let self = Trace.ms s -. children s.Trace.id in
      let key = (s.Trace.duplicate, s.Trace.name) in
      let calls, total = Option.value ~default:(0, 0.) (Hashtbl.find_opt rows key) in
      Hashtbl.replace rows key (calls + 1, total +. self))
    trace.Trace.spans;
  let op_total =
    Hashtbl.fold
      (fun (dup, _) (_, self) a -> if dup then a else a +. self)
      rows 0.
  in
  let sorted =
    Hashtbl.fold (fun k v a -> (k, v) :: a) rows []
    |> List.sort (fun ((d1, _), (_, t1)) ((d2, _), (_, t2)) ->
           compare (d1, -.t1) (d2, -.t2))
  in
  let b = Buffer.create 1024 in
  Printf.bprintf b "self time per layer: %s, seed %d\n" workload seed;
  Printf.bprintf b "%-24s %7s %12s %12s %8s\n" "span" "calls" "self ms" "ms/call"
    "share";
  List.iter
    (fun ((dup, name), (calls, self)) ->
      Printf.bprintf b "%-24s %7d %12.3f %12.4f %8s\n"
        (if dup then name ^ " (dup)" else name)
        calls self
        (self /. float calls)
        (if dup then "-" else Printf.sprintf "%.1f%%" (100. *. self /. op_total)))
    sorted;
  Printf.bprintf b
    "\"op\" is the part of each op outside its layer calls.  (dup) rows are \
     duplicate calls of an inner layer on the op's input, made after the \
     op: not part of it, so they have no share.\n";
  Buffer.contents b

(* ---- host speed ----------------------------------------------------------- *)

(* A shared VM's speed drifts over minutes: on a 2-vCPU 2.1 GHz VM,
   cache-bound code ran up to 1.6x slower at times (with the same ratio
   in CPU time), while a register-only loop did not move.  Times are
   therefore reported at a reference host speed: as measured, times
   reference_probe_ms / (median time of [probe] in the run).  The probe
   uses no library code; it hashes, allocates small blocks and sorts -
   the cache-bound work the ops do.  It runs between ops, and starts
   from a state the ops do not set: a full major collection clears the
   heap of the ops' garbage, and an untimed warm-up run puts the probe's
   own data in the caches.  host.probe_ms, the measured probe time, is a
   per-layer metric. *)
let reference_probe_ms = 5.5

let probe () =
  let t0 = now () in
  let h = Hashtbl.create 1024 in
  for i = 0 to 20_000 do
    Hashtbl.replace h (i * 7919 mod 4099) (float i, i)
  done;
  let a = Array.init 8000 (fun i -> i * 48271 mod 65537) in
  Array.sort compare a;
  let acc = ref 0 in
  for i = 0 to 30_000 do
    match Hashtbl.find_opt h (i mod 4099) with
    | Some (_, j) -> acc := !acc + j
    | None -> ()
  done;
  ignore (Sys.opaque_identity (!acc, a));
  ms_between t0 (now ())

(* Probes run after every [every]-th op, about 40 times per pass over
   the cases: at points that depend on the inputs alone, so that the
   probes' own collections leave the heap's growth (peak_heap_mb) a
   function of the inputs. *)
type host = { mutable every : int; mutable probes : float list }

let host = { every = 1; probes = [] }

let probe_after ~ops =
  if host.probes = [] || ops mod host.every = 0 then begin
    Gc.full_major ();
    ignore (probe ());
    host.probes <- probe () :: host.probes
  end

(* multiply a measured time by this *)
let host_scale () = reference_probe_ms /. median host.probes

(* ---- main loop ------------------------------------------------------------ *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  answers : string option array;  (** digest of each case's first answer *)
  tasks : R.t option array;
  committed : string option array;  (** reference.txt's throughputs *)
}

(* lines "<workload> <case> <exact throughput>"; a workload with lines
   must have one for every case *)
let load_reference ~file ~workload ~cases =
  let refs = Array.make cases None in
  In_channel.with_open_text file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.iter (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | [ w; i; ntask ] when w = workload ->
           let i = int_of_string i in
           if i < cases then refs.(i) <- Some ntask
         | _ -> ());
  if Array.exists Option.is_some refs && Array.exists Option.is_none refs then
    failwith (Printf.sprintf "%s: incomplete reference for %s" file workload);
  refs

(* Run one op, check it outside the timed region, and return its wall
   time and outcome when it succeeded. *)
let run_op tally ~trace ~stats ~extras i (case : case) =
  tally.attempted <- tally.attempted + 1;
  let fail what =
    tally.failed <- tally.failed + 1;
    Printf.eprintf "op %d (case %d) failed: %s\n%!" tally.attempted i what;
    None
  in
  let t0 = now () in
  match Trace.span trace "op" (fun () -> case trace stats) with
  | exception e -> fail ("raised " ^ Printexc.to_string e)
  | o -> (
    let ms = ms_between t0 (now ()) in
    let counters = extras o in
    match o.check () with
    | Error what -> fail what
    | Ok () -> (
      let answer = Digest.to_hex (Digest.string (o.answer ())) in
      let throughput = Option.map R.to_string o.throughput in
      match (tally.answers.(i), tally.committed.(i)) with
      | Some a, _ when a <> answer -> fail "answer differs from the case's first run"
      | _, Some c when throughput <> Some c ->
        fail ("throughput differs from reference.txt's " ^ c)
      | _ ->
        tally.answers.(i) <- Some answer;
        if tally.tasks.(i) = None then tally.tasks.(i) <- Some o.tasks;
        Some (ms, o, counters)))

let print_result tally metrics =
  let fields =
    List.map
      (fun (name, unit, v) ->
        let v = if Float.is_finite v then v else 0. in
        Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}" (json_string name) v
          (json_string unit))
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (tally.failed = 0 && tally.attempted > 0)
    tally.attempted tally.failed
    (String.concat ", " fields)

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 10.
  and traced = ref 0 and tiny = ref false and print_reference = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME solve-graph | solve-tree | recover");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int traced, "0|1 1: the traced per-layer run");
      ("--tiny", Arg.Set tiny, " tiny inputs (smoke test)");
      ( "--print-reference",
        Arg.Set print_reference,
        " print the exact throughputs of one pass in reference.txt's format" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  let setup =
    match List.assoc_opt !workload workloads with
    | Some s -> s
    | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
  in
  let dir = Filename.concat out_dir (Printf.sprintf "%s-%d" !workload (Unix.getpid ())) in
  mkdir_p dir;
  at_exit (fun () -> rm_rf dir);
  (* set-up several times; the median is setup_s *)
  let setups = if !tiny then 1 else 5 in
  let setup_s, cases =
    let times = ref [] and cases = ref [||] in
    for _ = 1 to setups do
      let t0 = now () in
      cases := setup ~tiny:!tiny ~seed:!seed ~dir;
      times := (ms_between t0 (now ()) /. 1e3) :: !times
    done;
    (median !times, !cases)
  in
  let k = Array.length cases in
  host.every <- max 2 (k / 40);
  let tally =
    {
      attempted = 0;
      failed = 0;
      answers = Array.make k None;
      tasks = Array.make k None;
      committed =
        (if !seed = default_seed && (not !tiny) && not !print_reference then
           load_reference ~file:reference_file ~workload:!workload ~cases:k
         else Array.make k None);
    }
  in
  let untraced i = run_op tally ~trace:Trace.off ~stats:None ~extras:(fun _ -> []) i cases.(i) in
  if !print_reference then begin
    Array.iteri
      (fun i _ ->
        Option.iter
          (fun (_, o, _) ->
            Option.iter
              (fun t -> Printf.printf "%s %d %s\n" !workload i (R.to_string t))
              o.throughput)
          (untraced i))
      cases;
    exit (if tally.failed = 0 then 0 else 1)
  end;
  let deadline = Int64.add (now ()) (Int64.of_float (!seconds *. 1e9)) in
  let measuring () = Int64.compare (now ()) deadline < 0 in
  if !traced = 0 then begin
    (* closed loop over the cases until the time is up and every case
       ran at least once *)
    let ops_ms = Array.make k [] and headline = Array.make k [] and i = ref 0 in
    (* the top heap after one pass over the cases: later passes repeat
       them, and would only add chances to reach a higher mark *)
    let heap_words = ref 0 in
    while !i < k || measuring () do
      (match untraced (!i mod k) with
      | Some (ms, o, _) ->
        probe_after ~ops:tally.attempted;
        let c = !i mod k in
        ops_ms.(c) <- ms :: ops_ms.(c);
        headline.(c) <- Option.value ~default:ms o.headline_ms :: headline.(c)
      | None -> ());
      incr i;
      if !i = k then heap_words := (Gc.quick_stat ()).Gc.top_heap_words
    done;
    (* each case's median, so every case weighs the same however often it
       ran before the time was up *)
    let per_case a =
      Array.to_list a |> List.filter_map (function [] -> None | l -> Some (median l))
    in
    let headline = per_case headline and ops_ms = per_case ops_ms in
    let tasks =
      Array.fold_left
        (fun a t -> a +. Option.fold ~none:0. ~some:R.to_float t)
        0. tally.tasks
    in
    let scale = host_scale () in
    (* BENCHMARK.json's end_to_end metrics, in its order *)
    let metrics =
      [
        ("setup_s", "s", setup_s *. scale);
        ("latency_ms_p50", "ms", median headline *. scale);
        ("latency_ms_p90", "ms", quantile 0.9 headline *. scale);
        ( "ops_per_s",
          "1/s",
          float (List.length ops_ms)
          /. (List.fold_left ( +. ) 0. ops_ms *. scale /. 1e3) );
        ("tasks_completed", "count", tasks);
        ( "peak_heap_mb",
          "MB",
          float !heap_words *. float (Sys.word_size / 8) /. 1048576. );
      ]
    in
    Printf.eprintf
      "%s seed %d: %d ops (%d cases), setup x%d; probe %.3f ms (%d samples), \
       so measured times x %.4f; as measured: latency p50 %.4f ms, p90 %.4f ms\n"
      !workload !seed tally.attempted (List.length headline) setups
      (median host.probes) (List.length host.probes) scale (median headline)
      (quantile 0.9 headline);
    List.iter (fun (n, _, v) -> Printf.eprintf "  %-16s %.6g\n" n v) metrics;
    print_result tally metrics
  end
  else begin
    (* pairs of passes over every case: untraced, then traced with the
       duplicate inner-layer calls and layer counters *)
    let trace = Trace.create true in
    let untraced_ms = ref [] and ops = ref [] and first = ref true in
    while !first || measuring () do
      first := false;
      for i = 0 to k - 1 do
        Option.iter
          (fun (ms, _, _) ->
            probe_after ~ops:tally.attempted;
            untraced_ms := ms :: !untraced_ms)
          (untraced i)
      done;
      for i = 0 to k - 1 do
        let op_id = tally.attempted in
        trace.Trace.op <- op_id;
        let stats = Lp.Stats.create () in
        let g0 = Gc.quick_stat () in
        let extras o =
          let g1 = Gc.quick_stat () in
          ("gc.minor_words", g1.Gc.minor_words -. g0.Gc.minor_words)
          :: ("gc.promoted_words", g1.Gc.promoted_words -. g0.Gc.promoted_words)
          :: ( "gc.major_collections",
               float (g1.Gc.major_collections - g0.Gc.major_collections) )
          :: (stats_counters stats @ o.extras trace)
        in
        match run_op tally ~trace ~stats:(Some stats) ~extras i cases.(i) with
        | Some (ms, _, counters) ->
          probe_after ~ops:tally.attempted;
          ops := { op_id; counters } :: !ops
        | None -> ()
      done
    done;
    let metrics =
      layer_metrics ~trace ~ops:!ops ~untraced_ms:!untraced_ms ~scale:(host_scale ())
      @ [ ("host.probe_ms", "ms", median host.probes) ]
    in
    mkdir_p out_dir;
    let base = Filename.concat out_dir (Printf.sprintf "%s-seed%d" !workload !seed) in
    write_file (base ^ ".trace.json") (chrome_trace trace);
    let table = self_time_table ~workload:!workload ~seed:!seed trace in
    write_file (base ^ ".selftime.txt") table;
    prerr_string table;
    Printf.eprintf "trace: %s.trace.json (%d spans, %d traced ops)\n" base
      (List.length trace.Trace.spans) (List.length !ops);
    List.iter (fun (n, _, v) -> Printf.eprintf "  %-28s %.6g\n" n v) metrics;
    print_result tally metrics
  end
