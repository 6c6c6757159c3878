(* Command-line interface to the steady-state scheduling library.

   Platforms are read from the text format of Platform_parse; see
   `steady-cli format --help`. *)

open Cmdliner

let read_platform path =
  try Ok (Platform_parse.of_file path) with
  | Invalid_argument msg -> Error msg
  | Sys_error msg -> Error msg

let node_of_name p name =
  match Platform.find_node p name with
  | i -> Ok i
  | exception Not_found ->
    Error (Printf.sprintf "unknown node %S" name)

let ( let* ) = Result.bind

let check_periods k =
  if k < 0 then Error (Printf.sprintf "--periods must be >= 0, got %d" k)
  else Ok ()

(* The library rejects invalid input (collective targets, probed
   hosts, a dynamic scenario's phases, traces or checkpoint cadence)
   with [Invalid_argument] before any work runs: report it like any
   other bad input. *)
let rejecting_invalid f = try f () with Invalid_argument msg -> Error msg

(* The checkpoint store raises only when its directory is unusable
   (Solve_store.open_store); every later store call swallows I/O
   errors. *)
let in_checkpoint_dir dir f =
  try Ok (f ()) with
  | (Sys_error _ | Unix.Unix_error _) as e ->
    Error
      (Printf.sprintf "cannot open checkpoint directory %S: %s" dir
         (Printexc.to_string e))

let or_die = function
  | Ok () -> 0
  | Error msg ->
    prerr_endline ("error: " ^ msg);
    1

(* --- common arguments --- *)

let platform_arg =
  let doc = "Platform description file." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"PLATFORM" ~doc)

let master_arg =
  let doc = "Master (source) node name." in
  Arg.(value & opt string "P1" & info [ "master"; "m" ] ~docv:"NODE" ~doc)

let targets_arg =
  let doc = "Comma-separated target node names." in
  Arg.(required & opt (some string) None & info [ "targets"; "t" ] ~docv:"A,B" ~doc)

let periods_arg =
  let doc = "Number of periods to simulate." in
  Arg.(value & opt int 6 & info [ "periods"; "k" ] ~docv:"K" ~doc)

let cache_dir_arg =
  let doc =
    "Persist exact LP solves under $(docv) and reuse them across runs \
     (crash-safe; corrupt records are quarantined and re-solved)."
  in
  let env = Cmd.Env.info "STEADY_CACHE_DIR" ~doc:"Default for --cache-dir." in
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~env ~docv:"DIR" ~doc)

(* Open a disk-backed cache when a directory was requested; on exit
   report its statistics on stderr (stdout carries only the command's
   regular output). *)
let with_cache dir f =
  match dir with
  | None -> f None
  | Some d -> (
    match Lp.Cache.Disk.open_store d with
    | exception e ->
      Error
        (Printf.sprintf "cannot open cache directory %S: %s" d
           (Printexc.to_string e))
    | disk ->
      let cache = Lp.Cache.create ~disk () in
      let res = f (Some cache) in
      Printf.eprintf
        "cache %s: %d hits (%d from disk), %d misses, %d stored, %d \
         quarantined\n"
        d (Lp.Cache.hits cache)
        (Lp.Cache.disk_hits cache)
        (Lp.Cache.misses cache)
        (Lp.Cache.Disk.stores disk)
        (Lp.Cache.Disk.quarantined disk);
      res)

(* --- solve-ms --- *)

let solve_ms_cmd =
  let run path master periods cache_dir =
    or_die
      (let* p = read_platform path in
       let* m = node_of_name p master in
       let* () = check_periods periods in
       with_cache cache_dir @@ fun cache ->
       let sol = Master_slave.solve ?cache p ~master:m in
       Printf.printf "ntask(G) = %s tasks per time unit\n\n"
         (Rat.to_string sol.Master_slave.ntask);
       List.iter
         (fun i ->
           Printf.printf "  %-10s alpha = %-8s tasks/time = %s\n"
             (Platform.name p i)
             (Rat.to_string sol.Master_slave.alpha.(i))
             (Rat.to_string
                (Rat.mul sol.Master_slave.alpha.(i) (Platform.speed p i))))
         (Platform.nodes p);
       print_newline ();
       let sched = Master_slave.schedule sol in
       Format.printf "%a" Schedule.pp sched;
       let sim_run = Master_slave.simulate ~periods sol in
       Printf.printf
         "\nsimulated %d periods: %s tasks (bound %s, strict one-port: ok)\n"
         periods
         (Rat.to_string sim_run.Master_slave.completed)
         (Rat.to_string sim_run.Master_slave.upper_bound);
       Ok ())
  in
  let doc = "Solve steady-state master-slave tasking (§3.1) and reconstruct the schedule." in
  Cmd.v (Cmd.info "solve-ms" ~doc)
    Term.(const run $ platform_arg $ master_arg $ periods_arg $ cache_dir_arg)

(* --- solve-scatter --- *)

let parse_targets p s =
  let names = String.split_on_char ',' s in
  List.fold_left
    (fun acc name ->
      let* acc = acc in
      let* i = node_of_name p (String.trim name) in
      Ok (acc @ [ i ]))
    (Ok []) names

let solve_scatter_cmd =
  let run path source targets periods cache_dir =
    or_die
      (let* p = read_platform path in
       let* s = node_of_name p source in
       let* tg = parse_targets p targets in
       let* () = check_periods periods in
       with_cache cache_dir @@ fun cache ->
       rejecting_invalid @@ fun () ->
       let sol = Scatter.solve ?cache p ~source:s ~targets:tg in
       Printf.printf "scatter throughput TP = %s messages per time unit\n"
         (Rat.to_string sol.Collective.throughput);
       let sim_run = Scatter.simulate ~periods sol in
       Array.iteri
         (fun k d ->
           Printf.printf "  delivered to %s over %s time units: %s\n"
             (Platform.name p (List.nth tg k))
             (Rat.to_string sim_run.Scatter.elapsed)
             (Rat.to_string d))
         sim_run.Scatter.delivered;
       Ok ())
  in
  let doc = "Solve the pipelined scatter LP (§3.2) and simulate the schedule." in
  Cmd.v (Cmd.info "solve-scatter" ~doc)
    Term.(
      const run $ platform_arg $ master_arg $ targets_arg $ periods_arg
      $ cache_dir_arg)

(* --- solve-multicast --- *)

let solve_multicast_cmd =
  let run path source targets cache_dir =
    or_die
      (let* p = read_platform path in
       let* s = node_of_name p source in
       let* tg = parse_targets p targets in
       with_cache cache_dir @@ fun cache ->
       rejecting_invalid @@ fun () ->
       let maxb = Multicast.max_lp_bound ?cache p ~source:s ~targets:tg in
       let sumb = Multicast.scatter_lower_bound ?cache p ~source:s ~targets:tg in
       Printf.printf "max-LP upper bound : %s\n"
         (Rat.to_string maxb.Collective.throughput);
       Printf.printf "scatter lower bound: %s\n"
         (Rat.to_string sumb.Collective.throughput);
       (if Platform.num_edges p <= 24 then begin
          let pack =
            Multicast.best_tree_packing ?cache p ~source:s ~targets:tg
          in
          Printf.printf "best tree packing  : %s  (%d trees)\n"
            (Rat.to_string pack.Multicast.throughput)
            (List.length pack.Multicast.trees);
          if Rat.compare pack.Multicast.throughput maxb.Collective.throughput < 0
          then
            print_endline
              "the max-LP bound is NOT met by tree schedules (cf. §4.3)"
        end
        else print_endline "platform too large for exhaustive tree packing");
       Ok ())
  in
  let doc = "Bracket the pipelined multicast throughput (§3.3/§4.3)." in
  Cmd.v (Cmd.info "solve-multicast" ~doc)
    Term.(const run $ platform_arg $ master_arg $ targets_arg $ cache_dir_arg)

(* --- broadcast --- *)

let broadcast_cmd =
  let run path source cache_dir =
    or_die
      (let* p = read_platform path in
       let* s = node_of_name p source in
       with_cache cache_dir @@ fun cache ->
       let met, bound, achieved = Broadcast.bound_met ?cache p ~source:s in
       Printf.printf "broadcast LP bound: %s\n" (Rat.to_string bound);
       Printf.printf "tree packing      : %s\n" (Rat.to_string achieved);
       Printf.printf "bound met         : %b\n" met;
       Ok ())
  in
  let doc = "Broadcast throughput: LP bound vs achievable tree packing (§4.3)." in
  Cmd.v (Cmd.info "broadcast" ~doc)
    Term.(const run $ platform_arg $ master_arg $ cache_dir_arg)

(* --- experiments --- *)

let experiments_cmd =
  let only =
    let doc = "Run only the experiment with this id (e.g. E5)." in
    Arg.(value & opt (some string) None & info [ "only" ] ~docv:"ID" ~doc)
  in
  let run only =
    let tables = Experiments.all () in
    let tables =
      match only with
      | None -> tables
      | Some id ->
        List.filter
          (fun t -> String.lowercase_ascii t.Exp_common.id = String.lowercase_ascii id)
          tables
    in
    if tables = [] then begin
      prerr_endline "no such experiment";
      1
    end
    else begin
      List.iter
        (fun t ->
          print_string (Exp_common.render t);
          print_newline ())
        tables;
      0
    end
  in
  let doc = "Reproduce the paper's figures and claims (tables E1-E17)." in
  Cmd.v (Cmd.info "experiments" ~doc) Term.(const run $ only)

(* --- dot --- *)

let dot_cmd =
  let run path =
    or_die
      (let* p = read_platform path in
       print_string (Dot.of_platform p);
       Ok ())
  in
  let doc = "Export the platform as a Graphviz digraph." in
  Cmd.v (Cmd.info "dot" ~doc) Term.(const run $ platform_arg)

(* --- infer --- *)

let infer_cmd =
  let hosts_arg =
    let doc = "Comma-separated host names to probe." in
    Arg.(required & opt (some string) None & info [ "hosts" ] ~docv:"A,B,..." ~doc)
  in
  let run path master hosts =
    or_die
      (let* p = read_platform path in
       let* m = node_of_name p master in
       let* hs = parse_targets p hosts in
       rejecting_invalid @@ fun () ->
       let rep = Topology_probe.infer p ~master:m ~hosts:hs in
       List.iter
         (fun (h, t) ->
           Printf.printf "probe %s alone: %s time units (bw %s)\n"
             (Platform.name p h) (Rat.to_string t)
             (Rat.to_string (Rat.inv t)))
         rep.Topology_probe.alone;
       List.iter
         (fun ((a, b), t) ->
           Printf.printf "probe %s + %s: makespan %s\n" (Platform.name p a)
             (Platform.name p b) (Rat.to_string t))
         rep.Topology_probe.joint;
       print_string "inferred clusters:";
       List.iter
         (fun c ->
           Printf.printf "  {%s}"
             (String.concat ", " (List.map (Platform.name p) c)))
         rep.Topology_probe.clusters;
       print_newline ();
       Ok ())
  in
  let doc = "Infer shared bottlenecks from simultaneous probes (§5.3)." in
  Cmd.v (Cmd.info "infer" ~doc) Term.(const run $ platform_arg $ master_arg $ hosts_arg)

(* --- dynamic --- *)

module Dy = Dynamic_sched

let parse_rat what s =
  try Ok (Rat.of_string s)
  with _ -> Error (Printf.sprintf "bad rational %S for %s" s what)

(* "WHERE@T=MULT" -> (where, t, mult) *)
let parse_trace_point spec =
  match String.index_opt spec '@' with
  | None -> Error (Printf.sprintf "bad trace %S (want WHERE@T=MULT)" spec)
  | Some i -> (
    let where = String.sub spec 0 i in
    let rest = String.sub spec (i + 1) (String.length spec - i - 1) in
    match String.index_opt rest '=' with
    | None -> Error (Printf.sprintf "bad trace %S (want WHERE@T=MULT)" spec)
    | Some j ->
      let* t = parse_rat spec (String.sub rest 0 j) in
      let* m =
        parse_rat spec (String.sub rest (j + 1) (String.length rest - j - 1))
      in
      Ok (where, t, m))

let group_traces points =
  List.fold_left
    (fun acc (k, pt) ->
      let prev = try List.assoc k acc with Not_found -> [] in
      (k, prev @ [ pt ]) :: List.remove_assoc k acc)
    [] points

let dynamic_cmd =
  let strategy_arg =
    let doc = "Strategy: static, reactive, oracle or robust." in
    Arg.(value & opt string "robust" & info [ "strategy"; "s" ] ~docv:"S" ~doc)
  in
  let phase_arg =
    let doc = "Phase length (rational)." in
    Arg.(value & opt string "10" & info [ "phase" ] ~docv:"LEN" ~doc)
  in
  let phases_arg =
    let doc = "Number of phases." in
    Arg.(value & opt int 8 & info [ "phases" ] ~docv:"K" ~doc)
  in
  let cpu_trace_arg =
    let doc =
      "CPU multiplier breakpoint, NODE@T=MULT (repeatable; 0 = outage)."
    in
    Arg.(value & opt_all string [] & info [ "cpu-trace" ] ~docv:"SPEC" ~doc)
  in
  let bw_trace_arg =
    let doc =
      "Link multiplier breakpoint, SRC>DST@T=MULT (repeatable; 0 = cut)."
    in
    Arg.(value & opt_all string [] & info [ "bw-trace" ] ~docv:"SPEC" ~doc)
  in
  let ckpt_dir_arg =
    let doc =
      "Checkpoint the run (robust only) into $(docv): the executor's and \
       the simulator's state at each checkpoint epoch are committed \
       through the crash-safe store, and --resume continues from there."
    in
    Arg.(
      value & opt (some string) None & info [ "checkpoint-dir" ] ~docv:"DIR" ~doc)
  in
  let every_arg =
    let doc = "Checkpoint write cadence, in epochs." in
    Arg.(value & opt int 1 & info [ "checkpoint-every" ] ~docv:"K" ~doc)
  in
  let resume_arg =
    let doc =
      "Resume a crashed checkpointed run from --checkpoint-dir instead of \
       starting it; bit-identical to the uninterrupted run, and a \
       missing or corrupt record degrades to a cold start."
    in
    Arg.(value & flag & info [ "resume" ] ~doc)
  in
  let halt_at_arg =
    let doc =
      "Crash injection: die (like kill -9) at this epoch boundary, \
       between 1 and the phase count minus 1, after any checkpoint due \
       there is committed.  Requires --checkpoint-dir; not with --resume."
    in
    Arg.(value & opt (some int) None & info [ "halt-at" ] ~docv:"K" ~doc)
  in
  let print_outcome (o : Dy.outcome) =
    Printf.printf "completed %s tasks\n" (Rat.to_string o.Dy.completed);
    List.iteri
      (fun i c -> Printf.printf "  phase %d: %s\n" i (Rat.to_string c))
      o.Dy.per_phase;
    let l = o.Dy.losses in
    if l <> Dy.no_losses then
      Printf.printf
        "losses: %d timed out, %d cancelled, %d retries, %d lost, %d \
         degraded phases, %d dead nodes, %d dead edges\n"
        l.Dy.timed_out_transfers l.Dy.cancelled_transfers l.Dy.retries
        l.Dy.lost_tasks l.Dy.degraded_phases l.Dy.dead_nodes l.Dy.dead_edges
  in
  let run path master strategy phase phases cpu_specs bw_specs ckpt_dir every
      resume halt_at =
    or_die
      (let* p = read_platform path in
       let* m = node_of_name p master in
       let* strategy =
         match String.lowercase_ascii strategy with
         | "static" -> Ok Dy.Static
         | "reactive" -> Ok Dy.Reactive
         | "oracle" -> Ok Dy.Oracle
         | "robust" -> Ok Dy.Robust
         | s -> Error (Printf.sprintf "unknown strategy %S" s)
       in
       let* phase = parse_rat "--phase" phase in
       let* cpu_points =
         List.fold_left
           (fun acc spec ->
             let* acc = acc in
             let* w, t, mult = parse_trace_point spec in
             let* n = node_of_name p w in
             Ok ((n, (t, mult)) :: acc))
           (Ok []) cpu_specs
       in
       let* bw_points =
         List.fold_left
           (fun acc spec ->
             let* acc = acc in
             let* w, t, mult = parse_trace_point spec in
             match String.index_opt w '>' with
             | None -> Error (Printf.sprintf "bad link %S (want SRC>DST)" w)
             | Some i -> (
               let* src = node_of_name p (String.sub w 0 i) in
               let* dst =
                 node_of_name p (String.sub w (i + 1) (String.length w - i - 1))
               in
               match Platform.find_edge p src dst with
               | Some e -> Ok ((e, (t, mult)) :: acc)
               | None -> Error (Printf.sprintf "no link %S in the platform" w)))
           (Ok []) bw_specs
       in
       let sc =
         {
           Dy.platform = p;
           master = m;
           cpu_traces = group_traces (List.rev cpu_points);
           bw_traces = group_traces (List.rev bw_points);
           phase;
           phases;
         }
       in
       rejecting_invalid @@ fun () ->
       let cache = Lp.Cache.create () in
       match (ckpt_dir, resume, halt_at) with
       | None, true, _ -> Error "--resume requires --checkpoint-dir"
       | None, _, Some _ -> Error "--halt-at requires --checkpoint-dir"
       | None, false, None ->
         print_outcome (Dy.run ~cache sc strategy);
         Ok ()
       | Some _, _, _ when strategy <> Dy.Robust ->
         Error "--checkpoint-dir requires the robust strategy"
       | Some _, true, Some _ ->
         Error "--halt-at cannot be combined with --resume"
       | Some dir, true, _ ->
         let checkpoint = { Dy.Checkpoint.dir; every } in
         let* o, from =
           in_checkpoint_dir dir (fun () -> Dy.resume ~checkpoint sc)
         in
         (match from with
         | Some k -> Printf.printf "resumed from epoch %d\n" k
         | None -> print_endline "no usable checkpoint: cold start");
         print_outcome o;
         Ok ()
       | Some dir, false, halt_at -> (
         let checkpoint = { Dy.Checkpoint.dir; every } in
         match
           in_checkpoint_dir dir (fun () ->
               Dy.run ~cache ~checkpoint ?halt_at sc strategy)
         with
         | Error _ as e -> e
         | Ok o ->
           print_outcome o;
           Ok ()
         | exception Dy.Checkpoint.Halted k ->
           (* checkpoints are written at the positive multiples of the
              cadence, so the last one before the kill is at [committed] *)
           let committed = k - (k mod every) in
           if committed = k then
             Printf.printf
               "halted at epoch %d (checkpoint committed); rerun with \
                --resume to continue\n"
               k
           else if committed > 0 then
             Printf.printf
               "halted at epoch %d (last checkpoint committed at epoch \
                %d); rerun with --resume to continue from there\n"
               k committed
           else
             Printf.printf
               "halted at epoch %d (no checkpoint committed yet); rerun \
                with --resume to start over\n"
               k;
           Ok ()))
  in
  let doc =
    "Run the phase-based dynamic strategies (§5.5) under multiplier \
     traces, with optional crash-recoverable checkpointing."
  in
  Cmd.v (Cmd.info "dynamic" ~doc)
    Term.(
      const run $ platform_arg $ master_arg $ strategy_arg $ phase_arg
      $ phases_arg $ cpu_trace_arg $ bw_trace_arg $ ckpt_dir_arg $ every_arg
      $ resume_arg $ halt_at_arg)

(* --- chaos --- *)

let chaos_cmd =
  let seed_arg =
    let doc = "Campaign seed (campaigns are deterministic in it)." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let smoke_arg =
    let doc = "Single-density single-seed subset (fast; what CI runs)." in
    Arg.(value & flag & info [ "smoke" ] ~doc)
  in
  let shapes_arg =
    let doc =
      "Comma-separated platform shapes to sweep (default: the full axis \
       of stars, random trees and random connected graphs)."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "chaos-shapes" ] ~docv:"S1,S2" ~doc)
  in
  let run seed smoke shapes =
    let shapes =
      Option.map
        (fun s -> List.map String.trim (String.split_on_char ',' s))
        shapes
    in
    match Chaos.run_campaign ~smoke ?shapes ~seed () with
    | exception Invalid_argument msg -> or_die (Error msg)
    | s ->
      Format.printf "%a@." Chaos.pp_summary s;
      if s.Chaos.violations = [] then 0 else 1
  in
  let doc =
    "Fuzz the failure-aware scheduler: seeded fault plans across shapes \
     and densities, an invariant battery on every run (including \
     kill-and-resume crash recovery); non-zero exit on any violation."
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(const run $ seed_arg $ smoke_arg $ shapes_arg)

(* --- format help --- *)

let format_cmd =
  let run () =
    print_string
      "Platform file format (one declaration per line, # comments):\n\n\
      \  node P1 w=2        computing node: 2 time units per task\n\
      \  node R w=inf       pure router (cannot compute)\n\
      \  edge P1 R c=3/2    oriented link: 3/2 time units per data unit\n\
      \  link P1 R c=0.5    both directions at once\n\n\
       Weights and costs accept integers, fractions (a/b), decimals and\n\
       (for weights) inf.\n";
    0
  in
  let doc = "Describe the platform file format." in
  Cmd.v (Cmd.info "format" ~doc) Term.(const run $ const ())

let main =
  let doc = "steady-state scheduling on heterogeneous clusters" in
  let info = Cmd.info "steady-cli" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      solve_ms_cmd;
      solve_scatter_cmd;
      solve_multicast_cmd;
      broadcast_cmd;
      experiments_cmd;
      dynamic_cmd;
      chaos_cmd;
      dot_cmd;
      infer_cmd;
      format_cmd;
    ]

let () = exit (Cmd.eval' main)
