(* Crash recovery: a checkpointed Robust run killed at any epoch must
   resume bit-identically from the on-disk record, and any damage to
   that record — truncation, bit flips, version skew, stale tempfiles —
   must degrade to a cold start that still produces the identical
   answer.  Recovery may cost time, never answers. *)

module R = Rat
module Dy = Dynamic_sched
module MS = Master_slave

let r = R.of_ints
let ri = R.of_int
let rat = Alcotest.testable R.pp R.equal

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let fresh_dir =
  let ctr = ref 0 in
  fun () ->
    incr ctr;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "steady-recovery-test-%d-%d" (Unix.getpid ()) !ctr)
    in
    rm_rf d;
    d

(* multi-hop churn scenario: a random tree with a link cut, a CPU
   outage and a slowdown, all with recoveries — every delivery is a
   store-and-forward relay, so the snapshot carries real multi-hop
   executor state (arrears, backlog, retries) across the kill *)
let tree_scenario () =
  let p = Platform_gen.random_tree ~seed:5 ~nodes:7 () in
  {
    Dy.platform = p;
    master = 0;
    cpu_traces =
      [ (3, [ (ri 8, R.zero); (ri 24, R.one) ]); (5, [ (ri 16, r 1 2) ]) ];
    bw_traces = [ (2, [ (ri 8, R.zero); (ri 32, R.one) ]) ];
    phase = ri 8;
    phases = 6;
  }

(* single-hop star with both a CPU outage and a link cut: the shape the
   curated dynamic tests pin down, here under the checkpoint machinery *)
let star_scenario () =
  let p =
    Platform_gen.star ~master_weight:(Ext_rat.of_int 2)
      ~slaves:[ (Ext_rat.of_int 1, ri 1); (Ext_rat.of_int 2, r 3 2) ]
      ()
  in
  {
    Dy.platform = p;
    master = 0;
    cpu_traces = [ (1, [ (ri 8, R.zero); (ri 24, R.one) ]) ];
    bw_traces = [ (1, [ (ri 16, R.zero) ]) ];
    phase = ri 8;
    phases = 6;
  }

(* [star_scenario ()] plus a link between its slaves, after the star's
   edges (so the traces keep theirs): a connected graph, where every
   plan goes through the LP and so through a caller's cache *)
let graph_scenario () =
  let sc = star_scenario () in
  let text = Platform_parse.to_string sc.Dy.platform in
  let graph =
    Platform_parse.of_string (text ^ "edge S1 S2 c=1\nedge S2 S1 c=1\n")
  in
  { sc with Dy.platform = graph }

(* A star whose slaves (weights 3 and 2, links 1 and 3/2) are also
   linked to each other, with phases ten times as long: both master links
   run at a sixteenth of their speed in epochs 1-3, so task files pile
   up (past 128 in flight, and the in-flight table grows to 128
   buckets), then drain; at epoch 8, with 127 still in flight, the link
   to S1 is cut for an epoch and the boundary cancels every file queued
   on it.  A table rebuilt from that checkpoint has 64 buckets. *)
let crowded_scenario () =
  let star =
    Platform_gen.star ~master_weight:(Ext_rat.of_int 2)
      ~slaves:[ (Ext_rat.of_int 3, ri 1); (Ext_rat.of_int 2, r 3 2) ]
      ()
  in
  let text = Platform_parse.to_string star in
  let slow = [ (ri 80, r 1 16); (ri 320, R.one) ] in
  {
    Dy.platform =
      Platform_parse.of_string (text ^ "edge S1 S2 c=1\nedge S2 S1 c=1\n");
    master = 0;
    cpu_traces = [];
    bw_traces = [ (0, slow @ [ (ri 640, R.zero); (ri 720, R.one) ]); (2, slow) ];
    phase = ri 80;
    phases = 12;
  }

let halt_run ?cache ~checkpoint ~halt sc =
  match Dy.run ?cache ~checkpoint ~halt_at:halt sc Dy.Robust with
  | _ -> Alcotest.failf "halt hook at epoch %d did not fire" halt
  | exception Dy.Checkpoint.Halted h ->
    Alcotest.(check int) "halted at the requested epoch" halt h

(* record files committed by the store (tempfiles and the quarantine
   subdirectory excluded) *)
let data_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f ->
         (not (String.length f >= 4 && String.sub f 0 4 = ".tmp"))
         && not (Sys.is_directory (Filename.concat dir f)))

(* Split a committed store record into (key, value) by its envelope:
   magic\n<len> <sum>\n<klen>\n<key><value>. *)
let record_parts raw =
  let nl1 = String.index raw '\n' in
  let nl2 = String.index_from raw (nl1 + 1) '\n' in
  let payload = String.sub raw (nl2 + 1) (String.length raw - nl2 - 1) in
  let knl = String.index payload '\n' in
  let klen = int_of_string (String.sub payload 0 knl) in
  let key = String.sub payload (knl + 1) klen in
  (key, String.sub payload (knl + 1 + klen) (String.length payload - knl - 1 - klen))

let v5 = "steady-ckpt 5\n"

(* the one checkpoint record of a store directory: (path, key, value) *)
let ckpt_record dir =
  let ckpts =
    List.filter_map
      (fun f ->
        let path = Filename.concat dir f in
        let ic = open_in_bin path in
        let raw = really_input_string ic (in_channel_length ic) in
        close_in ic;
        let key, value = record_parts raw in
        if String.starts_with ~prefix:v5 value then Some (path, key, value)
        else None)
      (List.filter (fun f -> Filename.check_suffix f ".rec") (data_files dir))
  in
  match ckpts with
  | [ c ] -> c
  | l -> Alcotest.failf "expected one checkpoint record, found %d" (List.length l)

(* overwrite a record with [value] inside a valid envelope (length and
   checksum right), so the byte layer hands it to the decoder *)
let rewrite_record path key value =
  let payload = Printf.sprintf "%d\n%s%s" (String.length key) key value in
  let oc = open_out_bin path in
  Printf.fprintf oc "steady-solve-store 1\n%d %s\n%s" (String.length payload)
    (Solve_store.checksum payload) payload;
  close_out oc

(* The lines of a current record, and the index of the first line of
   each section ("live", "running", ...). *)
let sections value =
  let lines = Array.of_list (String.split_on_char '\n' value) in
  let find name =
    let rec go i =
      if i >= Array.length lines then
        Alcotest.failf "record has no %s section" name
      else if String.starts_with ~prefix:(name ^ " ") lines.(i) then i
      else go (i + 1)
    in
    go 0
  in
  (lines, find)

let edit_lines value f =
  let lines, find = sections value in
  String.concat "\n" (f (Array.to_list lines) find)

let replace_at k by lines = List.mapi (fun i l -> if i = k then by l else l) lines

let test_resume_every_epoch () =
  List.iter
    (fun (label, sc) ->
      let uninterrupted = Dy.run sc Dy.Robust in
      for halt = 1 to sc.Dy.phases - 1 do
        let dir = fresh_dir () in
        let checkpoint = { Dy.Checkpoint.dir; every = 1 } in
        halt_run ~checkpoint ~halt sc;
        let resumed, from = Dy.resume ~checkpoint sc in
        Alcotest.(check (option int))
          (Printf.sprintf "%s: resumed from the kill epoch %d" label halt)
          (Some halt) from;
        Alcotest.(check bool)
          (Printf.sprintf "%s: kill at %d is bit-identical" label halt)
          true
          (Dy.outcomes_equal uninterrupted resumed);
        rm_rf dir
      done)
    [ ("tree", tree_scenario ()); ("star", star_scenario ()) ]

(* A live Robust epoch whose multipliers equal the previous live
   epoch's reuses that epoch's decision.  Here slave 1's CPU is out in
   epochs 2-3 and back, unchanged, in epoch 4, and slave 2 slows from
   epoch 6: flat stretches with three changes.  A checkpoint holds no
   decision, so a resume's first live epoch must plan; were the decision
   of the epoch before the kill taken as the previous one, a kill at
   epoch 4 would reuse the outage's decision on the recovered platform.
   Each resume must equal the uninterrupted run and leave the record an
   uninterrupted checkpointed run leaves. *)
let test_resume_reuses_no_replayed_decision () =
  List.iter
    (fun (label, p) ->
      let sc =
        {
          Dy.platform = p;
          master = 0;
          cpu_traces =
            [
              (1, [ (ri 16, R.zero); (ri 32, R.one) ]);
              (2, [ (ri 48, r 1 2) ]);
            ];
          bw_traces = [];
          phase = ri 8;
          phases = 8;
        }
      in
      let uninterrupted = Dy.run sc Dy.Robust in
      let dir = fresh_dir () in
      ignore (Dy.run ~checkpoint:{ Dy.Checkpoint.dir; every = 1 } sc Dy.Robust);
      let _, _, final = ckpt_record dir in
      rm_rf dir;
      for halt = 1 to sc.Dy.phases - 1 do
        let dir = fresh_dir () in
        let checkpoint = { Dy.Checkpoint.dir; every = 1 } in
        halt_run ~checkpoint ~halt sc;
        let resumed, from = Dy.resume ~checkpoint sc in
        let what = Printf.sprintf "%s, kill at %d" label halt in
        Alcotest.(check (option int))
          (what ^ ": resumed there") (Some halt) from;
        Alcotest.(check bool) (what ^ ": bit-identical") true
          (Dy.outcomes_equal uninterrupted resumed);
        let _, _, value = ckpt_record dir in
        Alcotest.(check string) (what ^ ": same record bytes") final value;
        rm_rf dir
      done)
    [
      ("star", (star_scenario ()).Dy.platform);
      ("graph", (graph_scenario ()).Dy.platform);
    ]

(* More than 64 task files in flight at a checkpoint, on a graph: the
   in-flight table a resume rebuilds has another bucket count than the
   one the run grew, and the boundary sweep must cancel in the same
   order either way *)
let test_resume_crowded_graph () =
  let sc = crowded_scenario () in
  let uninterrupted = Dy.run sc Dy.Robust in
  let most = ref 0 in
  for halt = 1 to sc.Dy.phases - 1 do
    let dir = fresh_dir () in
    let checkpoint = { Dy.Checkpoint.dir; every = 1 } in
    halt_run ~checkpoint ~halt sc;
    let _, _, value = ckpt_record dir in
    let lines, find = sections value in
    most := max !most (int_of_string (List.nth (String.split_on_char ' ' lines.(find "live")) 1));
    let resumed, from = Dy.resume ~checkpoint sc in
    Alcotest.(check (option int))
      (Printf.sprintf "resumed from the kill epoch %d" halt)
      (Some halt) from;
    Alcotest.(check bool)
      (Printf.sprintf "kill at %d is bit-identical" halt)
      true
      (Dy.outcomes_equal uninterrupted resumed);
    rm_rf dir
  done;
  Printf.printf "most files in flight: %d\n" !most;
  Alcotest.(check bool) "more than 64 files in flight at a checkpoint" true
    (!most > 64);
  Alcotest.(check bool) "a boundary cancelled some" true
    (uninterrupted.Dy.losses.Dy.cancelled_transfers > 1)

let test_one_record_per_run () =
  (* a checkpointed run commits executor state only: each checkpoint
     overwrites the run's one record, and no LP solve is written *)
  let sc = tree_scenario () in
  let dir = fresh_dir () in
  let checkpoint = { Dy.Checkpoint.dir; every = 1 } in
  ignore (Dy.run ~checkpoint sc Dy.Robust);
  Alcotest.(check int) "one record in the directory" 1
    (Solve_store.entries (Solve_store.open_store dir));
  (* ... and it is the checkpoint record *)
  ignore (ckpt_record dir);
  rm_rf dir

let test_strict_resume_with_cadence () =
  (* cadence 2 with a kill at 5: the newest record is epoch 4, so the
     resume continues from epoch 4 and runs 4..5 again; strict mode
     certifies the stitched outcome against a fresh cold-state run *)
  let sc = tree_scenario () in
  let dir = fresh_dir () in
  let checkpoint = { Dy.Checkpoint.dir; every = 2 } in
  halt_run ~checkpoint ~halt:5 sc;
  let _, from = Dy.resume ~strict:true ~checkpoint sc in
  Alcotest.(check (option int))
    "resumes from the newest cadence-aligned record" (Some 4) from;
  rm_rf dir

let test_resume_writes_nothing_it_read () =
  (* cadence 2 with a kill at 5: epoch 4 is the last checkpoint before
     the horizon (6 phases), so the resume has nothing new to commit and
     the record it decoded stays the same file *)
  let sc = tree_scenario () in
  let uninterrupted = Dy.run sc Dy.Robust in
  let dir = fresh_dir () in
  let checkpoint = { Dy.Checkpoint.dir; every = 2 } in
  halt_run ~checkpoint ~halt:5 sc;
  let path, _, value = ckpt_record dir in
  let before = Unix.stat path in
  let resumed, from = Dy.resume ~checkpoint sc in
  Alcotest.(check (option int)) "resumed from epoch 4" (Some 4) from;
  Alcotest.(check bool) "bit-identical" true
    (Dy.outcomes_equal uninterrupted resumed);
  let path', _, value' = ckpt_record dir in
  Alcotest.(check string) "same record file" path path';
  Alcotest.(check int) "record inode unchanged" before.Unix.st_ino
    (Unix.stat path').Unix.st_ino;
  Alcotest.(check string) "record bytes unchanged" value value';
  rm_rf dir

let test_no_cache_round_trip () =
  (* checkpointing composes with a run that has no LP memo: a run
     halted without [?cache] resumes exactly, certified on the spot *)
  let sc = tree_scenario () in
  let uninterrupted = Dy.run sc Dy.Robust in
  let dir = fresh_dir () in
  let checkpoint = { Dy.Checkpoint.dir; every = 1 } in
  halt_run ~checkpoint ~halt:4 sc;
  let resumed, from = Dy.resume ~strict:true ~checkpoint sc in
  Alcotest.(check (option int)) "resumed from the kill epoch" (Some 4) from;
  Alcotest.(check bool) "no-cache resume is bit-identical" true
    (Dy.outcomes_equal uninterrupted resumed);
  rm_rf dir

let test_cross_flag_resume () =
  (* the record holds executor state only, so it does not depend on the
     memo: runs halted with and without [~cache] commit the same bytes,
     and the one halted without resumes from its kill epoch,
     bit-identical to the uninterrupted run without a cache *)
  let sc = star_scenario () in
  let plain = Dy.run sc Dy.Robust in
  let halted ?cache () =
    let dir = fresh_dir () in
    let checkpoint = { Dy.Checkpoint.dir; every = 1 } in
    halt_run ?cache ~checkpoint ~halt:3 sc;
    let _, _, value = ckpt_record dir in
    (checkpoint, value)
  in
  let checkpoint, plain_value = halted () in
  let memo, memo_value = halted ~cache:(Lp.Cache.create ()) () in
  rm_rf memo.Dy.Checkpoint.dir;
  Alcotest.(check string) "same record with and without a cache" memo_value
    plain_value;
  let resumed, from = Dy.resume ~checkpoint sc in
  Alcotest.(check (option int)) "resumed from the kill epoch" (Some 3) from;
  Alcotest.(check bool) "uninterrupted answer" true
    (Dy.outcomes_equal plain resumed);
  rm_rf checkpoint.Dy.Checkpoint.dir

let test_resume_empty_store_cold_starts () =
  let sc = tree_scenario () in
  let uninterrupted = Dy.run sc Dy.Robust in
  let dir = fresh_dir () in
  let resumed, from =
    Dy.resume ~strict:true ~checkpoint:{ Dy.Checkpoint.dir; every = 2 } sc
  in
  Alcotest.(check (option int)) "nothing to resume" None from;
  Alcotest.(check bool) "cold start, same answer" true
    (Dy.outcomes_equal uninterrupted resumed);
  rm_rf dir

let mutilate f path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let b = really_input_string ic n in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc (f b);
  close_out oc

let test_damaged_records_cold_start () =
  (* kill -9 mid-write leaves truncated bytes; disks flip bits; old
     binaries leave version-skewed records — all of it must read as a
     miss (checksum or format rejection), cold start, identical answer *)
  List.iter
    (fun (what, mangle) ->
      let sc = star_scenario () in
      let uninterrupted = Dy.run sc Dy.Robust in
      let dir = fresh_dir () in
      let checkpoint = { Dy.Checkpoint.dir; every = 1 } in
      halt_run ~checkpoint ~halt:3 sc;
      let files = data_files dir in
      Alcotest.(check bool) (what ^ ": records were committed") true
        (files <> []);
      List.iter
        (fun f -> mutilate mangle (Filename.concat dir f))
        files;
      let resumed, from = Dy.resume ~checkpoint sc in
      Alcotest.(check (option int)) (what ^ ": cold start") None from;
      Alcotest.(check bool) (what ^ ": answer unchanged") true
        (Dy.outcomes_equal uninterrupted resumed);
      rm_rf dir)
    [
      ("truncated", fun b -> String.sub b 0 (String.length b / 2));
      ( "bit-flipped",
        fun b ->
          let i = String.length b / 2 in
          String.mapi
            (fun j c -> if j = i then Char.chr (Char.code c lxor 1) else c)
            b );
      ("version-skewed", fun b -> "steady-solve-store 999\n" ^ b);
    ]

(* The record the previous format, "steady-ckpt 4", held for
   [star_scenario ()] killed at epoch 3: the decision log of epochs 0-2,
   then the executor state it was checked against by replaying the log
   (master deficit, cancelled, retries, lost, degraded, backlog length,
   arrears count, dead-CPU and dead-link flags, work marks newest
   first). *)
let v4_value =
  String.concat "\n"
    [ "steady-ckpt 4"; "3"; "3";
      "P"; "4"; "1"; "8"; "1"; "0";
      "P"; "4"; "1"; "4"; "1"; "2";
      "P"; "4"; "1"; "4"; "1"; "2";
      "0"; "0"; "0"; "0"; "0"; "0"; "0"; "000"; "0100"; "3"; "15"; "11"; "0"; "" ]

(* The lines of a format-4 record, the line index of each path count in
   its decision log (in log order), and the index of the state's first
   line, the master deficit, just after the log. *)
let record_layout value =
  let lines = Array.of_list (String.split_on_char '\n' value) in
  (* lines 0-2: magic, epoch, log length; then the log *)
  let pos = ref 3 and counts = ref [] in
  let next () =
    incr pos;
    lines.(!pos - 1)
  in
  let count () = int_of_string (next ()) in
  for _ = 1 to int_of_string lines.(2) do
    if next () = "P" then begin
      ignore (next ());
      for _ = 1 to count () do
        counts := !pos :: !counts;
        ignore (next ());
        for _ = 1 to count () do
          ignore (next ())
        done
      done
    end
  done;
  (lines, List.rev !counts, !pos)

(* A format-4 record rewritten in the "steady-ckpt 2" layout, which
   also carried the reuse flag after the epoch and a timed-out count
   after the master deficit. *)
let v2_value value =
  let lines, _, deficit = record_layout value in
  String.concat "\n"
    (List.concat
       (List.mapi
          (fun i l ->
            if i = 0 then [ "steady-ckpt 2" ]
            else if i = 1 then [ l; "1" ]
            else if i = deficit then [ l; "0" ]
            else [ l ])
          (Array.to_list lines)))

let test_previous_ckpt_format_cold_starts () =
  (* records in the previous checkpoint formats — "steady-ckpt 4", whose
     decision log a resume replayed, "steady-ckpt 3", the same layout
     with a log the LP-vertex planner wrote, "steady-ckpt 2" with its
     reuse flag and timed-out count, and "steady-ckpt 1", which also
     ended with a warm LP basis block — written inside a valid envelope
     (length and checksum right), must be quarantined, and the resume
     cold-starts with the identical answer *)
  let sc = star_scenario () in
  let uninterrupted = Dy.run sc Dy.Robust in
  let basis = "lpbasis 1\n0\n" in
  let v3_value =
    let n = String.length "steady-ckpt 4" in
    "steady-ckpt 3" ^ String.sub v4_value n (String.length v4_value - n)
  in
  let v1_value =
    let v2 = v2_value v4_value in
    let n = String.length "steady-ckpt 2" in
    Printf.sprintf "steady-ckpt 1%sB\n%d\n%s\n"
      (String.sub v2 n (String.length v2 - n))
      (String.length basis) basis
  in
  List.iter
    (fun (what, old_value) ->
      let dir = fresh_dir () in
      let checkpoint = { Dy.Checkpoint.dir; every = 1 } in
      halt_run ~checkpoint ~halt:3 sc;
      let path, key, _ = ckpt_record dir in
      rewrite_record path key old_value;
      Alcotest.(check bool) (what ^ ": byte layer accepts the record") true
        (Solve_store.find (Solve_store.open_store dir) key <> None);
      let resumed, from = Dy.resume ~checkpoint sc in
      Alcotest.(check (option int)) (what ^ ": cold start") None from;
      Alcotest.(check bool) (what ^ ": answer unchanged") true
        (Dy.outcomes_equal uninterrupted resumed);
      Alcotest.(check bool) (what ^ ": record quarantined") true
        (Sys.readdir (Filename.concat dir "quarantine") <> [||]);
      (* the cold run re-checkpointed under the same key, in the
         current format *)
      Alcotest.(check bool) (what ^ ": current-format record re-stored") true
        (match Solve_store.find (Solve_store.open_store dir) key with
        | Some v -> String.starts_with ~prefix:v5 v
        | None -> false);
      rm_rf dir)
    [
      ("steady-ckpt 4", v4_value);
      ("steady-ckpt 3", v3_value);
      ("steady-ckpt 2", v2_value v4_value);
      ("steady-ckpt 1", v1_value);
    ]

(* A record re-sealed inside a valid envelope after an edit that no run
   can leave.  Each must be quarantined, and the resume must run cold to
   the uninterrupted outcome.  The edits, on the star's record at
   epoch 3:
   - the retry counter bumped: every cancellation ends in exactly one of
     a retry, a loss, the backlog or a pending retry timer, so the
     counters no longer add up;
   - an in-flight task file routed over an edge off the platform;
   - a queued transfer moved to the running list, where it shares the
     master's send port with the transfer already running;
   - two work marks swapped, so the marks decrease.
   A record that passes every check is trusted: [resume ~strict:true]
   is the certificate, and the last edit, one more task finished on a
   slave, shows both. *)
let test_forged_state_cold_starts () =
  let sc = star_scenario () in
  let uninterrupted = Dy.run sc Dy.Robust in
  let n_edges = Platform.num_edges sc.Dy.platform in
  let retries value =
    edit_lines value (fun lines find ->
        replace_at (find "counters") (fun _ -> "counters 0 0 1 0 0") lines)
  in
  let off_platform value =
    edit_lines value (fun lines find ->
        replace_at
          (find "live" + 1)
          (fun l ->
            match String.split_on_char ' ' l with
            | id :: a :: _ -> Printf.sprintf "%s %s %d" id a n_edges
            | _ -> Alcotest.failf "live entry %S" l)
          lines)
  in
  let two_on_a_port value =
    edit_lines value (fun lines find ->
        let running = find "running" and queued = find "queued" in
        let arr = Array.of_list lines in
        let count k = int_of_string (List.nth (String.split_on_char ' ' arr.(k)) 1) in
        let clock = List.nth (String.split_on_char ' ' arr.(find "clock")) 1 in
        (* the first queued transfer and the running one on its port *)
        let rec first_transfer k =
          match String.split_on_char ' ' arr.(k) with
          | [ id; "T"; e; x ] -> (k, id, e, x)
          | _ -> first_transfer (k + 1)
        in
        let k, id, e, x = first_transfer (queued + 1) in
        Alcotest.(check bool) "a transfer on that edge is running" true
          (List.exists
             (fun j ->
               match String.split_on_char ' ' arr.(j) with
               | [ _; "T"; e'; _; _; _ ] -> e' = e
               | _ -> false)
             (List.init (count running) (fun j -> running + 1 + j)));
        (* the running list in ascending id order, as the encoder
           writes it, so that the shared port is what gives it away *)
        let forged = String.concat " " [ id; "T"; e; x; x; clock ] in
        let id_of l = int_of_string (List.hd (String.split_on_char ' ' l)) in
        let runs =
          List.init (count running) (fun j -> arr.(running + 1 + j))
          |> List.cons forged
          |> List.sort (fun a b -> Int.compare (id_of a) (id_of b))
        in
        List.concat
          (List.mapi
             (fun i l ->
               if i = running then
                 Printf.sprintf "running %d" (count running + 1) :: runs
               else if i > running && i <= running + count running then []
               else if i = queued then
                 [ Printf.sprintf "queued %d" (count queued - 1) ]
               else if i = k then []
               else [ l ])
             lines))
  in
  let decreasing_marks value =
    edit_lines value (fun lines find ->
        replace_at (find "marks")
          (fun l ->
            match String.split_on_char ' ' l with
            | [ "marks"; n; a; b; c ] -> String.concat " " [ "marks"; n; a; c; b ]
            | _ -> Alcotest.failf "marks line %S" l)
          lines)
  in
  List.iter
    (fun (what, edit) ->
      let dir = fresh_dir () in
      let checkpoint = { Dy.Checkpoint.dir; every = 1 } in
      halt_run ~checkpoint ~halt:3 sc;
      let path, key, value = ckpt_record dir in
      let edited = edit value in
      Alcotest.(check bool) (what ^ ": record edited") false
        (String.equal edited value);
      rewrite_record path key edited;
      let resumed, from = Dy.resume ~checkpoint sc in
      Alcotest.(check (option int)) (what ^ ": cold start") None from;
      Alcotest.(check bool) (what ^ ": record quarantined") true
        (Sys.readdir (Filename.concat dir "quarantine") <> [||]);
      Alcotest.(check bool) (what ^ ": answer unchanged") true
        (Dy.outcomes_equal uninterrupted resumed);
      rm_rf dir)
    [
      ("retry counter", retries);
      ("edge off the platform", off_platform);
      ("two running operations on one port", two_on_a_port);
      ("decreasing work marks", decreasing_marks);
    ];
  (* one more finished task on slave 1 breaks no invariant: the record
     is trusted and the answer moves, and only the strict resume, which
     reruns the scenario uninterrupted, refuses it *)
  let extra_task value =
    edit_lines value (fun lines find ->
        let nodes = find "nodes" in
        List.mapi
          (fun i l ->
            match String.split_on_char ' ' l with
            | [ "1"; cb; cs; sb; ss; rb; rs; work; computed ] when i > nodes ->
              let bump x = string_of_int (int_of_string x + 1) in
              String.concat " " [ "1"; cb; cs; sb; ss; rb; rs; bump work; bump computed ]
            | _ -> l)
          lines)
  in
  let forged () =
    let dir = fresh_dir () in
    let checkpoint = { Dy.Checkpoint.dir; every = 1 } in
    halt_run ~checkpoint ~halt:3 sc;
    let path, key, value = ckpt_record dir in
    rewrite_record path key (extra_task value);
    checkpoint
  in
  let checkpoint = forged () in
  let resumed, from = Dy.resume ~checkpoint sc in
  rm_rf checkpoint.Dy.Checkpoint.dir;
  Alcotest.(check (option int)) "extra task: trusted" (Some 3) from;
  Alcotest.check rat "extra task: one more task completed"
    (R.add uninterrupted.Dy.completed R.one) resumed.Dy.completed;
  let checkpoint = forged () in
  (match Dy.resume ~strict:true ~checkpoint sc with
  | _ -> Alcotest.fail "extra task: the strict resume certified it"
  | exception Failure _ -> ());
  rm_rf checkpoint.Dy.Checkpoint.dir

(* Fuzz the checkpoint record decoder behind a valid envelope.  Four
   families of seeded edits to a format-5 record:
   - a truncation at any byte;
   - one field of one line replaced: by an integer or rational at or
     past [max_int], a zero denominator, a non-canonical or malformed
     number, a stray byte;
   - a queue entry's time moved before the record's clock;
   - a list header's count pushed past its items, or past any bound.
   [resume] must never raise.  The last three families change a number
   the decoder or an invariant reads, and each such record must cold
   start; a cold start always gives the uninterrupted outcome.  A field
   edit can also land on a value no check can tell from a true one (a
   busy time, say): such a record is trusted, resumes, and may end
   elsewhere — and then [resume ~strict:true] on the same record must
   refuse to certify it. *)
let fuzz_values =
  [| "4611686018427387903"; "4611686018427387904"; "-4611686018427387904";
     "-4611686018427387905"; "9223372036854775807"; "999999999999999999";
     "1000000000000000000"; "1/0"; "0/0"; "-1/0"; "1/-0";
     "4611686018427387903/4611686018427387902"; "99999999999999999999999/3";
     "1/4611686018427387904"; "0.5"; "1.5"; "-0"; "+3"; "007"; "0/5"; "2/4";
     "3/1"; ""; "x"; "1e5"; "1/2/3"; "."; "-"; "0"; "1"; "2"; "\000"; "\r" |]

let test_ckpt_decoder_fuzz () =
  let g = Faults.generator ~seed:31 in
  let pick a = a.(Faults.rand_int g (Array.length a)) in
  let lines_of value = Array.of_list (String.split_on_char '\n' value) in
  let join lines = String.concat "\n" (Array.to_list lines) in
  let fields l = Array.of_list (String.split_on_char ' ' l) in
  let unfields f = String.concat " " (Array.to_list f) in
  (* the index of a section's header line, and its count *)
  let section lines name =
    let rec go i =
      if String.starts_with ~prefix:(name ^ " ") lines.(i) then
        (i, int_of_string (fields lines.(i)).(1))
      else go (i + 1)
    in
    go 0
  in
  let edit_field value =
    let lines = lines_of value in
    (* line 0 is the format, the last one empty *)
    let k = 1 + Faults.rand_int g (Array.length lines - 2) in
    let f = fields lines.(k) in
    f.(Faults.rand_int g (Array.length f)) <- pick fuzz_values;
    lines.(k) <- unfields f;
    join lines
  in
  let early_event value =
    let lines = lines_of value in
    let events, n = section lines "events" in
    let clock = R.of_string (fields lines.(fst (section lines "clock"))).(1) in
    if n = 0 then None
    else begin
      let k = events + 1 + Faults.rand_int g n in
      let f = fields lines.(k) in
      f.(0) <- R.to_string (R.sub clock (R.of_ints 1 (1 + Faults.rand_int g 4)));
      lines.(k) <- unfields f;
      Some (join lines)
    end
  in
  let past_bound value =
    let lines = lines_of value in
    let name =
      pick [| "live"; "nodes"; "edges"; "running"; "queued"; "events"; "arrears" |]
    in
    let k, n = section lines name in
    let by =
      pick [| string_of_int (n + 1); "1000000"; "4611686018427387903" |]
    in
    lines.(k) <- name ^ " " ^ by;
    join lines
  in
  let mutate value =
    match Faults.rand_int g 4 with
    | 0 ->
      (`Any, String.sub value 0 (Faults.rand_int g (String.length value)))
    | 1 -> (`Any, edit_field value)
    | 2 -> (
      match early_event value with
      | Some v -> (`Cold "a time before the clock", v)
      | None -> (`Cold "a count past its bound", past_bound value))
    | _ -> (`Cold "a count past its bound", past_bound value)
  in
  let resumed_at = ref 0 and cold = ref 0 and trusted = ref 0 in
  List.iter
    (fun (label, sc) ->
      let uninterrupted = Dy.run sc Dy.Robust in
      for case = 1 to 60 do
        let what = Printf.sprintf "%s case %d" label case in
        let dir = fresh_dir () in
        let checkpoint = { Dy.Checkpoint.dir; every = 1 } in
        halt_run ~checkpoint ~halt:(2 + Faults.rand_int g 3) sc;
        let path, key, value = ckpt_record dir in
        let family, edited = mutate value in
        rewrite_record path key edited;
        (match Dy.resume ~checkpoint sc with
        | resumed, None ->
          incr cold;
          Alcotest.(check bool) (what ^ ": cold start, answer unchanged") true
            (Dy.outcomes_equal uninterrupted resumed)
        | resumed, Some _ -> (
          incr resumed_at;
          (match family with
          | `Cold why -> Alcotest.failf "%s: resumed from %s" what why
          | `Any -> ());
          if not (Dy.outcomes_equal uninterrupted resumed) then begin
            incr trusted;
            let dir' = fresh_dir () in
            let checkpoint' = { Dy.Checkpoint.dir = dir'; every = 1 } in
            halt_run ~checkpoint:checkpoint' ~halt:(2 + Faults.rand_int g 3) sc;
            let path', key', _ = ckpt_record dir' in
            rewrite_record path' key' edited;
            match Dy.resume ~strict:true ~checkpoint:checkpoint' sc with
            | _, Some _ -> Alcotest.failf "%s: strict resume certified" what
            | _, None -> Alcotest.failf "%s: strict resume cold-started" what
            | exception Failure _ -> rm_rf dir'
          end)
        | exception e ->
          Alcotest.failf "%s: resume raised %s" what (Printexc.to_string e));
        rm_rf dir
      done)
    [ ("star", star_scenario ()); ("tree", tree_scenario ()) ];
  Alcotest.(check bool) "most mutations force a cold start" true
    (!cold > !resumed_at);
  Alcotest.(check bool) "few records are trusted into another answer" true
    (!trusted < !cold)

let test_orphan_tmp_swept_on_resume () =
  (* a checkpoint writer killed mid-commit leaves a stale tempfile; the
     resume's open sweeps it without touching the committed record *)
  let sc = star_scenario () in
  let uninterrupted = Dy.run sc Dy.Robust in
  let dir = fresh_dir () in
  let checkpoint = { Dy.Checkpoint.dir; every = 1 } in
  halt_run ~checkpoint ~halt:2 sc;
  let orphan = Filename.concat dir ".tmp-99999-0-1" in
  let oc = open_out_bin orphan in
  output_string oc "partial checkpoint write";
  close_out oc;
  let old = Unix.gettimeofday () -. 3600. in
  Unix.utimes orphan old old;
  let resumed, from = Dy.resume ~checkpoint sc in
  Alcotest.(check bool) "stale tempfile swept at open" false
    (Sys.file_exists orphan);
  Alcotest.(check (option int)) "record survived the orphan" (Some 2) from;
  Alcotest.(check bool) "bit-identical" true
    (Dy.outcomes_equal uninterrupted resumed);
  rm_rf dir

let test_argument_validation () =
  let sc = star_scenario () in
  let checkpoint = { Dy.Checkpoint.dir = fresh_dir (); every = 1 } in
  let expect_invalid what f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "checkpoint on a non-Robust strategy" (fun () ->
      Dy.run ~checkpoint sc Dy.Static);
  expect_invalid "halt_at without checkpoint" (fun () ->
      Dy.run ~halt_at:2 sc Dy.Robust);
  List.iter
    (fun h ->
      expect_invalid (Printf.sprintf "halt_at %d of %d phases" h sc.Dy.phases)
        (fun () -> Dy.run ~checkpoint ~halt_at:h sc Dy.Robust))
    [ -1; 0; sc.Dy.phases; sc.Dy.phases + 1 ];
  expect_invalid "cadence 0" (fun () ->
      Dy.run
        ~checkpoint:{ checkpoint with Dy.Checkpoint.every = 0 }
        sc Dy.Robust);
  (* a caller's cache works alongside a checkpoint: the checkpointed run
     sends the plain run's plan LPs through it (on a graph: a tree's
     plans take no LP), and a cache with no disk tier counts each a
     miss *)
  let sc = graph_scenario () in
  let cache = Lp.Cache.create () in
  let plain = Dy.run ~cache sc Dy.Robust in
  let misses = Lp.Cache.misses cache in
  let ckpt = Dy.run ~cache ~checkpoint sc Dy.Robust in
  Alcotest.(check bool) "cache + checkpoint is bit-identical" true
    (Dy.outcomes_equal plain ckpt);
  Alcotest.(check bool) "plan LPs went through the cache" true (misses > 0);
  Alcotest.(check int) "the same plan LPs again" (2 * misses)
    (Lp.Cache.misses cache);
  rm_rf checkpoint.Dy.Checkpoint.dir

(* --- per-epoch solves on flows with cyclic support --------------------- *)

(* Platform with nodes P0..Pk (weights in order) and, per link, both
   directed edges, forward first: link [k] owns edges [2k] (forward) and
   [2k+1] (backward). *)
let platform_of_links ~weights ~links =
  let b = Buffer.create 256 in
  List.iteri (fun i w -> Printf.bprintf b "node P%d w=%s\n" i w) weights;
  List.iter
    (fun (i, j, c) ->
      Printf.bprintf b "edge P%d P%d c=%s\nedge P%d P%d c=%s\n" i j c j i c)
    links;
  Platform_parse.of_string (Buffer.contents b)

let cyclic_scenario ~weights ~links ~bw_traces =
  {
    Dy.platform = platform_of_links ~weights ~links;
    master = 0;
    cpu_traces = [];
    bw_traces;
    phase = ri 10;
    phases = 16;
  }

(* These scenarios only test something while the epoch-0 LP optimum
   really has cyclic support: the flow the kernel returns, before cycle
   cancellation, must contain a cycle. *)
let check_cyclic_support sc =
  let p = sc.Dy.platform in
  let m, _, s_v = MS.build_lp p ~master:0 in
  let sol =
    match Lp.solve m with
    | Lp.Optimal sol -> sol
    | _ -> Alcotest.fail "epoch-0 LP not optimal"
  in
  let raw_flow =
    Array.mapi
      (fun e sv -> R.div (Lp.value sol sv) (Platform.edge_cost p e))
      s_v
  in
  let _, cycles = Flow.cancel_cycles_counted p raw_flow in
  Alcotest.(check bool) "epoch-0 flow has cyclic support" true (cycles > 0)

let test_warm_robust_cyclic_tree () =
  (* the LP optimum on this tree carries flow both ways along a link.
     The executors plan a tree in whole tasks, with no LP, so that
     cycle never reaches a plan, and a run with an LP cache, which a
     tree never consults, is bit-identical *)
  let sc =
    cyclic_scenario
      ~weights:[ "11/2"; "19/2"; "7"; "6"; "3/2"; "13/2"; "9/2"; "2"; "15/2"; "1" ]
      ~links:
        [
          (0, 1, "2"); (0, 2, "1"); (1, 3, "5"); (3, 4, "9/2"); (0, 5, "1");
          (3, 6, "5"); (1, 7, "3/2"); (1, 8, "2"); (8, 9, "3");
        ]
      ~bw_traces:
        [
          (4, [ (ri 60, R.zero) ]) (* P1->P3 *);
          (15, [ (ri 10, R.zero); (ri 30, R.one) ]) (* P8->P1 *);
        ]
  in
  check_cyclic_support sc;
  let cold = Dy.run sc Dy.Robust in
  let memo = Dy.run ~cache:(Lp.Cache.create ()) sc Dy.Robust in
  Alcotest.check rat "no-cache completed" (ri 108) cold.Dy.completed;
  Alcotest.(check bool) "cached outcome equals no-cache" true
    (Dy.outcomes_equal cold memo)

let test_resume_cyclic_graph () =
  (* kill-and-resume on a connected graph whose flow has cyclic support:
     the resumed run must match the uninterrupted one, which needs every
     live epoch's plan to depend on that epoch's platform alone *)
  let sc =
    cyclic_scenario
      ~weights:[ "17/2"; "5"; "9"; "13/2"; "7"; "1"; "15/2"; "15/2"; "7/2"; "6" ]
      ~links:
        [
          (0, 1, "3"); (0, 2, "1"); (1, 3, "4"); (0, 4, "2"); (0, 5, "5");
          (5, 6, "5/2"); (1, 7, "2"); (7, 8, "9/2"); (4, 9, "5"); (6, 0, "9/2");
          (3, 2, "1"); (7, 5, "2"); (6, 4, "5/2"); (9, 1, "3");
        ]
      ~bw_traces:
        [
          (2, [ (ri 30, R.zero); (ri 110, R.one) ]) (* P0->P2 *);
          (16, [ (ri 100, R.zero); (ri 200, R.one) ]) (* P4->P9 *);
          (18, [ (ri 10, R.zero); (ri 40, R.one) ]) (* P6->P0 *);
        ]
  in
  check_cyclic_support sc;
  let uninterrupted = Dy.run sc Dy.Robust in
  let dir = fresh_dir () in
  let checkpoint = { Dy.Checkpoint.dir; every = 4 } in
  halt_run ~checkpoint ~halt:4 sc;
  let resumed, from = Dy.resume ~checkpoint sc in
  rm_rf dir;
  Alcotest.(check (option int)) "resumed from the kill epoch" (Some 4) from;
  Alcotest.check rat "resumed completes as uninterrupted"
    uninterrupted.Dy.completed resumed.Dy.completed;
  Alcotest.(check bool) "resumed outcome is bit-identical" true
    (Dy.outcomes_equal uninterrupted resumed)

let suite =
  ( "recovery",
    [
      Alcotest.test_case "resume at every epoch is bit-identical" `Quick
        test_resume_every_epoch;
      Alcotest.test_case "resume reuses no replayed decision" `Quick
        test_resume_reuses_no_replayed_decision;
      Alcotest.test_case "resume with 64+ files in flight" `Quick
        test_resume_crowded_graph;
      Alcotest.test_case "strict resume, cadence > 1" `Quick
        test_strict_resume_with_cadence;
      Alcotest.test_case "no-cache round trip" `Quick
        test_no_cache_round_trip;
      Alcotest.test_case "cross-flag resume" `Quick test_cross_flag_resume;
      Alcotest.test_case "one record per checkpointed run" `Quick
        test_one_record_per_run;
      Alcotest.test_case "empty store cold starts" `Quick
        test_resume_empty_store_cold_starts;
      Alcotest.test_case "damaged records cold start" `Quick
        test_damaged_records_cold_start;
      Alcotest.test_case "previous checkpoint format cold starts" `Quick
        test_previous_ckpt_format_cold_starts;
      Alcotest.test_case "checkpoint decoder fuzz" `Quick
        test_ckpt_decoder_fuzz;
      Alcotest.test_case "forged state cold starts" `Quick
        test_forged_state_cold_starts;
      Alcotest.test_case "orphan tempfile swept on resume" `Quick
        test_orphan_tmp_swept_on_resume;
      Alcotest.test_case "argument validation" `Quick test_argument_validation;
      Alcotest.test_case "warm Robust, cyclic-support tree" `Quick
        test_warm_robust_cyclic_tree;
      Alcotest.test_case "resume, cyclic-support graph" `Quick
        test_resume_cyclic_graph;
      Alcotest.test_case "resume rewrites no record it read" `Quick
        test_resume_writes_nothing_it_read;
    ] )
