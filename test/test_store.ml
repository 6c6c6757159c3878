(* The crash-safety contract of the persistent solve store, tested the
   adversarial way: every cached outcome must be bit-identical to a
   cold solve, and NO byte-level mutilation of the store — truncation,
   bit-flips, version skew, orphaned tempfiles — may ever raise out of
   a solve or change an optimum.  A corrupted store costs misses; it
   never costs answers.  Two tests fork: a writer killed mid-commit,
   and concurrent writers over one directory. *)

module R = Rat
module S = Solve_store

let rat = Alcotest.testable R.pp R.equal

(* --- scratch directories --- *)

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
        (Printf.sprintf "steady-store-test-%d-%d" (Unix.getpid ()) !ctr)
    in
    rm_rf d;
    d

(* --- exact fingerprints of a solve outcome --- *)

(* objective, every model variable value, every dual — as exact decimal
   strings, so "bit-identical" is a string-list equality *)
let fingerprint m = function
  | Lp.Optimal sol ->
    (R.to_string sol.Lp.objective
    :: List.map
         (fun (name, _) ->
           name ^ "=" ^ R.to_string (Lp.value_by_name m sol name))
         (Lp.var_bounds m))
    @ List.map2
        (fun name y -> name ^ ":" ^ R.to_string y)
        (Lp.row_names m) (Array.to_list (Lp.duals sol))
  | Lp.Infeasible -> [ "infeasible" ]
  | Lp.Unbounded -> [ "unbounded" ]

let solve_fig1 ?cache () =
  Master_slave.solve_lp_only ?cache (Platform_gen.figure1 ()) ~master:0

let cold_fig1 = lazy (let m, res = solve_fig1 () in fingerprint m res)

let check_fig1 name ?cache () =
  let m, res = solve_fig1 ?cache () in
  Alcotest.(check (list string))
    (name ^ ": identical to cold solve")
    (Lazy.force cold_fig1) (fingerprint m res)

(* structurally distinct platforms, for filling stores *)
let sized n = Platform_gen.random_graph ~seed:(300 + n) ~nodes:n ~extra_edges:1 ()

(* the record files of a store, in name order *)
let records dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun n -> Filename.check_suffix n ".rec")
  |> List.sort compare
  |> List.map (Filename.concat dir)

(* the single record file a one-solve store contains *)
let the_record dir =
  match records dir with
  | [ r ] -> r
  | l -> Alcotest.failf "expected exactly one record, found %d" (List.length l)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* --- the on-disk hash format --- *)

(* FNV-1a/64 of fixed strings ("a" and "foobar" are the published test
   vectors): records written by any build must keep these names and
   checksums *)
let test_hashes_pinned () =
  let all_bytes = String.init 256 Char.chr in
  List.iter
    (fun (s, sum, dig) ->
      Alcotest.(check string) (Printf.sprintf "checksum %S" s) sum (S.checksum s);
      Alcotest.(check string) (Printf.sprintf "digest %S" s) dig (S.digest s))
    [
      ("", "cbf29ce484222325", "cbf29ce484222325340d631b7bdddcda");
      ("a", "af63dc4c8601ec8c", "af63dc4c8601ec8c509c22b379fe11c1");
      ("foobar", "85944171f73967e8", "85944171f73967e8030c7e60da308dcb");
      ( "steady-solve-store 1",
        "f82f9e65e2bd261e",
        "f82f9e65e2bd261eaad46fdfe807f4c5" );
      (all_bytes, "4242dc5249c33625", "4242dc5249c3362550d84536e53ddada");
    ]

(* --- round trip and cross-handle reuse --- *)

let test_round_trip () =
  let dir = fresh_dir () in
  let h1 = S.open_store dir in
  let c1 = Lp.Cache.create ~disk:h1 () in
  check_fig1 "populating solve" ~cache:c1 ();
  Alcotest.(check int) "one store committed" 1 (S.stores h1);
  Alcotest.(check int) "one live record" 1 (S.entries h1);
  Alcotest.(check bool) "record has bytes" true (S.bytes h1 > 0);
  (* same process, same cache: the memory tier answers *)
  check_fig1 "memory hit" ~cache:c1 ();
  Alcotest.(check int) "memory hit counted" 1 (Lp.Cache.hits c1);
  Alcotest.(check int) "not a disk hit" 0 (Lp.Cache.disk_hits c1);
  (* fresh handle over the same directory: the cross-process case *)
  let h2 = S.open_store dir in
  let c2 = Lp.Cache.create ~disk:h2 () in
  check_fig1 "disk hit" ~cache:c2 ();
  Alcotest.(check int) "served from disk" 1 (Lp.Cache.disk_hits c2);
  Alcotest.(check int) "counted as a hit too" 1 (Lp.Cache.hits c2);
  Alcotest.(check int) "store-level hit" 1 (S.hits h2);
  (* clear drops memory only; the disk tier still answers *)
  Lp.Cache.clear c2;
  check_fig1 "hit after clear" ~cache:c2 ();
  Alcotest.(check int) "second disk hit" 2 (Lp.Cache.disk_hits c2);
  rm_rf dir

(* --- corruption: truncations --- *)

let test_truncations () =
  let dir = fresh_dir () in
  let c = Lp.Cache.create ~disk:(S.open_store dir) () in
  check_fig1 "populate" ~cache:c ();
  let path = the_record dir in
  let pristine = read_file path in
  let len = String.length pristine in
  let cuts = [ 0; 1; 5; len / 4; len / 2; len - 2; len - 1 ] in
  List.iter
    (fun cut ->
      write_file path (String.sub pristine 0 cut);
      let h = S.open_store dir in
      let cc = Lp.Cache.create ~disk:h () in
      (* must neither raise nor serve the truncated bytes *)
      check_fig1 (Printf.sprintf "truncated at %d" cut) ~cache:cc ();
      Alcotest.(check int)
        (Printf.sprintf "cut %d quarantined" cut)
        1 (S.quarantined h);
      Alcotest.(check int)
        (Printf.sprintf "cut %d re-stored" cut)
        1 (S.stores h))
    cuts;
  rm_rf dir

(* --- corruption: seeded bit-flips --- *)

let test_bit_flips () =
  let dir = fresh_dir () in
  let c = Lp.Cache.create ~disk:(S.open_store dir) () in
  check_fig1 "populate" ~cache:c ();
  let path = the_record dir in
  let pristine = read_file path in
  let len = String.length pristine in
  let g = Faults.generator ~seed:2024 in
  for i = 1 to 48 do
    let pos = Faults.rand_int g len in
    let bit = 1 lsl Faults.rand_int g 8 in
    let bytes = Bytes.of_string pristine in
    Bytes.set bytes pos (Char.chr (Char.code (Bytes.get bytes pos) lxor bit));
    write_file path (Bytes.to_string bytes);
    let h = S.open_store dir in
    let cc = Lp.Cache.create ~disk:h () in
    check_fig1 (Printf.sprintf "flip %d (byte %d)" i pos) ~cache:cc ();
    Alcotest.(check int)
      (Printf.sprintf "flip %d quarantined, not served" i)
      1 (S.quarantined h)
  done;
  rm_rf dir

(* --- corruption: version skew, envelope and value --- *)

let test_envelope_version_skew () =
  let dir = fresh_dir () in
  let c = Lp.Cache.create ~disk:(S.open_store dir) () in
  check_fig1 "populate" ~cache:c ();
  let path = the_record dir in
  let pristine = read_file path in
  (* bump the store format version; lengths and checksum untouched *)
  let skewed = Bytes.of_string pristine in
  (* the magic line ends "...store 1\n": flip the version digit *)
  let vpos = String.index pristine '\n' - 1 in
  Alcotest.(check char) "found the version digit" '1' (Bytes.get skewed vpos);
  Bytes.set skewed vpos '9';
  write_file path (Bytes.to_string skewed);
  let h = S.open_store dir in
  let cc = Lp.Cache.create ~disk:h () in
  check_fig1 "future store version" ~cache:cc ();
  Alcotest.(check int) "skewed record quarantined" 1 (S.quarantined h);
  rm_rf dir

(* Rewrite the one record in [dir] with a structurally valid envelope
   (correct length and checksum, same key) around [f value] — the
   record's value passed through [f]. *)
(* the key a record's payload echoes, and its value; the envelope
   parsed by hand: magic\n<len> <sum>\n<klen>\n<key><value> *)
let record_parts path =
  let pristine = read_file path in
  let nl1 = String.index pristine '\n' in
  let nl2 = String.index_from pristine (nl1 + 1) '\n' in
  let payload = String.sub pristine (nl2 + 1) (String.length pristine - nl2 - 1) in
  let knl = String.index payload '\n' in
  let klen = int_of_string (String.sub payload 0 knl) in
  let key = String.sub payload (knl + 1) klen in
  let value =
    String.sub payload (knl + 1 + klen) (String.length payload - knl - 1 - klen)
  in
  (key, value)

let rewrite_value dir f =
  let path = the_record dir in
  let key, value = record_parts path in
  let klen = String.length key in
  (* sanity: the byte layer accepts our re-encoding of the key *)
  let h0 = S.open_store dir in
  Alcotest.(check bool) "pristine record readable" true (S.find h0 key <> None);
  let payload' = Printf.sprintf "%d\n%s%s" klen key (f value) in
  let record' =
    Printf.sprintf "steady-solve-store 1\n%d %s\n%s" (String.length payload')
      (S.checksum payload') payload'
  in
  write_file path record';
  let h = S.open_store dir in
  Alcotest.(check bool) "byte layer accepts the envelope" true
    (S.find h key <> None)

(* the Lp decoder must reject a rewritten value and push the record
   through the store's quarantine; the cold solve then re-stores a good
   one, which serves from then on *)
let check_value_quarantined dir what =
  let h = S.open_store dir in
  let cc = Lp.Cache.create ~disk:h () in
  check_fig1 what ~cache:cc ();
  Alcotest.(check int) "value skew quarantined the record" 1
    (S.quarantined h);
  Alcotest.(check int) "good record re-stored" 1 (S.stores h);
  let c3 = Lp.Cache.create ~disk:(S.open_store dir) () in
  check_fig1 "replacement record serves" ~cache:c3 ();
  Alcotest.(check int) "served from disk again" 1 (Lp.Cache.disk_hits c3)

(* a value in an unknown encoding: the version-skew path of the *value*
   format *)
let test_value_version_skew () =
  let dir = fresh_dir () in
  let c = Lp.Cache.create ~disk:(S.open_store dir) () in
  check_fig1 "populate" ~cache:c ();
  rewrite_value dir (fun _ -> "lpres 99\ntotally different layout\n");
  check_value_quarantined dir "future value encoding";
  rm_rf dir

(* A record in the previous value format ("lpres 3") has this format's
   layout, but it was written by a kernel that still saw the implied
   [ub:] rows and may hold another optimal vertex; a hit must be
   bit-identical to a re-solve, so it has to be quarantined and
   re-solved, never served.  The stale record here also carries a wrong
   objective, which a hit would expose. *)
let test_value_format_previous () =
  let dir = fresh_dir () in
  let c = Lp.Cache.create ~disk:(S.open_store dir) () in
  check_fig1 "populate" ~cache:c ();
  rewrite_value dir (fun value ->
      match String.split_on_char '\n' value with
      | _ :: "O" :: _objective :: rest ->
        String.concat "\n" ("lpres 3" :: "O" :: "99" :: rest)
      | _ -> Alcotest.fail "unexpected value layout");
  check_value_quarantined dir "previous value format";
  rm_rf dir

(* A record whose dual count differs from the model's rows, one short
   or one extra, with the lines to match: a well-formed value for
   another model, which must be quarantined and re-solved, never
   served. *)
let test_value_dual_count () =
  List.iter
    (fun (what, resize) ->
      let dir = fresh_dir () in
      let c = Lp.Cache.create ~disk:(S.open_store dir) () in
      check_fig1 "populate" ~cache:c ();
      rewrite_value dir (fun value ->
          match String.split_on_char '\n' value with
          | fmt :: "O" :: objective :: n :: rest ->
            let n = int_of_string n in
            let values = List.filteri (fun i _ -> i < n) rest in
            (match List.filteri (fun i _ -> i >= n) rest with
            | d :: duals ->
              let duals = resize (List.filter (( <> ) "") duals) in
              Alcotest.(check bool) (what ^ ": count moved") true
                (List.length duals <> int_of_string d);
              String.concat "\n"
                ((fmt :: "O" :: objective :: string_of_int n :: values)
                @ (string_of_int (List.length duals) :: duals)
                @ [ "" ])
            | [] -> Alcotest.fail "no dual count")
          | _ -> Alcotest.fail "unexpected value layout");
      check_value_quarantined dir what;
      rm_rf dir)
    [
      ("one dual short", fun ds -> List.tl ds);
      ("one dual extra", fun ds -> "0" :: ds);
    ]

(* --- forged answers: the certificate covers what the checksum cannot --- *)

(* [value] (an [lpres] optimum) with its objective, its first value or
   its first dual increased by one: well-formed, but not the answer *)
let forge what value =
  match String.split_on_char '\n' value with
  | fmt :: "O" :: objective :: n :: rest ->
    let bump x = R.to_string (R.add (R.of_string x) R.one) in
    let bump_at k = List.mapi (fun j x -> if j = k then bump x else x) in
    let objective, rest =
      match what with
      | `Objective -> (bump objective, rest)
      | `Value -> (objective, bump_at 0 rest)
      | `Dual -> (objective, bump_at (int_of_string n + 1) rest)
    in
    String.concat "\n" (fmt :: "O" :: objective :: n :: rest)
  | _ -> Alcotest.fail "unexpected value layout"

let forgeries = [ ("objective", `Objective); ("value", `Value); ("dual", `Dual) ]

(* For each record [populate] leaves in a fresh store and each forgery:
   re-seal the record through the store under the key it echoes, so
   every byte-level check accepts it, then [answer] through a fresh
   handle must give the cold answer, with the forged record quarantined
   (the cold re-solve re-stores a good one for the next round). *)
let check_forgeries ~populate ~answer =
  let dir = fresh_dir () in
  populate (Lp.Cache.create ~disk:(S.open_store dir) ());
  let cold = answer None in
  let paths = records dir in
  Alcotest.(check bool) "records written" true (paths <> []);
  List.iteri
    (fun r path ->
      List.iter
        (fun (what, forgery) ->
          let key, value = record_parts path in
          let forged = forge forgery value in
          Alcotest.(check bool) (what ^ " forged") false (String.equal forged value);
          S.add (S.open_store dir) key forged;
          let h = S.open_store dir in
          let cc = Lp.Cache.create ~disk:h () in
          Alcotest.(check (list string))
            (Printf.sprintf "record %d, %s: the true answer" r what)
            cold (answer (Some cc));
          Alcotest.(check int)
            (Printf.sprintf "record %d, %s: quarantined" r what)
            1 (S.quarantined h))
        forgeries)
    paths;
  rm_rf dir

(* a scatter model: [Lp.solve] on the disk tier directly *)
let test_forged_scatter () =
  let p, source, targets = Platform_gen.multicast_fig2 () in
  let m = Collective.model Collective.Sum p ~source ~targets in
  check_forgeries
    ~populate:(fun cache -> ignore (Lp.solve ~cache m))
    ~answer:(fun cache -> fingerprint m (Lp.solve ?cache m))

(* the rounds of the master-slave generation, reached through
   [Master_slave.solve ~cache] on a graph *)
let test_forged_generation_round () =
  let p = sized 6 in
  let answer cache =
    let sol = Master_slave.solve ?cache p ~master:0 in
    List.map R.to_string
      (sol.Master_slave.ntask
      :: Array.to_list sol.Master_slave.alpha
      @ Array.to_list sol.Master_slave.send_frac)
  in
  check_forgeries
    ~populate:(fun cache -> ignore (answer (Some cache)))
    ~answer

(* --- only certified optima reach the disk --- *)

(* An [I] or [U] record, as an older build wrote them, re-sealed under
   the key of the Figure 2 scatter model so that every byte-level check
   accepts it.  Zero throughput is always feasible and the throughput is
   bounded, so the record is wrong on its face: a solve through a fresh
   handle must give the cold optimum and quarantine the record. *)
let test_outcome_record_quarantined () =
  let p, source, targets = Platform_gen.multicast_fig2 () in
  let m = Collective.model Collective.Sum p ~source ~targets in
  let cold = fingerprint m (Lp.solve m) in
  List.iter
    (fun tag ->
      let dir = fresh_dir () in
      ignore (Lp.solve ~cache:(Lp.Cache.create ~disk:(S.open_store dir) ()) m);
      let key, _ = record_parts (the_record dir) in
      S.add (S.open_store dir) key ("lpres 4\n" ^ tag ^ "\n");
      let h = S.open_store dir in
      let cc = Lp.Cache.create ~disk:h () in
      Alcotest.(check (list string)) (tag ^ " record: the true optimum") cold
        (fingerprint m (Lp.solve ~cache:cc m));
      Alcotest.(check int) (tag ^ " record: quarantined") 1 (S.quarantined h);
      Alcotest.(check int) (tag ^ " record: not served") 0 (Lp.Cache.disk_hits cc);
      rm_rf dir)
    [ "I"; "U" ]

(* an infeasible LP solved through a disk cache writes no record; the
   memory tier still memoises it *)
let test_infeasible_not_stored () =
  let m = Lp.create () in
  let x = Lp.add_var m "x" in
  Lp.add_constraint m (Lp.var x) Lp.Ge (R.of_int 3);
  Lp.add_constraint m (Lp.var x) Lp.Le (R.of_int 2);
  Lp.set_objective m Lp.Maximize (Lp.var x);
  let dir = fresh_dir () in
  let h = S.open_store dir in
  let cc = Lp.Cache.create ~disk:h () in
  for _ = 1 to 2 do
    match Lp.solve ~cache:cc m with
    | Lp.Infeasible -> ()
    | Lp.Optimal _ | Lp.Unbounded -> Alcotest.fail "expected infeasible"
  done;
  Alcotest.(check int) "no record" 0 (List.length (records dir));
  Alcotest.(check int) "nothing stored" 0 (S.stores h);
  Alcotest.(check int) "memory hit" 1 (Lp.Cache.hits cc);
  rm_rf dir

(* a filename collision (same record path, different key) must read as
   a plain miss — not as a wrong answer, not as corruption *)
let test_key_echo_rejects_foreign_record () =
  let dir = fresh_dir () in
  let h = S.open_store dir in
  S.add h "key-a" "value-a";
  let record = read_file (S.record_path h "key-a") in
  (* graft key-a's record bytes onto key-b's path *)
  S.add h "key-b" "value-b";
  write_file (S.record_path h "key-b") record;
  let h2 = S.open_store dir in
  Alcotest.(check (option string)) "foreign record is a miss" None
    (S.find h2 "key-b");
  Alcotest.(check int) "collision is not corruption" 0 (S.quarantined h2);
  Alcotest.(check (option string)) "original key still served"
    (Some "value-a")
    (S.find h2 "key-a");
  rm_rf dir

(* --- crash-safety: orphaned tempfiles and kill -9 mid-commit --- *)

let test_orphan_tmp_is_invisible () =
  let dir = fresh_dir () in
  let h = S.open_store dir in
  let c = Lp.Cache.create ~disk:h () in
  check_fig1 "populate" ~cache:c ();
  let pristine = read_file (the_record dir) in
  (* simulate a writer that died mid-write: a partial tempfile *)
  write_file
    (Filename.concat dir ".tmp-99999-0-0")
    (String.sub pristine 0 (String.length pristine / 2));
  let h2 = S.open_store dir in
  let c2 = Lp.Cache.create ~disk:h2 () in
  check_fig1 "store loadable around the orphan" ~cache:c2 ();
  Alcotest.(check int) "orphan did not shadow the record" 1
    (Lp.Cache.disk_hits c2);
  Alcotest.(check int) "nothing quarantined" 0 (S.quarantined h2);
  rm_rf dir

let test_open_sweeps_stale_tmp () =
  (* open_store garbage-collects tempfiles old enough that no live
     writer can still own them, and leaves recent ones alone (they may
     belong to a concurrent writer about to rename) *)
  let dir = fresh_dir () in
  let h = S.open_store dir in
  let c = Lp.Cache.create ~disk:h () in
  check_fig1 "populate" ~cache:c ();
  let stale = Filename.concat dir ".tmp-99999-0-0" in
  let recent = Filename.concat dir ".tmp-99999-0-1" in
  write_file stale "dead writer's leftovers";
  write_file recent "live writer mid-commit";
  let old = Unix.gettimeofday () -. 3600. in
  Unix.utimes stale old old;
  let h2 = S.open_store dir in
  Alcotest.(check bool) "stale tempfile swept" false (Sys.file_exists stale);
  Alcotest.(check bool) "recent tempfile retained" true
    (Sys.file_exists recent);
  let c2 = Lp.Cache.create ~disk:h2 () in
  check_fig1 "record untouched by the sweep" ~cache:c2 ();
  Alcotest.(check int) "record still served from disk" 1
    (Lp.Cache.disk_hits c2);
  Alcotest.(check int) "nothing quarantined" 0 (S.quarantined h2);
  rm_rf dir

(* A commit does not sweep tempfiles: [add] leaves an orphan alone,
   stale or fresh, and the next [open_store] reclaims the stale one.  A
   commit whose eviction unlinks a record sweeps them too. *)
let test_add_leaves_orphans_to_open () =
  let dir = fresh_dir () in
  let h = S.open_store dir in
  let stale = Filename.concat dir ".tmp-99999-0-0" in
  let fresh = Filename.concat dir ".tmp-99999-0-1" in
  write_file stale "dead writer's leftovers";
  write_file fresh "live writer mid-commit";
  let old = Unix.gettimeofday () -. 3600. in
  Unix.utimes stale old old;
  S.add h "k" "v";
  Alcotest.(check (option string)) "committed" (Some "v") (S.find h "k");
  Alcotest.(check bool) "add leaves the fresh orphan" true
    (Sys.file_exists fresh);
  Alcotest.(check bool) "add leaves the stale orphan" true
    (Sys.file_exists stale);
  let h2 = S.open_store ~max_entries:1 dir in
  Alcotest.(check bool) "open reclaims the stale orphan" false
    (Sys.file_exists stale);
  Alcotest.(check bool) "open keeps the fresh orphan" true
    (Sys.file_exists fresh);
  write_file stale "another dead writer";
  Unix.utimes stale old old;
  Unix.sleepf 0.02;
  S.add h2 "k2" "v2";
  Alcotest.(check int) "the commit evicted a record" 1 (S.evictions h2);
  Alcotest.(check bool) "the eviction reclaims the stale orphan" false
    (Sys.file_exists stale);
  Alcotest.(check bool) "the eviction keeps the fresh orphan" true
    (Sys.file_exists fresh);
  rm_rf dir

(* --- LRU eviction, disk tier --- *)

let test_disk_lru_entries () =
  let dir = fresh_dir () in
  let h = S.open_store ~max_entries:3 dir in
  for k = 1 to 6 do
    S.add h (Printf.sprintf "k%d" k) (Printf.sprintf "v%d" k);
    (* distinct mtimes so the LRU order is unambiguous *)
    Unix.sleepf 0.02
  done;
  Alcotest.(check bool) "entry budget enforced" true (S.entries h <= 3);
  Alcotest.(check bool) "evictions counted" true (S.evictions h >= 3);
  (* the newest records survive, the oldest are gone *)
  Alcotest.(check (option string)) "newest survives" (Some "v6")
    (S.find h "k6");
  Alcotest.(check (option string)) "oldest evicted" None (S.find h "k1");
  (* a hit refreshes recency: touch k4, add two more, k4 must survive *)
  ignore (S.find h "k4");
  Unix.sleepf 0.02;
  S.add h "k7" "v7";
  Unix.sleepf 0.02;
  S.add h "k8" "v8";
  Alcotest.(check (option string)) "recently-used record survives"
    (Some "v4") (S.find h "k4");
  rm_rf dir

let test_disk_lru_bytes () =
  let dir = fresh_dir () in
  (* each record is ~1 KiB of value plus envelope: a 4 KiB budget keeps
     only the last few *)
  let h = S.open_store ~max_bytes:4096 dir in
  for k = 1 to 8 do
    S.add h (Printf.sprintf "b%d" k) (String.make 1024 'z');
    Unix.sleepf 0.02
  done;
  Alcotest.(check bool) "byte budget enforced" true (S.bytes h <= 4096);
  Alcotest.(check bool) "some records survived" true (S.entries h > 0);
  Alcotest.(check (option string)) "newest survives"
    (Some (String.make 1024 'z'))
    (S.find h "b8");
  rm_rf dir

let test_budget_validation () =
  let dir = fresh_dir () in
  Alcotest.(check bool) "max_entries 0 rejected" true
    (try ignore (S.open_store ~max_entries:0 dir); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "max_bytes 0 rejected" true
    (try ignore (S.open_store ~max_bytes:0 dir); false
     with Invalid_argument _ -> true);
  rm_rf dir

(* --- LRU eviction, memory tier --- *)

let scaled p mult =
  Platform.create
    ~names:
      (Array.of_list (List.map (Platform.name p) (Platform.nodes p)))
    ~weights:
      (Array.of_list
         (List.map
            (fun i ->
              match Platform.weight p i with
              | Ext_rat.Inf -> Ext_rat.Inf
              | Ext_rat.Fin w -> Ext_rat.Fin (R.div w mult))
            (Platform.nodes p)))
    ~edges:
      (List.map
         (fun e ->
           ( Platform.edge_src p e,
             Platform.edge_dst p e,
             R.div (Platform.edge_cost p e) mult ))
         (Platform.edges p))

let test_memory_lru () =
  let cache = Lp.Cache.create ~capacity:2 () in
  let p = Platform_gen.figure1 () in
  let solve k =
    (Master_slave.solve ~cache (scaled p (R.of_int k)) ~master:0)
      .Master_slave.ntask
  in
  let s1 = solve 1 in
  let _ = solve 2 in
  (* touch 1 so 2 becomes the LRU victim when 3 arrives *)
  let s1' = solve 1 in
  Alcotest.check rat "hit replays exactly" s1 s1';
  Alcotest.(check int) "one hit so far" 1 (Lp.Cache.hits cache);
  let _ = solve 3 in
  Alcotest.(check int) "eviction counted" 1 (Lp.Cache.evictions cache);
  Alcotest.(check int) "capacity respected" 2 (Lp.Cache.length cache);
  (* 1 was recently used: still cached.  2 was evicted: a miss. *)
  let _ = solve 1 in
  Alcotest.(check int) "LRU kept the recently-used entry" 2
    (Lp.Cache.hits cache);
  let _ = solve 2 in
  Alcotest.(check int) "the stale entry was the victim" 4
    (Lp.Cache.misses cache);
  Alcotest.(check int) "second eviction" 2 (Lp.Cache.evictions cache)

let test_memory_lru_keeps_working_set () =
  (* the old clear-at-capacity wiped the whole table when entry
     capacity+1 arrived; LRU drops only the stalest entry, so the rest
     of the working set keeps hitting after an overflow *)
  let cache = Lp.Cache.create ~capacity:4 () in
  let p = Platform_gen.figure1 () in
  let solve k =
    ignore (Master_slave.solve ~cache (scaled p (R.of_int k)) ~master:0)
  in
  List.iter solve [ 1; 2; 3; 4 ];
  solve 5 (* overflow: the old code lost all four here *);
  Alcotest.(check int) "exactly one eviction" 1 (Lp.Cache.evictions cache);
  let h0 = Lp.Cache.hits cache in
  List.iter solve [ 2; 3; 4; 5 ];
  Alcotest.(check int) "working set survived the overflow" 4
    (Lp.Cache.hits cache - h0);
  Alcotest.(check int) "table never exceeds capacity" 4
    (Lp.Cache.length cache)

(* --- many distinct models through one disk store --- *)

let test_disk_store_many_models () =
  let dir = fresh_dir () in
  let ns = [ 4; 5; 6; 7 ] in
  let cold =
    List.map
      (fun n -> (Master_slave.solve (sized n) ~master:0).Master_slave.ntask)
      ns
  in
  let c1 = Lp.Cache.create ~disk:(S.open_store dir) () in
  let first =
    List.map
      (fun n -> (Master_slave.solve ~cache:c1 (sized n) ~master:0).Master_slave.ntask)
      ns
  in
  (* a second process: everything must come off disk, bit-identical *)
  let h2 = S.open_store dir in
  let c2 = Lp.Cache.create ~disk:h2 () in
  let second =
    List.map
      (fun n -> (Master_slave.solve ~cache:c2 (sized n) ~master:0).Master_slave.ntask)
      ns
  in
  List.iteri
    (fun i ((a, b), c) ->
      Alcotest.check rat (Printf.sprintf "model %d first pass" i) a b;
      Alcotest.check rat (Printf.sprintf "model %d second pass" i) a c)
    (List.combine (List.combine cold first) second);
  Alcotest.(check int) "every model served from disk" (List.length ns)
    (Lp.Cache.disk_hits c2);
  Alcotest.(check int) "cross-process hits recorded" (List.length ns)
    (S.hits h2);
  rm_rf dir

(* --- a writer killed mid-commit --- *)

let test_kill_mid_write () =
  let dir = fresh_dir () in
  let expected k = String.make 4096 (Char.chr (Char.code 'a' + (k mod 16))) in
  (match Unix.fork () with
  | 0 ->
    (* child: hammer the store with large commits until killed *)
    let h = S.open_store dir in
    (try
       let k = ref 0 in
       while true do
         S.add h (Printf.sprintf "bulk-%d" (!k mod 64)) (expected (!k mod 64));
         incr k
       done
     with _ -> ());
    Unix._exit 0
  | pid ->
    Unix.sleepf 0.08;
    Unix.kill pid Sys.sigkill;
    ignore (Unix.waitpid [] pid));
  (* the survivor: every record either absent or exactly right *)
  let h = S.open_store dir in
  let served = ref 0 in
  for k = 0 to 63 do
    match S.find h (Printf.sprintf "bulk-%d" k) with
    | None -> ()
    | Some v ->
      incr served;
      Alcotest.(check string)
        (Printf.sprintf "bulk-%d intact" k)
        (expected k) v
  done;
  Alcotest.(check bool) "the killed writer committed something" true
    (!served > 0);
  Alcotest.(check int) "no record was torn" 0 (S.quarantined h);
  (* and the store still accepts work *)
  S.add h "after-crash" "fine";
  Alcotest.(check (option string)) "store still writable" (Some "fine")
    (S.find h "after-crash");
  rm_rf dir

(* --- concurrent writers over one directory --- *)

let test_concurrent_writers () =
  let dir = fresh_dir () in
  (* shared keys carry a writer-independent value: whichever writer's
     rename wins, the record is correct *)
  let value k = Printf.sprintf "shared:%d=%s" k (String.make 64 'x') in
  let spawn i =
    match Unix.fork () with
    | 0 ->
      let h = S.open_store dir in
      for round = 1 to 10 do
        ignore round;
        for k = 0 to 15 do
          S.add h (Printf.sprintf "shared-%d" k) (value k)
        done;
        (* private keys too *)
        S.add h (Printf.sprintf "private-%d" i) (string_of_int i)
      done;
      Unix._exit 0
    | pid -> pid
  in
  let pids = List.map spawn [ 1; 2; 3 ] in
  List.iter (fun pid -> ignore (Unix.waitpid [] pid)) pids;
  let h = S.open_store dir in
  for k = 0 to 15 do
    Alcotest.(check (option string))
      (Printf.sprintf "shared-%d readable and exact" k)
      (Some (value k))
      (S.find h (Printf.sprintf "shared-%d" k))
  done;
  List.iter
    (fun i ->
      Alcotest.(check (option string))
        (Printf.sprintf "private-%d survived" i)
        (Some (string_of_int i))
        (S.find h (Printf.sprintf "private-%d" i)))
    [ 1; 2; 3 ];
  Alcotest.(check int) "nothing quarantined under contention" 0
    (S.quarantined h);
  rm_rf dir

let suite =
  ( "store",
    [
      Alcotest.test_case "round trip" `Quick test_round_trip;
      Alcotest.test_case "truncations quarantined" `Quick test_truncations;
      Alcotest.test_case "bit flips quarantined" `Quick test_bit_flips;
      Alcotest.test_case "envelope version skew" `Quick
        test_envelope_version_skew;
      Alcotest.test_case "value version skew" `Quick test_value_version_skew;
      Alcotest.test_case "previous value format re-solved" `Quick
        test_value_format_previous;
      Alcotest.test_case "dual count other than the rows" `Quick
        test_value_dual_count;
      Alcotest.test_case "forged scatter optimum quarantined" `Quick
        test_forged_scatter;
      Alcotest.test_case "forged generation round quarantined" `Quick
        test_forged_generation_round;
      Alcotest.test_case "I and U records quarantined" `Quick
        test_outcome_record_quarantined;
      Alcotest.test_case "infeasible LP leaves no record" `Quick
        test_infeasible_not_stored;
      Alcotest.test_case "key echo rejects foreign record" `Quick
        test_key_echo_rejects_foreign_record;
      Alcotest.test_case "orphan tempfile invisible" `Quick
        test_orphan_tmp_is_invisible;
      Alcotest.test_case "open sweeps stale tempfiles" `Quick
        test_open_sweeps_stale_tmp;
      Alcotest.test_case "add leaves tempfiles to open" `Quick
        test_add_leaves_orphans_to_open;
      Alcotest.test_case "disk LRU by entries" `Quick test_disk_lru_entries;
      Alcotest.test_case "disk LRU by bytes" `Quick test_disk_lru_bytes;
      Alcotest.test_case "budget validation" `Quick test_budget_validation;
      Alcotest.test_case "memory LRU" `Quick test_memory_lru;
      Alcotest.test_case "memory LRU keeps working set" `Quick
        test_memory_lru_keeps_working_set;
      Alcotest.test_case "many models through one store" `Quick
        test_disk_store_many_models;
      Alcotest.test_case "hash format pinned" `Quick test_hashes_pinned;
      Alcotest.test_case "kill -9 mid-write" `Quick test_kill_mid_write;
      Alcotest.test_case "concurrent writers" `Quick test_concurrent_writers;
    ] )
