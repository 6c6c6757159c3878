(* The store's process-level crash and contention contract: a writer
   killed with SIGKILL mid-commit, and several processes writing one
   directory at once.  Both fork, and OCaml 5 refuses [Unix.fork] once
   any other domain has been spawned, so these tests run in their own
   executable: nothing here may start a domain (no [Pool], no
   parallel sweeps). *)

module S = Solve_store

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
        (Printf.sprintf "steady-store-fork-test-%d-%d" (Unix.getpid ()) !ctr)
    in
    rm_rf d;
    d

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

let () =
  Alcotest.run "steady-fork"
    [
      ( "store",
        [
          Alcotest.test_case "kill -9 mid-write" `Quick test_kill_mid_write;
          Alcotest.test_case "concurrent writers" `Quick
            test_concurrent_writers;
        ] );
    ]
