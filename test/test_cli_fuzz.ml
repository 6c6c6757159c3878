(* Fuzz of steady-cli's flag combinations.

   Usage: test_cli_fuzz.exe STEADY_CLI DEMO_PLATFORM RING_PLATFORM

   Each draw picks a command and a random subset of its flags, gives
   each flag a valid or an invalid value (negative, zero, huge, 1/0,
   unknown or repeated nodes, a file where a directory is expected, an
   uncreatable path), sometimes repeats a flag or adds an unknown one,
   and runs the CLI.  Every run must:
   - exit with 0 (done), 1 (input rejected with an [error:] line) or
     124 (a command-line error reported by Cmdliner);
   - never report an uncaught exception on stderr;
   - for [dynamic --halt-at=K] exiting 0: halt at epoch K, with
     1 <= K < phases, and say its checkpoint is committed only when K
     is a multiple of the cadence.

   In-range values of the flags that size the work (--periods,
   --phases, --phase, chaos without --smoke) stay small, because a
   run's cost grows with them and a long run is not a failure.  Their
   huge values lie beyond a native int or beyond the task count a phase
   can hold, where they must be rejected.  Draws come from the seeded
   Lehmer generator of [Faults], so a failure replays exactly. *)

let draws = 600
let seed = 2026
let timeout_s = 60.

let cli, demo, ring =
  match Sys.argv with
  | [| _; cli; demo; ring |] ->
    let abs f = if Filename.is_relative f then Filename.concat (Sys.getcwd ()) f else f in
    (abs cli, abs demo, abs ring)
  | _ ->
    prerr_endline "usage: test_cli_fuzz STEADY_CLI DEMO_PLATFORM RING_PLATFORM";
    exit 2

let g = Faults.generator ~seed
let pick l = List.nth l (Faults.rand_int g (List.length l))
let one_in k = Faults.rand_int g k = 0

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let root =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "steady-cli-fuzz-%d" (Unix.getpid ()))
  in
  rm_rf d;
  Unix.mkdir d 0o755;
  d

let fresh =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat root (Printf.sprintf "d%d" !n)

(* a value pool: a valid value two times in three, else an invalid one *)
let mix valid invalid () = if one_in 3 then pick invalid else pick valid

let huge_int = "99999999999999999999"
let huge_rat = "100000000000000000000"

(* directories: fresh, shared across draws (so --resume finds records)
   or the fuzz root; invalid: an existing file and a path below it *)
let dir_value () =
  if one_in 3 then pick [ demo; Filename.concat demo "sub" ]
  else pick [ fresh (); Filename.concat root "shared"; root ]

let count = mix [ "1"; "2"; "3"; "5" ] [ "-3"; "-1"; "0"; huge_int; "x"; "1/0" ]

let epoch =
  mix [ "1"; "2"; "3"; "4"; "7" ]
    [ "-1"; "0"; "8"; string_of_int max_int; huge_int; "x" ]

let rat = mix [ "10"; "1/3"; "5/2"; "0.5" ] [ "0"; "-1"; "1/0"; "abc"; "1e3"; huge_rat ]
let node = mix [ "M"; "A"; "B" ] [ "Z"; ""; "m" ]
let master_node = mix [ "M" ] [ "A"; "Z"; "" ]

let node_list =
  mix [ "A,B"; "A"; "B,A" ] [ "A,A"; "M,A"; "A,Z"; ""; "A,"; ","; "B,A,B" ]

let time = mix [ "0"; "1"; "10"; "20" ] [ "-1"; "1/0"; "x"; huge_int ]
let mult = mix [ "0"; "1/2"; "1"; "2" ] [ "-1"; "1/0"; huge_rat ]

let cpu_trace () =
  if one_in 6 then pick [ "A1=2"; "A@1"; "@1=2"; "A@@1=2"; "" ]
  else Printf.sprintf "%s@%s=%s" (node ()) (time ()) (mult ())

let bw_trace () =
  if one_in 6 then pick [ "MA@1=0"; ">A@1=0"; "M>@1=0"; "A>B>M@1=0" ]
  else Printf.sprintf "%s>%s@%s=%s" (node ()) (node ()) (time ()) (mult ())

(* a flag is given with probability [odds]/4, twice one time in 20 *)
type flag =
  | Opt of string * int * (unit -> string)
  | Switch of string * int

let master = Opt ("--master", 3, master_node)
let m_short = Opt ("-m", 3, master_node)
let cache_dir = Opt ("--cache-dir", 1, dir_value)

let commands =
  [
    ("solve-ms", true, [ master; Opt ("--periods", 1, count); cache_dir ]);
    ( "solve-scatter",
      true,
      [ m_short; Opt ("-t", 3, node_list); Opt ("-k", 1, count); cache_dir ] );
    ("solve-multicast", true, [ m_short; Opt ("--targets", 3, node_list); cache_dir ]);
    ("broadcast", true, [ master; cache_dir ]);
    ("dot", true, []);
    ("infer", true, [ m_short; Opt ("--hosts", 3, node_list) ]);
    ("experiments", false, [ Opt ("--only", 2, mix [ "E1"; "e5" ] [ "E99"; "" ]) ]);
    ( "dynamic",
      true,
      [ Opt ("-m", 4, master_node);
        Opt ("--strategy", 1,
             mix [ "robust"; "static"; "reactive"; "oracle"; "Robust" ] [ "best"; "" ]);
        Opt ("--phase", 1, rat);
        Opt ("--phases", 1, count);
        Opt ("--cpu-trace", 1, cpu_trace);
        Opt ("--bw-trace", 1, bw_trace);
        Opt ("--checkpoint-dir", 2, dir_value);
        Opt ("--checkpoint-every", 1, epoch);
        Switch ("--resume", 1);
        Opt ("--halt-at", 2, epoch) ] );
    ( "chaos",
      false,
      [ Opt ("--seed", 1, epoch);
        Switch ("--smoke", 2);
        Opt ("--chaos-shapes", 2,
             mix [ "tree6"; "graph8"; "tree6,tree6" ] [ "star4"; ""; "," ]) ] );
    ("format", false, []);
  ]

(* dynamic has the most flags: draw it as often as all others together *)
let commands =
  let dynamic = List.find (fun (c, _, _) -> c = "dynamic") commands in
  commands @ List.init (List.length commands - 1) (fun _ -> dynamic)

let platform_arg () =
  if one_in 6 then pick [ Filename.concat root "missing.platform"; root ]
  else pick [ demo; ring ]

(* one draw: the argument vector and the flag values it set *)
let draw () =
  let cmd, takes_platform, flags = pick commands in
  let given = ref [] in
  let args = ref [ cmd ] in
  let add l = args := !args @ l in
  if takes_platform && not (one_in 20) then add [ platform_arg () ];
  List.iter
    (fun flag ->
      let odds = match flag with Opt (_, k, _) | Switch (_, k) -> k in
      let times =
        if Faults.rand_int g 4 >= odds then 0 else if one_in 20 then 2 else 1
      in
      for _ = 1 to times do
        match flag with
        | Switch (name, _) ->
          given := (name, "") :: !given;
          add [ name ]
        | Opt (name, _, value) ->
          let v = value () in
          given := (name, v) :: !given;
          (* a short option takes its value attached or separate; a
             long one also as --name=value *)
          if one_in 4 then add [ name; v ]
          else if String.starts_with ~prefix:"--" name then add [ name ^ "=" ^ v ]
          else add [ name ^ v ]
      done)
    flags;
  (* keep chaos campaigns small unless --smoke is on: a single shape *)
  if cmd = "chaos" && not (List.mem_assoc "--smoke" !given)
     && not (List.mem_assoc "--chaos-shapes" !given)
  then add [ "--chaos-shapes=tree6" ];
  if one_in 25 then add [ pick [ "--bogus"; "-z"; "extra" ] ];
  (cmd, !args, !given)

let child_env =
  Array.of_list
    (List.filter
       (fun kv ->
         not
           (List.exists
              (fun p -> String.starts_with ~prefix:p kv)
              [ "STEADY_CACHE_DIR="; "STEADY_CHAOS_CKPT_DIR=" ]))
       (Array.to_list (Unix.environment ())))

let read_file f =
  let ic = open_in_bin f in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* run the CLI from [root]; [None] on timeout *)
let run args =
  let out = Filename.concat root "stdout" and err = Filename.concat root "stderr" in
  let fd f = Unix.openfile f [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let fo = fd out and fe = fd err in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let cwd = Sys.getcwd () in
  Sys.chdir root;
  let pid =
    Unix.create_process_env cli (Array.of_list (cli :: args)) child_env null fo fe
  in
  Sys.chdir cwd;
  List.iter Unix.close [ fo; fe; null ];
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () > deadline ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      None
    | 0, _ ->
      Unix.sleepf 0.005;
      wait ()
    | _, Unix.WEXITED code -> Some code
    | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> Some (1000 + s)
  in
  let code = wait () in
  (code, read_file out, read_file err)

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

(* the --halt-at contract, checked when the run succeeded *)
let halt_violation given stdout =
  let values name = List.filter_map (fun (n, v) -> if n = name then Some v else None) given in
  match values "--halt-at" with
  | [ h ] -> (
    match int_of_string_opt h with
    | None -> None
    | Some h ->
      let phases =
        match values "--phases" with
        | [ p ] -> int_of_string_opt p
        | _ -> Some 8
      in
      let every =
        match values "--checkpoint-every" with
        | [ e ] -> int_of_string_opt e
        | _ -> Some 1
      in
      let prefix = Printf.sprintf "halted at epoch %d " h in
      if not (String.starts_with ~prefix stdout) then
        Some "--halt-at accepted, but the run did not halt there"
      else if (match phases with Some p -> h < 1 || h >= p | None -> false) then
        Some "halted outside 1..phases-1"
      else if
        contains stdout "(checkpoint committed)"
        && match every with Some e -> h mod e <> 0 | None -> false
      then Some "claims a checkpoint the cadence never writes"
      else None)
  | _ -> None

let () =
  let failures = ref 0 in
  let tally = Hashtbl.create 16 in
  for i = 1 to draws do
    let cmd, args, given = draw () in
    let code, stdout, stderr = run args in
    let key = (cmd, Option.value code ~default:(-1)) in
    Hashtbl.replace tally key (1 + Option.value (Hashtbl.find_opt tally key) ~default:0);
    let problem =
      match code with
      | None -> Some "timed out"
      | Some c when not (List.mem c [ 0; 1; 124 ]) ->
        Some (Printf.sprintf "exit code %d" c)
      | Some _ when contains stderr "uncaught exception" -> Some "uncaught exception"
      | Some 0 when cmd = "dynamic" -> halt_violation given stdout
      | Some _ -> None
    in
    match problem with
    | None -> ()
    | Some why ->
      incr failures;
      Printf.printf "draw %d: %s\n  steady-cli %s\n%s\n" i why
        (String.concat " " (List.map Filename.quote args))
        (String.concat "\n"
           (List.map (( ^ ) "  | ") (String.split_on_char '\n' (String.trim stderr))))
  done;
  rm_rf root;
  List.iter
    (fun ((cmd, code), n) -> Printf.printf "  %-16s exit %3d: %d\n" cmd code n)
    (List.sort compare (List.of_seq (Hashtbl.to_seq tally)));
  Printf.printf "cli fuzz: %d draws (seed %d), %d failures\n" draws seed !failures;
  if !failures > 0 then exit 1
