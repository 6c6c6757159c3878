(* Disk-backed record store: crash-safe commits, paranoid reads.

   On-disk layout, all inside one directory:

     <hash of key>.rec      one record per key (format below)
     .tmp-<pid>-<n>         in-flight commits (renamed into place)
     .lock                  advisory lock serialising writers
     quarantine/            records that failed validation, kept for
                            post-mortem (bounded, oldest dropped)

   Record format (bytes):

     steady-solve-store 1\n
     <payload-length> <fnv1a64-hex>\n
     <payload>

   where <payload> = <key-length>\n<key><value>.  The checksum covers
   the payload; the length line makes truncation detectable even when
   the truncated tail would checksum correctly (empty payloads); the
   stored key is compared against the requested key so a filename hash
   collision reads as a miss, never as a wrong answer.

   Every public entry point except [open_store] swallows I/O errors:
   the store is an accelerator, and the worst thing bad bytes may cost
   is time. *)

let magic = "steady-solve-store 1"

(* --- FNV-1a, 64-bit --- *)

let fnv_basis = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

(* a plain loop: the accumulator is a local [Int64] ref, which the
   compiler keeps unboxed (a closure over it would box every step) *)
let fnv1a64 ?(basis = fnv_basis) s =
  let h = ref basis in
  for i = 0 to String.length s - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i)))) fnv_prime
  done;
  !h

let checksum s = Printf.sprintf "%016Lx" (fnv1a64 s)

type t = {
  dir : string;
  qdir : string;
  max_entries : int;
  max_bytes : int;
  mutable tmp_seq : int;
  mutable hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable evictions : int;
  mutable quarantined : int;
}

let dir t = t.dir
let hits t = t.hits
let misses t = t.misses
let stores t = t.stores
let evictions t = t.evictions
let quarantined t = t.quarantined

let mkdir_p d =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go d;
  if not (Sys.is_directory d) then
    raise (Sys_error (d ^ ": not a directory"))

let is_tmp name = String.length name >= 5 && String.sub name 0 5 = ".tmp-"

let tmp_max_age = 600. (* seconds: orphans of crashed writers *)

let sweep_tmp_dir dir now =
  try
    Array.iter
      (fun name ->
        if is_tmp name then
          let p = Filename.concat dir name in
          try
            if now -. (Unix.stat p).Unix.st_mtime > tmp_max_age then
              Sys.remove p
          with _ -> ())
      (Sys.readdir dir)
  with _ -> ()

let open_store ?(max_entries = 4096) ?(max_bytes = 64 * 1024 * 1024) d =
  if max_entries <= 0 then
    invalid_arg "Solve_store.open_store: max_entries <= 0";
  if max_bytes <= 0 then invalid_arg "Solve_store.open_store: max_bytes <= 0";
  let qdir = Filename.concat d "quarantine" in
  mkdir_p d;
  mkdir_p qdir;
  (* Crashed writers leave .tmp- orphans behind; reclaim them eagerly so
     a store that is only ever opened (never written) does not leak.
     [sweep_tmp_dir] swallows every error, preserving the contract that
     [open_store] raises only when the directory itself is unusable. *)
  sweep_tmp_dir d (Unix.gettimeofday ());
  { dir = d; qdir; max_entries; max_bytes; tmp_seq = 0;
    hits = 0; misses = 0; stores = 0; evictions = 0; quarantined = 0 }

let digest key =
  Printf.sprintf "%016Lx%016Lx" (fnv1a64 key)
    (fnv1a64 ~basis:(Int64.lognot fnv_basis) key)

let record_name key = digest key ^ ".rec"

let record_path t key = Filename.concat t.dir (record_name key)

let is_record name = Filename.check_suffix name ".rec"

(* --- advisory locking --- *)

(* Writers (commit + eviction sweep) serialise on [.lock]; if the lock
   cannot even be opened the writer proceeds unlocked — worst case two
   sweeps race, and unlink races are already tolerated. *)
let with_lock t f =
  let lock = Filename.concat t.dir ".lock" in
  match Unix.openfile lock [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 with
  | exception _ -> f ()
  | fd ->
    let locked = try Unix.lockf fd Unix.F_LOCK 0; true with _ -> false in
    Fun.protect
      ~finally:(fun () ->
        (if locked then try Unix.lockf fd Unix.F_ULOCK 0 with _ -> ());
        try Unix.close fd with _ -> ())
      f

(* --- quarantine --- *)

let quarantine_cap = 64

let sweep_quarantine t =
  try
    let files = Sys.readdir t.qdir in
    if Array.length files > quarantine_cap then begin
      let stamped =
        Array.to_list files
        |> List.filter_map (fun n ->
               let p = Filename.concat t.qdir n in
               try Some ((Unix.stat p).Unix.st_mtime, p) with _ -> None)
      in
      let sorted = List.sort compare stamped in
      let excess = List.length sorted - quarantine_cap in
      List.iteri
        (fun i (_, p) -> if i < excess then try Sys.remove p with _ -> ())
        sorted
    end
  with _ -> ()

(* Move a bad record out of the live directory so it is never re-read
   (and never re-counted): the lookup path stays O(1) even under
   sustained corruption, and the bytes survive for inspection. *)
let quarantine_path t path =
  (try
     let dest =
       Filename.concat t.qdir
         (Printf.sprintf "%s.%d.%d" (Filename.basename path) (Unix.getpid ())
            t.tmp_seq)
     in
     t.tmp_seq <- t.tmp_seq + 1;
     Sys.rename path dest;
     t.quarantined <- t.quarantined + 1
   with _ -> (
     (* cross-device or permission trouble: drop rather than re-read *)
     try
       Sys.remove path;
       t.quarantined <- t.quarantined + 1
     with _ -> ()));
  sweep_quarantine t

let quarantine t key =
  try
    let p = record_path t key in
    if Sys.file_exists p then quarantine_path t p
  with _ -> ()

(* --- reading --- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> try close_in ic with _ -> ())
    (fun () ->
      let n = in_channel_length ic in
      really_input_string ic n)

(* Validate a raw record against [key].  [Ok value] on success;
   [Error `Corrupt] on any structural failure (quarantine); [Error
   `Collision] when the record is pristine but for a different key
   (plain miss — the record is somebody else's). *)
let parse_record ~key raw =
  let fail = Error `Corrupt in
  match String.index_opt raw '\n' with
  | None -> fail
  | Some nl1 ->
    if String.sub raw 0 nl1 <> magic then fail
    else begin
      match String.index_from_opt raw (nl1 + 1) '\n' with
      | None -> fail
      | Some nl2 ->
        let header = String.sub raw (nl1 + 1) (nl2 - nl1 - 1) in
        (match String.index_opt header ' ' with
        | None -> fail
        | Some sp ->
          let len = String.sub header 0 sp in
          let sum = String.sub header (sp + 1) (String.length header - sp - 1)
          in
          (match int_of_string_opt len with
          | None -> fail
          | Some len ->
            let start = nl2 + 1 in
            if len < 0 || String.length raw - start <> len then fail
            else
              let payload = String.sub raw start len in
              if not (String.equal (checksum payload) sum) then fail
              else begin
                match String.index_opt payload '\n' with
                | None -> fail
                | Some knl -> (
                  match int_of_string_opt (String.sub payload 0 knl) with
                  | None -> fail
                  | Some klen ->
                    let kstart = knl + 1 in
                    if klen < 0 || String.length payload - kstart < klen then
                      fail
                    else if
                      not
                        (String.equal key (String.sub payload kstart klen))
                    then Error `Collision
                    else
                      Ok
                        (String.sub payload (kstart + klen)
                           (String.length payload - kstart - klen)))
              end))
    end

let touch path = try Unix.utimes path 0. 0. with _ -> ()

let find t key =
  match
    let path = record_path t key in
    if not (Sys.file_exists path) then `Miss
    else
      match read_file path with
      | exception _ -> `Miss (* evicted underneath us, unreadable, ... *)
      | raw -> (
        match parse_record ~key raw with
        | Ok value ->
          touch path;
          `Hit value
        | Error `Collision -> `Miss
        | Error `Corrupt ->
          quarantine_path t path;
          `Miss)
  with
  | `Hit v ->
    t.hits <- t.hits + 1;
    Some v
  | `Miss ->
    t.misses <- t.misses + 1;
    None
  | exception _ ->
    t.misses <- t.misses + 1;
    None

(* --- directory scans --- *)

let scan t =
  try
    Sys.readdir t.dir |> Array.to_list
    |> List.filter_map (fun name ->
           if not (is_record name) then None
           else
             let p = Filename.concat t.dir name in
             try
               let st = Unix.stat p in
               Some (p, st.Unix.st_size, st.Unix.st_mtime)
             with _ -> None)
  with _ -> []

let entries t = List.length (scan t)
let bytes t = List.fold_left (fun acc (_, sz, _) -> acc + sz) 0 (scan t)

(* --- committing --- *)

(* Oldest-first unlinking until both budgets hold, then, if it unlinked
   anything, the tempfiles crashed writers left (a store that only ever
   commits reclaims them here and at the next [open_store], not on every
   commit).  Run under the lock: two processes sweeping concurrently
   would double-evict (harmless but wasteful).  Unlink races with
   readers are fine — the reader's open fd keeps the inode, or its
   [find] reports a miss. *)
let evict t =
  let files = scan t in
  let count = List.length files in
  let total = List.fold_left (fun acc (_, sz, _) -> acc + sz) 0 files in
  if count > t.max_entries || total > t.max_bytes then begin
    let oldest_first =
      List.sort
        (fun (p1, _, m1) (p2, _, m2) ->
          match compare (m1 : float) m2 with 0 -> compare p1 p2 | c -> c)
        files
    in
    let before = count and count = ref count and total = ref total in
    List.iter
      (fun (p, sz, _) ->
        if !count > t.max_entries || !total > t.max_bytes then
          match Sys.remove p with
          | () ->
            decr count;
            total := !total - sz;
            t.evictions <- t.evictions + 1
          | exception _ -> ())
      oldest_first;
    if !count < before then sweep_tmp_dir t.dir (Unix.gettimeofday ())
  end

let encode_record ~key ~value =
  let payload =
    String.concat "" [ string_of_int (String.length key); "\n"; key; value ]
  in
  String.concat ""
    [ magic; "\n"; string_of_int (String.length payload); " ";
      checksum payload; "\n"; payload ]

let add t key value =
  try
    let tmp =
      Filename.concat t.dir
        (Printf.sprintf ".tmp-%d-%d" (Unix.getpid ()) t.tmp_seq)
    in
    t.tmp_seq <- t.tmp_seq + 1;
    let record = encode_record ~key ~value in
    let written =
      try
        let oc =
          open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ]
            0o644 tmp
        in
        Fun.protect
          ~finally:(fun () -> try close_out oc with _ -> ())
          (fun () -> output_string oc record);
        true
      with _ -> false
    in
    if written then
      with_lock t (fun () ->
          (try
             Sys.rename tmp (record_path t key);
             t.stores <- t.stores + 1
           with _ -> ( try Sys.remove tmp with _ -> ()));
          evict t)
    else try Sys.remove tmp with _ -> ()
  with _ -> ()
