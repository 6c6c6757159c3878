(* Differential test of the simulator: [Event_sim], which creates a
   resource's state the first time a submission needs it, against the
   dense engine it replaced ([Event_sim_dense_reference], sized by the
   platform at [create]).  Both run the same random script; every
   measurement, on every node and edge (untouched ones included), the
   cancel log, the outage callbacks and the conflict messages must
   agree.  Some scripts queue a burst of 50 or more transfers behind
   one port and cancel members of it mid-queue. *)

module R = Rat
module E = Ext_rat
module P = Platform

module type ENGINE = sig
  type t

  type op_kind =
    | Compute of Platform.node * Rat.t
    | Transfer of Platform.edge * Rat.t

  type resource =
    | Cpu of Platform.node
    | Send of Platform.node
    | Recv of Platform.node

  exception Conflict of string

  type trace = (Rat.t * Rat.t) list

  val create :
    ?cpu_traces:(Platform.node * trace) list ->
    ?bw_traces:(Platform.edge * trace) list ->
    Platform.t ->
    t

  val now : t -> Rat.t

  type subject = Cpu_of of Platform.node | Bw_of of Platform.edge

  type outage = {
    out_subject : subject;
    out_multiplier : Rat.t;
    out_was : Rat.t;
  }

  val on_outage : t -> (t -> outage -> unit) -> unit
  val multiplier_of : t -> subject -> Rat.t

  type op_id
  type cancel_reason = Cancelled | Stranded

  type cancelled = {
    c_kind : op_kind;
    c_reason : cancel_reason;
    c_remaining : Rat.t;
    c_time : Rat.t;
  }

  val submit_op :
    ?strict:bool ->
    ?on_done:(t -> unit) ->
    ?on_cancel:(t -> cancel_reason -> unit) ->
    t ->
    op_kind ->
    op_id

  val cancel : t -> op_id -> bool
  val at : t -> Rat.t -> (t -> unit) -> unit
  val run_until : t -> Rat.t -> unit
  val run : t -> unit
  val completed_work : t -> Platform.node -> Rat.t
  val completed_compute_count : t -> Platform.node -> int
  val transferred : t -> Platform.edge -> Rat.t
  val busy_time : t -> resource -> Rat.t
  val pending_ops : t -> int
  val running_ops : t -> int
  val cancelled_ops : t -> cancelled list
end

(* what a script does at one time *)
type action =
  | Submit of bool * [ `Compute of int * R.t | `Transfer of int * R.t ]
  | Cancel of int (* the k-th submission so far, if there is one *)
  | Burst of int * int (* this many unit transfers over this edge *)
  | Cancel_burst of int (* the j-th transfer of the bursts so far *)

type case = {
  platform : P.t;
  cpu_traces : (int * (R.t * R.t) list) list;
  bw_traces : (int * (R.t * R.t) list) list;
  script : (R.t * action) list;
  stop_at : R.t option; (* run_until this first, then run *)
}

(* what a run shows of the paths it took, beyond its output *)
type facts = {
  out : string;
  reached : string list;
      (* "long queue": 50 or more transfers queued behind one port;
         "mid-queue cancel": a queued transfer cancelled with queued
         transfers of its edge ahead of it and behind it;
         "stale completion": a breakpoint moved a running computation's
         completion *)
}

(* how a submitted operation ended *)
type ending = Live | Done of R.t | Killed of R.t

type op_info = {
  kind : [ `Compute of int * R.t | `Transfer of int * R.t ];
  at : R.t;
  mutable ending : ending;
}

(* the multiplier in force at [time] under a strictly increasing trace *)
let mult_at tr time =
  List.fold_left
    (fun m (tb, mb) -> if R.compare tb time <= 0 then mb else m)
    R.one tr

(* A computation on node [i] submitted when every earlier one there had
   ended starts at once.  If its CPU runs, and the first breakpoint
   after its start falls before it finishes, the breakpoint moves its
   completion and leaves the one first pushed stale. *)
let stale_completion c ops =
  Hashtbl.fold
    (fun k o found ->
      found
      ||
      match (o.kind, o.ending) with
      | `Compute (i, w), Done td when R.sign w > 0 ->
        let free =
          Hashtbl.fold
            (fun k' o' free ->
              free
              && (k' >= k
                 ||
                 match (o'.kind, o'.ending) with
                 | `Compute (i', _), _ when i' <> i -> true
                 | `Transfer _, _ -> true
                 | _, Done t -> R.compare t o.at <= 0
                 | _, Killed t -> R.compare t o.at < 0
                 | _, Live -> false))
            ops true
        in
        (* the later of two traces for a node is the one in force *)
        let tr =
          List.fold_left
            (fun acc (i', tr) -> if i' = i then tr else acc)
            [] c.cpu_traces
        in
        free
        && R.sign (mult_at tr o.at) > 0
        && (match List.find_opt (fun (tb, _) -> R.compare tb o.at > 0) tr with
           | Some (tb, _) -> R.compare tb td < 0
           | None -> false)
      | _ -> false)
    ops false

module Drive (S : ENGINE) = struct
  let kind_string = function
    | S.Compute (i, w) -> Printf.sprintf "compute %d %s" i (R.to_string w)
    | S.Transfer (e, s) -> Printf.sprintf "transfer %d %s" e (R.to_string s)

  let subject_string = function
    | S.Cpu_of i -> Printf.sprintf "cpu %d" i
    | S.Bw_of e -> Printf.sprintf "bw %d" e

  (* everything the engine reports about one run of the case, and the
     paths the run reached *)
  let run_facts c =
    let buf = Buffer.create 1024 in
    let log fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
    let reached = ref [] in
    let reach what =
      if not (List.mem what !reached) then reached := what :: !reached
    in
    let sim =
      S.create ~cpu_traces:c.cpu_traces ~bw_traces:c.bw_traces c.platform
    in
    let ids = ref [] and count = ref 0 in
    let ops = Hashtbl.create 64 and bursts = Hashtbl.create 64 in
    (* [running_ops] just before a [Cancel_burst]'s cancel: a queued
       operation's [on_cancel] sees it unchanged, a running one's sees
       its slot released *)
    let running_before = ref None in
    let live_on e pick =
      Hashtbl.fold
        (fun k' o n ->
          match (o.kind, o.ending) with
          | `Transfer (e', _), Live when e' = e && pick k' -> n + 1
          | _ -> n)
        ops 0
    in
    let submit ?(strict = false) sim kind =
      let k = !count in
      incr count;
      let end_with ending = (Hashtbl.find ops k).ending <- ending in
      let engine_kind =
        match kind with
        | `Compute (i, w) -> S.Compute (i, w)
        | `Transfer (e, s) -> S.Transfer (e, s)
      in
      match
        S.submit_op ~strict sim engine_kind
          ~on_done:(fun sim ->
            log "done %d at %s" k (R.to_string (S.now sim));
            end_with (Done (S.now sim)))
          ~on_cancel:(fun sim r ->
            log "cancel %d at %s (%s)" k
              (R.to_string (S.now sim))
              (match r with S.Cancelled -> "cancelled" | S.Stranded -> "stranded");
            (match (!running_before, kind) with
            | Some n, `Transfer (e, _) when n = S.running_ops sim ->
              if
                live_on e (fun k' -> k' < k) >= 2
                && live_on e (fun k' -> k' > k) >= 2
              then reach "mid-queue cancel"
            | _ -> ());
            end_with (Killed (S.now sim)))
      with
      | id ->
        ids := (k, id) :: !ids;
        Hashtbl.replace ops k { kind; at = S.now sim; ending = Live };
        k
      | exception S.Conflict m ->
        log "conflict %d: %s" k m;
        k
    in
    let cancel k =
      match List.assoc_opt k !ids with
      | None -> ()
      | Some id -> log "cancel %d -> %b" k (S.cancel sim id)
    in
    let p = c.platform in
    (* a handler that submits: on a recovery, a transfer out of the
       master's first edge *)
    S.on_outage sim (fun sim o ->
        log "outage %s %s (was %s) at %s" (subject_string o.S.out_subject)
          (R.to_string o.S.out_multiplier)
          (R.to_string o.S.out_was)
          (R.to_string (S.now sim));
        if R.sign o.S.out_was = 0 then ignore (submit sim (`Transfer (0, R.one))));
    S.on_outage sim (fun _ _ -> log "second handler");
    List.iter
      (fun (time, a) ->
        S.at sim time (fun sim ->
            match a with
            | Submit (strict, kind) -> ignore (submit ~strict sim kind)
            | Cancel k -> cancel k
            | Burst (e, n) ->
              for _ = 1 to n do
                Hashtbl.replace bursts (Hashtbl.length bursts)
                  (submit sim (`Transfer (e, R.one)))
              done;
              log "burst on %d: %d pending" e (S.pending_ops sim);
              if live_on e (fun _ -> true) > 50 && S.pending_ops sim >= 50 then
                reach "long queue"
            | Cancel_burst j -> (
              match Hashtbl.find_opt bursts j with
              | None -> ()
              | Some k ->
                running_before := Some (S.running_ops sim);
                cancel k;
                running_before := None)))
      c.script;
    (match c.stop_at with
    | None -> ()
    | Some time ->
      S.run_until sim time;
      log "at %s: %d pending, %d running, cpu0 x%s" (R.to_string (S.now sim))
        (S.pending_ops sim) (S.running_ops sim)
        (R.to_string (S.multiplier_of sim (S.Cpu_of 0))));
    S.run sim;
    log "end at %s: %d pending, %d running" (R.to_string (S.now sim))
      (S.pending_ops sim) (S.running_ops sim);
    for i = 0 to P.num_nodes p - 1 do
      log "node %d: work %s count %d busy %s %s %s x%s" i
        (R.to_string (S.completed_work sim i))
        (S.completed_compute_count sim i)
        (R.to_string (S.busy_time sim (S.Cpu i)))
        (R.to_string (S.busy_time sim (S.Send i)))
        (R.to_string (S.busy_time sim (S.Recv i)))
        (R.to_string (S.multiplier_of sim (S.Cpu_of i)))
    done;
    for e = 0 to P.num_edges p - 1 do
      log "edge %d: %s x%s" e
        (R.to_string (S.transferred sim e))
        (R.to_string (S.multiplier_of sim (S.Bw_of e)))
    done;
    List.iter
      (fun c ->
        log "log: %s %s left %s at %s" (kind_string c.S.c_kind)
          (match c.S.c_reason with S.Cancelled -> "cancelled" | S.Stranded -> "stranded")
          (R.to_string c.S.c_remaining)
          (R.to_string c.S.c_time))
      (S.cancelled_ops sim);
    if stale_completion c ops then reach "stale completion";
    { out = Buffer.contents buf; reached = !reached }

  let run c = (run_facts c).out

  (* an out-of-range node or edge, wherever it is named *)
  let rejects p =
    let n = P.num_nodes p and m = P.num_edges p in
    let raises f =
      match f () with
      | _ -> false
      | exception Invalid_argument _ -> true
    in
    let fresh () = S.create p in
    [
      raises (fun () -> ignore (S.create ~cpu_traces:[ (n, []) ] p));
      raises (fun () -> ignore (S.create ~bw_traces:[ (m, []) ] p));
      raises (fun () -> S.submit_op (fresh ()) (S.Compute (n, R.one)));
      raises (fun () -> S.submit_op (fresh ()) (S.Compute (-1, R.one)));
      raises (fun () -> S.submit_op (fresh ()) (S.Transfer (m, R.one)));
      raises (fun () -> S.completed_work (fresh ()) n);
      raises (fun () -> S.completed_compute_count (fresh ()) n);
      raises (fun () -> S.transferred (fresh ()) m);
      raises (fun () -> S.busy_time (fresh ()) (S.Recv n));
      raises (fun () -> S.multiplier_of (fresh ()) (S.Bw_of m));
    ]
end

(* the scripts queue untagged timers *)
module Lazy_engine = Drive (struct
  include Event_sim

  let at t time f = at t time f
end)
module Dense_engine = Drive (Event_sim_dense_reference)

let half k = R.of_ints k 2

(* a trace of 1-3 breakpoints on the half-integer grid, zero
   multipliers frequent *)
let gen_trace st =
  let k = 1 + Random.State.int st 3 in
  let t = ref (Random.State.int st 2) in
  List.init k (fun _ ->
      let time = half !t in
      t := !t + 1 + Random.State.int st 3;
      let m =
        match Random.State.int st 5 with
        | 0 | 1 -> R.zero
        | 2 -> half 1
        | 3 -> R.one
        | _ -> R.two
      in
      (time, m))

let gen_case seed =
  let st = Random.State.make [| seed |] in
  let nodes = 3 + Random.State.int st 4 in
  let platform =
    Platform_gen.random_connected_graph ~seed ~nodes
      ~extra_edges:(Random.State.int st 3) ()
  in
  let n = P.num_nodes platform and m = P.num_edges platform in
  let some count make =
    List.init (Random.State.int st (count + 1)) (fun _ -> make ())
  in
  let cpu_traces =
    some 2 (fun () -> (Random.State.int st n, gen_trace st))
  in
  (* the same node twice: the later trace wins *)
  let cpu_traces =
    match cpu_traces with
    | (i, _) :: _ when Random.State.bool st -> cpu_traces @ [ (i, gen_trace st) ]
    | _ -> cpu_traces
  in
  let bw_traces = some 3 (fun () -> (Random.State.int st m, gen_trace st)) in
  let amount () = half (Random.State.int st 7) in
  let script =
    List.init
      (4 + Random.State.int st 12)
      (fun _ ->
        let time = half (Random.State.int st 9) in
        let a =
          match Random.State.int st 6 with
          | 0 -> Cancel (Random.State.int st 8)
          | 1 | 2 -> Submit (Random.State.int st 4 = 0, `Compute (Random.State.int st n, amount ()))
          | _ ->
            Submit (Random.State.int st 4 = 0, `Transfer (Random.State.int st m, amount ()))
        in
        (time, a))
  in
  let stop_at =
    if Random.State.bool st then Some (half (Random.State.int st 8)) else None
  in
  (* one case in four queues a burst behind one port and cancels some of
     it while it waits *)
  let burst =
    if Random.State.int st 4 <> 0 then []
    else begin
      let start = half (Random.State.int st 4) in
      let size = 50 + Random.State.int st 11 in
      (start, Burst (Random.State.int st m, size))
      :: List.init
           (1 + Random.State.int st 3)
           (fun _ ->
             ( R.add start (half (1 + Random.State.int st 6)),
               Cancel_burst (Random.State.int st size) ))
    end
  in
  { platform; cpu_traces; bw_traces; script = script @ burst; stop_at }

(* A defect that never lets a queue drain (a FIFO link left on a removed
   cell) must fail this suite, not hang it: each script runs under a
   real-time alarm whose handler raises, cleared once the script is
   done.  Normal scripts take milliseconds. *)
exception Script_timeout of int

let script_limit_s = 10.

let with_watchdog seed f =
  let arm s =
    ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.; it_value = s })
  in
  let previous =
    Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise (Script_timeout seed)))
  in
  arm script_limit_s;
  Fun.protect
    ~finally:(fun () ->
      arm 0.;
      Sys.set_signal Sys.sigalrm previous)
    f

(* The seed is not shrunk: a smaller seed is not a simpler script, and
   each hanging candidate would cost the watchdog's limit. *)
let prop_engines_agree =
  QCheck.Test.make ~name:"lazy engine = dense engine on random scripts"
    ~count:400
    (QCheck.set_shrink QCheck.Shrink.nil (QCheck.int_bound 1_000_000))
    (fun seed ->
      let c = gen_case seed in
      let lazy_out, dense_out =
        with_watchdog seed (fun () -> (Lazy_engine.run c, Dense_engine.run c))
      in
      if lazy_out <> dense_out then
        QCheck.Test.fail_reportf "lazy:\n%s\ndense:\n%s" lazy_out dense_out;
      true)

(* the scripts reach what they are meant to: stranding, cancels,
   conflicts and outage callbacks all occur, and so do long queues,
   mid-queue cancels and stale completions *)
let test_coverage () =
  let seen = Hashtbl.create 8 in
  for seed = 1 to 400 do
    let { out; reached } =
      with_watchdog seed (fun () -> Lazy_engine.run_facts (gen_case seed))
    in
    List.iter (fun w -> Hashtbl.replace seen w ()) reached;
    List.iter
      (fun w ->
        let lw = String.length w in
        let rec has i =
          i + lw <= String.length out && (String.sub out i lw = w || has (i + 1))
        in
        if has 0 then Hashtbl.replace seen w ())
      [ "stranded"; "-> true"; "conflict"; "outage"; "second handler" ]
  done;
  List.iter
    (fun w -> Alcotest.(check bool) w true (Hashtbl.mem seen w))
    [ "stranded"; "-> true"; "conflict"; "outage"; "second handler";
      "long queue"; "mid-queue cancel"; "stale completion" ]

let test_out_of_range () =
  let p = Platform_gen.random_connected_graph ~seed:5 ~nodes:4 ~extra_edges:1 () in
  Alcotest.(check (list bool)) "dense engine raises" (List.init 10 (fun _ -> true))
    (Dense_engine.rejects p);
  Alcotest.(check (list bool)) "lazy engine raises" (List.init 10 (fun _ -> true))
    (Lazy_engine.rejects p)

let suite =
  ( "sim dense",
    [
      QCheck_alcotest.to_alcotest prop_engines_agree;
      Alcotest.test_case "scripts reach every path" `Quick test_coverage;
      Alcotest.test_case "out of range raises" `Quick test_out_of_range;
    ] )
