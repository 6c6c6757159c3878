(* Differential test of the simulator: [Event_sim], which creates a
   resource's state the first time a submission needs it, against the
   dense engine it replaced ([Event_sim_dense_reference], sized by the
   platform at [create]).  Both run the same random script; every
   measurement, on every node and edge (untouched ones included), the
   cancel log, the outage callbacks and the conflict messages must
   agree. *)

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

type case = {
  platform : P.t;
  cpu_traces : (int * (R.t * R.t) list) list;
  bw_traces : (int * (R.t * R.t) list) list;
  script : (R.t * action) list;
  stop_at : R.t option; (* run_until this first, then run *)
}

module Drive (S : ENGINE) = struct
  let kind_string = function
    | S.Compute (i, w) -> Printf.sprintf "compute %d %s" i (R.to_string w)
    | S.Transfer (e, s) -> Printf.sprintf "transfer %d %s" e (R.to_string s)

  let subject_string = function
    | S.Cpu_of i -> Printf.sprintf "cpu %d" i
    | S.Bw_of e -> Printf.sprintf "bw %d" e

  (* everything the engine reports about one run of the case *)
  let run c =
    let buf = Buffer.create 1024 in
    let log fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
    let sim =
      S.create ~cpu_traces:c.cpu_traces ~bw_traces:c.bw_traces c.platform
    in
    let ids = ref [] and count = ref 0 in
    let submit ?(strict = false) sim kind =
      let k = !count in
      incr count;
      match
        S.submit_op ~strict sim kind
          ~on_done:(fun sim -> log "done %d at %s" k (R.to_string (S.now sim)))
          ~on_cancel:(fun sim r ->
            log "cancel %d at %s (%s)" k
              (R.to_string (S.now sim))
              (match r with S.Cancelled -> "cancelled" | S.Stranded -> "stranded"))
      with
      | id -> ids := (k, id) :: !ids
      | exception S.Conflict m -> log "conflict %d: %s" k m
    in
    let p = c.platform in
    (* a handler that submits: on a recovery, a transfer out of the
       master's first edge *)
    S.on_outage sim (fun sim o ->
        log "outage %s %s (was %s) at %s" (subject_string o.S.out_subject)
          (R.to_string o.S.out_multiplier)
          (R.to_string o.S.out_was)
          (R.to_string (S.now sim));
        if R.sign o.S.out_was = 0 then submit sim (S.Transfer (0, R.one)));
    S.on_outage sim (fun _ _ -> log "second handler");
    List.iter
      (fun (time, a) ->
        S.at sim time (fun sim ->
            match a with
            | Submit (strict, `Compute (i, w)) -> submit ~strict sim (S.Compute (i, w))
            | Submit (strict, `Transfer (e, s)) ->
              submit ~strict sim (S.Transfer (e, s))
            | Cancel k -> (
              match List.assoc_opt k !ids with
              | None -> ()
              | Some id -> log "cancel %d -> %b" k (S.cancel sim id))))
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
    Buffer.contents buf

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

module Lazy_engine = Drive (Event_sim)
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
  { platform; cpu_traces; bw_traces; script; stop_at }

let prop_engines_agree =
  QCheck.Test.make ~name:"lazy engine = dense engine on random scripts"
    ~count:400 (QCheck.int_bound 1_000_000) (fun seed ->
      let c = gen_case seed in
      let lazy_out = Lazy_engine.run c and dense_out = Dense_engine.run c in
      if lazy_out <> dense_out then
        QCheck.Test.fail_reportf "lazy:\n%s\ndense:\n%s" lazy_out dense_out;
      true)

(* the scripts reach what they are meant to: stranding, cancels,
   conflicts and outage callbacks all occur *)
let test_coverage () =
  let seen = Hashtbl.create 8 in
  for seed = 1 to 400 do
    let out = Lazy_engine.run (gen_case seed) in
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
    [ "stranded"; "-> true"; "conflict"; "outage"; "second handler" ]

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
