(* Audits of schedules and solutions that no library path runs: the
   tests hold the library's answers against them. *)

(* Logical replay of a master-slave schedule's task buffers: period by
   period, every node's sends and computations must be covered by task
   files received in earlier periods (the master draws from its initial
   stock).  The pipeline delays [Master_slave.schedule] attaches make
   this hold from the very first active period: the causality
   complement to the simulator's resource-conflict check. *)
let check_buffers sched ~master ~periods =
  let p = sched.Schedule.platform in
  let n = Platform.num_nodes p in
  let buffers = Array.make n Rat.zero in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  (* per-period volumes: receives count for the NEXT period's budget *)
  let result = ref (Ok ()) in
  for k = 0 to periods - 1 do
    if !result = Ok () then begin
      let received = Array.make n Rat.zero in
      let spent = Array.make n Rat.zero in
      List.iter
        (fun s ->
          List.iter
            (fun tr ->
              if tr.Schedule.delay <= k then begin
                let src = Platform.edge_src p tr.Schedule.edge in
                let dst = Platform.edge_dst p tr.Schedule.edge in
                spent.(src) <- Rat.add spent.(src) tr.Schedule.items;
                received.(dst) <- Rat.add received.(dst) tr.Schedule.items
              end)
            s.Schedule.transfers)
        sched.Schedule.slots;
      List.iter
        (fun (i, work) ->
          if sched.Schedule.delays.(i) <= k then
            spent.(i) <- Rat.add spent.(i) work)
        sched.Schedule.compute;
      for i = 0 to n - 1 do
        if i <> master && !result = Ok () then begin
          if Rat.compare spent.(i) buffers.(i) > 0 then
            result :=
              err "period %d: %s spends %s but only holds %s" k (Platform.name p i)
                (Rat.to_string spent.(i))
                (Rat.to_string buffers.(i))
          else buffers.(i) <- Rat.add (Rat.sub buffers.(i) spent.(i)) received.(i)
        end
      done
    end
  done;
  !result

(* The greedy send/receive rounds of [Send_receive.greedy_reconstruct]
   are independent sets: no node in two communications of a round, and
   no transfer longer than its round. *)
let check_rounds p rounds =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let rec go k = function
    | [] -> Ok ()
    | r :: rest ->
      if Rat.sign r.Send_receive.duration <= 0 then err "round %d: empty" k
      else begin
        let used = Array.make (Platform.num_nodes p) false in
        let rec check = function
          | [] -> go (k + 1) rest
          | (e, items) :: more ->
            let s = Platform.edge_src p e and d = Platform.edge_dst p e in
            if used.(s) || used.(d) then err "round %d: node conflict" k
            else if
              Rat.compare (Rat.mul items (Platform.edge_cost p e))
                r.Send_receive.duration
              > 0
            then err "round %d: transfer exceeds round" k
            else begin
              used.(s) <- true;
              used.(d) <- true;
              check more
            end
        in
        check r.Send_receive.comms
      end
  in
  go 0 rounds

(* Independent audit of a collective solution: conservation per
   commodity, sink rates equal to the throughput, port occupancies
   within 1, and the mode law between [flows] and [send_frac]. *)
let check_invariants sol =
  let p = sol.Collective.platform in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let nk = Array.length sol.flows in
  let result = ref (Ok ()) in
  let set_err e = if !result = Ok () then result := e in
  (* conservation and sinks *)
  List.iteri
    (fun k (source, target) ->
      List.iter
        (fun i ->
          let b = Flow.balance p sol.flows.(k) i in
          if i = source then begin
            if Rat.sign b > 0 then set_err (err "source absorbs commodity %d" k)
          end
          else if i = target then begin
            if not (Rat.equal b sol.throughput) then
              set_err
                (err "target %d receives %s, expected %s" k (Rat.to_string b)
                   (Rat.to_string sol.throughput))
          end
          else if not (Rat.is_zero b) then
            set_err (err "commodity %d unbalanced at %s" k (Platform.name p i)))
        (Platform.nodes p))
    sol.pairs;
  (* mode law *)
  List.iter
    (fun e ->
      let c = Platform.edge_cost p e in
      let lhs = sol.send_frac.(e) in
      let ok =
        match sol.mode with
        | Collective.Sum ->
          Rat.equal lhs
            (Rat.mul c (Rat.sum (List.init nk (fun k -> sol.flows.(k).(e)))))
        | Collective.Max ->
          List.for_all
            (fun k -> Rat.Infix.(lhs >= Rat.mul c sol.flows.(k).(e)))
            (List.init nk Fun.id)
      in
      if not ok then set_err (err "mode law broken on %s" (Platform.edge_name p e)))
    (Platform.edges p);
  (* ports *)
  List.iter
    (fun i ->
      let load es =
        Rat.sum (List.map (fun e -> sol.send_frac.(e)) es)
      in
      if Rat.Infix.(load (Platform.out_edges p i) > Rat.one) then
        set_err (err "out-port overload at %s" (Platform.name p i));
      if Rat.Infix.(load (Platform.in_edges p i) > Rat.one) then
        set_err (err "in-port overload at %s" (Platform.name p i)))
    (Platform.nodes p);
  !result
