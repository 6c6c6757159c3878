module R = Rat
module P = Platform
module BC = Bipartite_coloring

module Warm = struct
  type t = {
    mutable sched : Schedule.t option;
    mutable delays : (R.t array * int array) option;
        (* the exact flow a delay vector was derived from, and that
           vector: reuse is keyed on bit-identity of the flow *)
    mutable hits : int;
    mutable misses : int;
  }

  let create () = { sched = None; delays = None; hits = 0; misses = 0 }

  let clear t =
    t.sched <- None;
    t.delays <- None

  let hits t = t.hits
  let misses t = t.misses

  (* Domain-local slot family, same shape as {!Lp.Cache.Family}: each
     {!Par.Pool} worker domain lazily gets (and keeps, across tasks) its
     own slot, so parallel sweeps repair their own phase sequence
     without locking.  The registry only exists for aggregate counters
     and [clear]. *)
  module Family = struct
    type slot = t

    type t = {
      key : slot Domain.DLS.key;
      mu : Mutex.t;
      registry : slot list ref;
    }

    let create () =
      let mu = Mutex.create () in
      let registry = ref [] in
      let key =
        Domain.DLS.new_key (fun () ->
            let s = create () in
            Mutex.lock mu;
            registry := s :: !registry;
            Mutex.unlock mu;
            s)
      in
      { key; mu; registry }

    let slot f = Domain.DLS.get f.key

    let slots f =
      Mutex.lock f.mu;
      let l = !(f.registry) in
      Mutex.unlock f.mu;
      l

    let domains f = List.length (slots f)
    let hits f = List.fold_left (fun a s -> a + s.hits) 0 (slots f)
    let misses f = List.fold_left (fun a s -> a + s.misses) 0 (slots f)

    let clear f = List.iter clear (slots f)
  end
end

let cancel ?stats p f =
  let g, found = Flow.cancel_cycles_counted p f in
  (match stats with
  | None -> ()
  | Some s ->
    Lp.Stats.add_reconstruction s ~cycles_cancelled:found
      ~matchings_repaired:0 ~matchings_rebuilt:0 ~slots_reused:0 ());
  g

(* Pipeline delays with warm reuse.  Phased runs replay the same
   steady-state flow period after period, so the longest-path pass of
   Flow.delays is pure overhead on every call but the first.  The slot
   keys the cached vector on the exact flow it was derived from and
   serves it only against bit-identical replays, so reuse can never
   change an answer; anything else recomputes cold and refreshes the
   slot. *)
let delays ?warm ?(strict = false) ?stats p f =
  let same_flow pf =
    Array.length pf = Array.length f
    &&
    try
      Array.iter2 (fun a b -> if not (R.equal a b) then raise Exit) pf f;
      true
    with Exit -> false
  in
  let d =
    match warm with
    | None -> Flow.delays p f
    | Some w ->
      (* reuses are counted into stats' delays_reused only: the slot's
         hit/miss counters keep meaning "schedule repairs", which
         callers assert exactly *)
      (match w.Warm.delays with
      | Some (pf, pd) when same_flow pf ->
        (match stats with
        | None -> ()
        | Some s ->
          Lp.Stats.add_reconstruction s ~delays_reused:1 ~cycles_cancelled:0
            ~matchings_repaired:0 ~matchings_rebuilt:0 ~slots_reused:0 ());
        pd
      | _ ->
        let d = Flow.delays p f in
        w.Warm.delays <- Some (Array.copy f, d);
        d)
  in
  if strict && d <> Flow.delays p f then
    failwith "Reconstruct: strict: warm delays differ from cold";
  d

(* Independent structural audit of a (possibly warm-repaired) schedule:
   the well-formedness check plus the colouring checker run on the
   matchings the slots encode, against the bipartite edges the stored
   demands induce.  This is exactly the certificate the paper's
   reconstruction owes: matching slots, per-edge volumes exact, total
   duration equal to the maximum weighted degree. *)
let certify (t : Schedule.t) =
  match Schedule.check_well_formed t with
  | Error _ as e -> e
  | Ok () ->
    let p = t.Schedule.platform in
    let tag_of = Hashtbl.create 32 in
    let ambiguous = ref false in
    Array.iteri
      (fun tag d ->
        let key = (d.Schedule.d_edge, d.Schedule.d_kind) in
        if Hashtbl.mem tag_of key then ambiguous := true
        else Hashtbl.replace tag_of key tag)
      t.Schedule.demands;
    if !ambiguous then
      (* two demands share an edge and kind: the slot transfers cannot
         be attributed back to demands, so only well-formedness (above)
         is checkable *)
      Ok ()
    else begin
      let bip_edges =
        List.filter_map
          (fun (key, tag) ->
            let d = t.Schedule.demands.(tag) in
            let w =
              R.mul d.Schedule.d_items
                (R.mul d.Schedule.d_item_size
                   (P.edge_cost p d.Schedule.d_edge))
            in
            if R.sign w > 0 then
              Some
                {
                  BC.left = P.edge_src p d.Schedule.d_edge;
                  right = P.edge_dst p d.Schedule.d_edge;
                  weight = w;
                  tag;
                }
            else begin
              ignore key;
              None
            end)
          (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tag_of [])
      in
      let missing = ref false in
      let matchings =
        List.map
          (fun s ->
            {
              BC.duration = s.Schedule.duration;
              edges =
                List.filter_map
                  (fun tr ->
                    match
                      Hashtbl.find_opt tag_of
                        (tr.Schedule.edge, tr.Schedule.kind)
                    with
                    | None ->
                      missing := true;
                      None
                    | Some tag ->
                      Some
                        {
                          BC.left = P.edge_src p tr.Schedule.edge;
                          right = P.edge_dst p tr.Schedule.edge;
                          weight = R.one;
                          tag;
                        })
                  s.Schedule.transfers;
            })
          t.Schedule.slots
      in
      if !missing then Error "certify: slot transfer without a demand"
      else
        let n = P.num_nodes p in
        BC.check_decomposition ~left_size:n ~right_size:n bip_edges
          matchings
    end

let reconstruct ?warm ?(strict = false) ?budget ?stats p ~period ~transfers
    ~compute ~delays =
  let prev =
    match warm with
    | None -> None
    | Some w ->
      (match w.Warm.sched with
      | Some _ as s ->
        w.Warm.hits <- w.Warm.hits + 1;
        s
      | None ->
        w.Warm.misses <- w.Warm.misses + 1;
        None)
  in
  let sched =
    Schedule.reconstruct ?prev ?budget ?stats p ~period ~transfers ~compute
      ~delays
  in
  (match warm with Some w -> w.Warm.sched <- Some sched | None -> ());
  if strict then begin
    (match certify sched with
    | Ok () -> ()
    | Error msg -> failwith ("Reconstruct: strict certification failed: " ^ msg));
    match prev with
    | None -> ()
    | Some _ ->
      (* differential certification against the cold path: every
         per-edge, per-kind volume must agree bit-for-bit (the slot
         sequences may legitimately differ — both are valid colourings
         of the same exact loads) *)
      let cold =
        Schedule.reconstruct p ~period ~transfers ~compute ~delays
      in
      if not (R.equal cold.Schedule.period sched.Schedule.period) then
        failwith "Reconstruct: strict: warm period differs from cold";
      Array.iter
        (fun d ->
          let warm_items =
            Schedule.items_on_edge sched d.Schedule.d_edge
              ~kind:d.Schedule.d_kind
          in
          let cold_items =
            Schedule.items_on_edge cold d.Schedule.d_edge
              ~kind:d.Schedule.d_kind
          in
          if not (R.equal warm_items cold_items) then
            failwith
              (Printf.sprintf
                 "Reconstruct: strict: edge %s kind %d moves %s warm vs %s \
                  cold"
                 (P.edge_name p d.Schedule.d_edge)
                 d.Schedule.d_kind (R.to_string warm_items)
                 (R.to_string cold_items)))
        sched.Schedule.demands
  end;
  sched
