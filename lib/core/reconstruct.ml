module R = Rat
module P = Platform
module S = Schedule
module BC = Bipartite_coloring

let cancel ?stats p f =
  let g, found = Flow.cancel_cycles_counted p f in
  (match stats with
  | None -> ()
  | Some s ->
    Lp.Stats.add_reconstruction s ~cycles_cancelled:found
      ~matchings_rebuilt:0);
  g

(* 0 has denominator 1, so zero rates leave the lcm alone *)
let period rates = R.of_bigint (R.lcm_denominators rates)

(* zero rates are skipped before any product *)
let task_period p ~alpha flow =
  let rates = ref [] in
  Array.iter (fun x -> if not (R.is_zero x) then rates := x :: !rates) flow;
  Array.iteri
    (fun i a -> if not (R.is_zero a) then rates := R.mul a (P.speed p i) :: !rates)
    alpha;
  period !rates

let demands ?support p ~period ~kind ~item_size ~delays flow =
  let support =
    match support with Some s -> s | None -> Flow.support flow
  in
  List.filter_map
    (fun e ->
      let items = R.mul period flow.(e) in
      if R.sign items > 0 then
        Some
          {
            S.d_edge = e;
            d_kind = kind;
            d_items = items;
            d_item_size = item_size;
            d_delay = delays.(P.edge_src p e);
          }
      else None)
    support

(* port time a demand takes per period: its weight in the colouring *)
let busy p d =
  R.mul d.S.d_items (R.mul d.S.d_item_size (P.edge_cost p d.S.d_edge))

(* Independent structural audit of a schedule: the well-formedness
   check plus the colouring checker run on the matchings the slots
   encode, against the bipartite edges the stored demands induce.  This is exactly the certificate the paper's
   reconstruction owes: matching slots, per-edge volumes exact, total
   duration equal to the maximum weighted degree. *)
let certify (t : S.t) =
  match S.check_well_formed t with
  | Error _ as e -> e
  | Ok () ->
    let p = t.S.platform in
    let tag_of = Hashtbl.create 32 in
    let ambiguous = ref false in
    Array.iteri
      (fun tag d ->
        let key = (d.S.d_edge, d.S.d_kind) in
        if Hashtbl.mem tag_of key then ambiguous := true
        else Hashtbl.replace tag_of key tag)
      t.S.demands;
    if !ambiguous then
      (* two demands share an edge and kind: the slot transfers cannot
         be attributed back to demands, so only well-formedness (above)
         is checkable *)
      Ok ()
    else begin
      let bip_edges =
        List.filter_map
          (fun (_, tag) ->
            let d = t.S.demands.(tag) in
            let w = busy p d in
            if R.sign w > 0 then
              Some
                {
                  BC.left = P.edge_src p d.S.d_edge;
                  right = P.edge_dst p d.S.d_edge;
                  weight = w;
                  tag;
                }
            else None)
          (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tag_of [])
      in
      let missing = ref false in
      let matchings =
        List.map
          (fun s ->
            {
              BC.duration = s.S.duration;
              edges =
                List.filter_map
                  (fun tr ->
                    match Hashtbl.find_opt tag_of (tr.S.edge, tr.S.kind) with
                    | None ->
                      missing := true;
                      None
                    | Some tag ->
                      Some
                        {
                          BC.left = P.edge_src p tr.S.edge;
                          right = P.edge_dst p tr.S.edge;
                          weight = R.one;
                          tag;
                        })
                  s.S.transfers;
            })
          t.S.slots
      in
      if !missing then Error "certify: slot transfer without a demand"
      else
        let n = P.num_nodes p in
        BC.check_decomposition ~left_size:n ~right_size:n bip_edges
          matchings
    end

(* Weighted bipartite edge colouring of the per-period volumes: one
   slot per matching, in the colouring's order. *)
let reconstruct ?(strict = false) ?stats p ~period ~transfers ~compute
    ~delays =
  if R.sign period <= 0 then
    invalid_arg "Reconstruct.reconstruct: non-positive period";
  (* compute must fit the period *)
  List.iter
    (fun (i, work) ->
      if R.sign work < 0 then
        invalid_arg "Reconstruct.reconstruct: negative work";
      if R.sign work > 0 then begin
        match P.weight p i with
        | Ext_rat.Inf ->
          invalid_arg
            (Printf.sprintf "Reconstruct.reconstruct: %s cannot compute"
               (P.name p i))
        | Ext_rat.Fin w ->
          if R.compare (R.mul work w) period > 0 then
            invalid_arg
              (Printf.sprintf
                 "Reconstruct.reconstruct: compute on %s exceeds the period"
                 (P.name p i))
      end)
    compute;
  let transfers = Array.of_list transfers in
  Array.iter
    (fun d ->
      if R.sign d.S.d_items < 0 || R.sign d.S.d_item_size <= 0 then
        invalid_arg "Reconstruct.reconstruct: bad transfer volume")
    transfers;
  let bip_edges =
    Array.to_list
      (Array.mapi
         (fun tag d ->
           {
             BC.left = P.edge_src p d.S.d_edge;
             right = P.edge_dst p d.S.d_edge;
             weight = busy p d;
             tag;
           })
         transfers)
  in
  let bip_edges = List.filter (fun e -> R.sign e.BC.weight > 0) bip_edges in
  let n = P.num_nodes p in
  let delta = BC.max_weighted_degree ~left_size:n ~right_size:n bip_edges in
  if R.compare delta period > 0 then
    invalid_arg
      (Printf.sprintf "Reconstruct.reconstruct: port load %s exceeds period %s"
         (R.to_string delta) (R.to_string period));
  let matchings = BC.decompose ~left_size:n ~right_size:n bip_edges in
  let offset = ref R.zero in
  let slots =
    List.map
      (fun m ->
        let slot_transfers =
          List.map
            (fun be ->
              let d = transfers.(be.BC.tag) in
              (* the slot keeps the communication busy for its whole
                 duration: items moved = duration / (c_e * item_size) *)
              let items =
                R.div m.BC.duration
                  (R.mul (P.edge_cost p d.S.d_edge) d.S.d_item_size)
              in
              {
                S.edge = d.S.d_edge;
                kind = d.S.d_kind;
                items;
                item_size = d.S.d_item_size;
                delay = d.S.d_delay;
              })
            m.BC.edges
        in
        let s =
          { S.offset = !offset; duration = m.BC.duration;
            transfers = slot_transfers }
        in
        offset := R.add !offset m.BC.duration;
        s)
      matchings
  in
  (match stats with
  | None -> ()
  | Some s ->
    Lp.Stats.add_reconstruction s ~cycles_cancelled:0
      ~matchings_rebuilt:(List.length matchings));
  let sched =
    { S.platform = p; period; slots; compute; delays; demands = transfers }
  in
  (if strict then
     match certify sched with
     | Ok () -> ()
     | Error msg ->
       failwith ("Reconstruct: strict certification failed: " ^ msg));
  sched
