module R = Rat
module P = Platform
module BC = Bipartite_coloring

let cancel ?stats p f =
  let g, found = Flow.cancel_cycles_counted p f in
  (match stats with
  | None -> ()
  | Some s ->
    Lp.Stats.add_reconstruction s ~cycles_cancelled:found
      ~matchings_rebuilt:0);
  g

(* Independent structural audit of a schedule: the well-formedness
   check plus the colouring checker run on the matchings the slots
   encode, against the bipartite edges the stored demands induce.  This is exactly the certificate the paper's
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

let reconstruct ?(strict = false) ?stats p ~period ~transfers ~compute
    ~delays =
  let sched =
    Schedule.reconstruct ?stats p ~period ~transfers ~compute ~delays
  in
  (if strict then
     match certify sched with
     | Ok () -> ()
     | Error msg ->
       failwith ("Reconstruct: strict certification failed: " ^ msg));
  sched
