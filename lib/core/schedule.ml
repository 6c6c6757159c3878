module R = Rat
module P = Platform

type transfer = {
  edge : P.edge;
  kind : int;
  items : R.t;
  item_size : R.t;
  delay : int;
}

type slot = { offset : R.t; duration : R.t; transfers : transfer list }

type demand = {
  d_edge : P.edge;
  d_kind : int;
  d_items : R.t;
  d_item_size : R.t;
  d_delay : int;
}

type t = {
  platform : P.t;
  period : R.t;
  slots : slot list;
  compute : (P.node * R.t) list;
  delays : int array;
  demands : demand array;
}

let slot_count t = List.length t.slots

let items_on_edge t e ~kind =
  List.fold_left
    (fun acc s ->
      List.fold_left
        (fun acc tr ->
          if tr.edge = e && tr.kind = kind then R.add acc tr.items else acc)
        acc s.transfers)
    R.zero t.slots

let compute_work t i =
  List.fold_left
    (fun acc (j, w) -> if j = i then R.add acc w else acc)
    R.zero t.compute

let check_well_formed t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let p = t.platform in
  let rec check_slots prev_end = function
    | [] -> Ok ()
    | s :: rest ->
      if R.compare s.offset prev_end < 0 then err "overlapping slots"
      else if R.sign s.duration <= 0 then err "empty slot"
      else if R.compare (R.add s.offset s.duration) t.period > 0 then
        err "slot past the period end"
      else begin
        (* matching property + transfers fit the slot *)
        let senders = Hashtbl.create 8 and receivers = Hashtbl.create 8 in
        let rec check_transfers = function
          | [] -> check_slots (R.add s.offset s.duration) rest
          | tr :: more ->
            let src = P.edge_src p tr.edge and dst = P.edge_dst p tr.edge in
            if Hashtbl.mem senders src then err "slot reuses a send port"
            else if Hashtbl.mem receivers dst then err "slot reuses a recv port"
            else begin
              Hashtbl.replace senders src ();
              Hashtbl.replace receivers dst ();
              let busy =
                R.mul tr.items (R.mul tr.item_size (P.edge_cost p tr.edge))
              in
              if R.compare busy s.duration > 0 then
                err "transfer larger than its slot"
              else check_transfers more
            end
        in
        check_transfers s.transfers
      end
  in
  match check_slots R.zero t.slots with
  | Error _ as e -> e
  | Ok () ->
    let rec check_compute = function
      | [] -> Ok ()
      | (i, work) :: rest ->
        (match P.weight p i with
        | Ext_rat.Inf ->
          if R.sign work > 0 then err "compute on a routing node" else check_compute rest
        | Ext_rat.Fin w ->
          if R.compare (R.mul work w) t.period > 0 then
            err "compute exceeds the period on %s" (P.name p i)
          else check_compute rest)
    in
    check_compute t.compute

let execute ~sim ~periods ?(strict = true) t =
  for k = 0 to periods - 1 do
    let t0 = R.mul (R.of_int k) t.period in
    List.iter
      (fun s ->
        let start = R.add t0 s.offset in
        List.iter
          (fun tr ->
            if tr.delay <= k && R.sign tr.items > 0 then begin
              let size = R.mul tr.items tr.item_size in
              Event_sim.at sim start (fun sim ->
                  Event_sim.submit ~strict sim (Event_sim.Transfer (tr.edge, size)))
            end)
          s.transfers)
      t.slots;
    List.iter
      (fun (i, work) ->
        if t.delays.(i) <= k && R.sign work > 0 then
          Event_sim.at sim t0 (fun sim ->
              Event_sim.submit ~strict sim (Event_sim.Compute (i, work))))
      t.compute
  done

let run ~periods t =
  let sim = Event_sim.create t.platform in
  execute ~sim ~periods t;
  Event_sim.run sim;
  sim

let completed sim =
  List.fold_left
    (fun acc i -> R.add acc (Event_sim.completed_work sim i))
    R.zero (Event_sim.computed_nodes sim)

let tasks_per_period t = R.sum (List.map snd t.compute)

(* what a per-period amount [x] delayed by [delay] periods adds up to
   after [k] periods *)
let after k delay x =
  if k > delay then R.mul (R.of_int (k - delay)) x else R.zero

let completed_after t k =
  R.sum (List.map (fun (i, n) -> after k t.delays.(i) n) t.compute)

let deliver ~periods t selectors =
  let p = t.platform in
  let sim = run ~periods t in
  let expected = Array.make (P.num_edges p) R.zero in
  Array.iter
    (fun d ->
      expected.(d.d_edge) <-
        R.add expected.(d.d_edge)
          (after periods d.d_delay (R.mul d.d_items d.d_item_size)))
    t.demands;
  List.iter
    (fun e ->
      let got = Event_sim.transferred sim e in
      if not (R.equal got expected.(e)) then
        failwith
          (Printf.sprintf "Schedule.deliver: edge %s carried %s, expected %s"
             (P.edge_name p e) (R.to_string got) (R.to_string expected.(e))))
    (P.edges p);
  Array.of_list
    (List.map
       (fun selects ->
         Array.fold_left
           (fun acc d ->
             if selects d then R.add acc (after periods d.d_delay d.d_items)
             else acc)
           R.zero t.demands)
       selectors)

let pp ppf t =
  Format.fprintf ppf "period %a, %d slot(s)@." R.pp t.period
    (List.length t.slots);
  List.iter
    (fun s ->
      Format.fprintf ppf "  [%a, %a):" R.pp s.offset
        R.pp (R.add s.offset s.duration);
      List.iter
        (fun tr ->
          Format.fprintf ppf " %s kind=%d items=%a"
            (P.edge_name t.platform tr.edge) tr.kind R.pp tr.items)
        s.transfers;
      Format.fprintf ppf "@.")
    t.slots;
  List.iter
    (fun (i, w) ->
      Format.fprintf ppf "  compute %s: %a per period@."
        (P.name t.platform i) R.pp w)
    t.compute;
  Format.fprintf ppf "  delays:";
  Array.iteri
    (fun i d -> Format.fprintf ppf " %s:%d" (P.name t.platform i) d)
    t.delays;
  Format.fprintf ppf "@."

(* ASCII Gantt rendering: map [0, period) onto [0, width) columns and
   paint per-resource lanes.  Painting rounds towards "at least one
   column per non-empty activity" so hairline slots stay visible. *)
let render_timeline ?(width = 64) t =
  if width < 8 then invalid_arg "Schedule.render_timeline: width too small";
  let p = t.platform in
  let col_of time =
    (* floor (time / period * width), clamped *)
    let c =
      Bigint.to_int (R.floor (R.div (R.mul time (R.of_int width)) t.period))
    in
    if c < 0 then 0 else if c > width then width else c
  in
  let paint lane a b ch =
    let ca = col_of a and cb = Stdlib.max (col_of a + 1) (col_of b) in
    for c = ca to Stdlib.min (width - 1) (cb - 1) do
      Bytes.set lane c ch
    done
  in
  let lanes = ref [] in
  let lane_for key =
    match List.assoc_opt key !lanes with
    | Some l -> l
    | None ->
      let l = Bytes.make width '.' in
      lanes := !lanes @ [ (key, l) ];
      l
  in
  List.iter
    (fun s ->
      List.iter
        (fun tr ->
          let busy = R.mul tr.items (R.mul tr.item_size (P.edge_cost p tr.edge)) in
          if R.sign busy > 0 then begin
            let fin = R.add s.offset busy in
            let ch = Char.chr (Char.code '0' + (tr.kind mod 10)) in
            paint
              (lane_for (Printf.sprintf "%s send" (P.name p (P.edge_src p tr.edge))))
              s.offset fin ch;
            paint
              (lane_for (Printf.sprintf "%s recv" (P.name p (P.edge_dst p tr.edge))))
              s.offset fin ch
          end)
        s.transfers)
    t.slots;
  List.iter
    (fun (i, work) ->
      match P.weight p i with
      | Ext_rat.Fin w when R.sign work > 0 ->
        paint
          (lane_for (Printf.sprintf "%s cpu" (P.name p i)))
          R.zero (R.mul work w) '#'
      | Ext_rat.Fin _ | Ext_rat.Inf -> ())
    t.compute;
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "one period = %s time units; '.' idle, '#' compute, digits = transfer kinds\n"
       (R.to_string t.period));
  let label_width =
    List.fold_left (fun acc (k, _) -> Stdlib.max acc (String.length k)) 0 !lanes
  in
  List.iter
    (fun (key, lane) ->
      Buffer.add_string buf
        (Printf.sprintf "%-*s |%s|\n" label_width key (Bytes.to_string lane)))
    !lanes;
  Buffer.contents buf
