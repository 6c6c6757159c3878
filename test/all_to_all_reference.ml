(* SEED SNAPSHOT — do not edit.  Verbatim copy of the personalised
   all-to-all's own pair LP (git show c442f75:lib/core/all_to_all.ml),
   which interleaved each pair's hygiene, conservation and sink rows.
   The library now solves Collective's multi-commodity LP on the same
   pairs, with those rows grouped; the tests require both to give the
   same throughput and the same cycle-cancelled flow for every pair. *)

module R = Rat
module P = Platform

let validate_spec p ~participants =
  if List.length participants < 2 then
    invalid_arg "All_to_all.solve: need at least two participants";
  let seen = Hashtbl.create 8 in
  List.iter
    (fun i ->
      if i < 0 || i >= P.num_nodes p then
        invalid_arg "All_to_all.solve: participant out of range";
      if Hashtbl.mem seen i then
        invalid_arg "All_to_all.solve: duplicate participant";
      Hashtbl.replace seen i ())
    participants

let pairs_of participants =
  List.concat_map
    (fun s ->
      List.filter_map
        (fun t -> if s = t then None else Some (s, t))
        participants)
    participants

(* The monolithic LP: one commodity per ordered pair. *)
let build_model p ~participants =
  validate_spec p ~participants;
  let pairs = pairs_of participants in
  let m = Lp.create () in
  let tp = Lp.add_var m "TP" in
  let unit_iv = Some R.one in
  let s_v =
    Array.init (P.num_edges p) (fun e ->
        Lp.add_var ~ub:unit_iv m (Printf.sprintf "s_%s" (P.edge_name p e)))
  in
  let f_v =
    List.map
      (fun (s, t) ->
        ( (s, t),
          Array.init (P.num_edges p) (fun e ->
              Lp.add_var m
                (Printf.sprintf "f_%s_%s_%s" (P.name p s) (P.name p t)
                   (P.edge_name p e))) ))
      pairs
  in
  (* sum law: s_e = sum over pairs of f * c *)
  Array.iteri
    (fun e sv ->
      let c = P.edge_cost p e in
      let total = Lp.sum (List.map (fun (_, fv) -> Lp.term c fv.(e)) f_v) in
      Lp.add_constraint m (Lp.sub (Lp.var sv) total) Lp.Eq R.zero)
    s_v;
  (* one-port *)
  List.iter
    (fun i ->
      let outs = P.out_edges p i and ins = P.in_edges p i in
      if outs <> [] then
        Lp.add_constraint m
          (Lp.sum (List.map (fun e -> Lp.var s_v.(e)) outs))
          Lp.Le R.one;
      if ins <> [] then
        Lp.add_constraint m
          (Lp.sum (List.map (fun e -> Lp.var s_v.(e)) ins))
          Lp.Le R.one)
    (P.nodes p);
  (* per commodity: hygiene, conservation, sink *)
  List.iter
    (fun ((s, t), fv) ->
      List.iter
        (fun e -> Lp.add_constraint m (Lp.var fv.(e)) Lp.Eq R.zero)
        (P.in_edges p s);
      List.iter
        (fun e -> Lp.add_constraint m (Lp.var fv.(e)) Lp.Eq R.zero)
        (P.out_edges p t);
      List.iter
        (fun i ->
          if i = s then ()
          else if i = t then begin
            let inflow =
              Lp.sum (List.map (fun e -> Lp.var fv.(e)) (P.in_edges p i))
            in
            Lp.add_constraint m (Lp.sub inflow (Lp.var tp)) Lp.Eq R.zero
          end
          else begin
            let inflow =
              List.map (fun e -> Lp.term R.one fv.(e)) (P.in_edges p i)
            in
            let outflow =
              List.map (fun e -> Lp.term R.minus_one fv.(e)) (P.out_edges p i)
            in
            Lp.add_constraint m (Lp.sum (inflow @ outflow)) Lp.Eq R.zero
          end)
        (P.nodes p))
    f_v;
  Lp.set_objective m Lp.Maximize (Lp.var tp);
  (m, tp, s_v, f_v)
