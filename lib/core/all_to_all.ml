module R = Rat
module P = Platform

type solution = Collective.solution

let solve p ~participants =
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
    participants;
  (* one commodity per ordered pair of distinct participants *)
  let pairs =
    List.concat_map
      (fun s ->
        List.filter_map
          (fun t -> if s = t then None else Some (s, t))
          participants)
      participants
  in
  Collective.solve_pairs Collective.Sum p ~pairs
