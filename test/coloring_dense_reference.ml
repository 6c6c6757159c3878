(* SEED SNAPSHOT — do not edit.  Verbatim copy of the dense peeling
   (git show bc198e1:lib/coloring/bipartite_coloring.ml), which sized
   every round's arrays by [left_size] and [right_size].  The library
   now runs the same peeling on the endpoints that carry an edge; the
   tests require both to return the same matchings, in the same order,
   with the same durations and edge records. *)

module R = Rat

type edge = Bipartite_coloring.edge = {
  left : int;
  right : int;
  weight : R.t;
  tag : int;
}

type matching = Bipartite_coloring.matching = {
  duration : R.t;
  edges : edge list;
}

(* mutable working copy of an edge *)
type work = { e : edge; mutable remaining : R.t }

let degrees ~left_size ~right_size works =
  let dl = Array.make left_size R.zero in
  let dr = Array.make right_size R.zero in
  List.iter
    (fun w ->
      dl.(w.e.left) <- R.add dl.(w.e.left) w.remaining;
      dr.(w.e.right) <- R.add dr.(w.e.right) w.remaining)
    works;
  (dl, dr)

let max_weighted_degree ~left_size ~right_size edges =
  let works = List.map (fun e -> { e; remaining = e.weight }) edges in
  let dl, dr = degrees ~left_size ~right_size works in
  let m = Array.fold_left R.max R.zero dl in
  Array.fold_left R.max m dr

(* Find a matching covering every tight node.  [adj_l.(i)] lists the
   active work edges out of left node i; [match_l] / [match_r] hold the
   matched work edge per node, if any. *)
let covering_matching ~left_size ~right_size works tight_l tight_r =
  let match_l : work option array = Array.make left_size None in
  let match_r : work option array = Array.make right_size None in
  let adj_l = Array.make left_size [] in
  let adj_r = Array.make right_size [] in
  List.iter
    (fun w ->
      adj_l.(w.e.left) <- w :: adj_l.(w.e.left);
      adj_r.(w.e.right) <- w :: adj_r.(w.e.right))
    works;
  (* Plain Kuhn augmentation from a left node: returns true if an
     augmenting path is found; [visited_r] guards against revisiting
     right nodes.  The left pass only ever covers tight left nodes, so
     every left node met along a path is tight and may not be
     uncovered. *)
  let rec augment_l visited_r i =
    List.exists
      (fun w ->
        let j = w.e.right in
        if visited_r.(j) then false
        else begin
          visited_r.(j) <- true;
          match match_r.(j) with
          | None ->
            match_l.(i) <- Some w;
            match_r.(j) <- Some w;
            true
          | Some w' ->
            if augment_l visited_r w'.e.left then begin
              match_l.(i) <- Some w;
              match_r.(j) <- Some w;
              true
            end
            else false
        end)
      adj_l.(i)
  in
  (* Right-pass augmentation.  Unlike the left pass (where every covered
     left node is itself tight, so plain Kuhn augmentation is complete),
     the matching may cover right nodes incidentally.  The exchange
     argument behind Mendelsohn–Dulmage then allows one extra move:
     an alternating path from the uncovered tight node [j] may end by
     {e stealing} a left node from a non-tight right node, uncovering
     only that non-required vertex. *)
  let rec augment_r visited_l j =
    List.exists
      (fun w ->
        let i = w.e.left in
        if visited_l.(i) then false
        else begin
          visited_l.(i) <- true;
          match match_l.(i) with
          | None ->
            match_l.(i) <- Some w;
            match_r.(j) <- Some w;
            true
          | Some w' ->
            let r' = w'.e.right in
            if not tight_r.(r') then begin
              match_r.(r') <- None;
              match_l.(i) <- Some w;
              match_r.(j) <- Some w;
              true
            end
            else if augment_r visited_l r' then begin
              match_l.(i) <- Some w;
              match_r.(j) <- Some w;
              true
            end
            else false
        end)
      adj_r.(j)
  in
  for i = 0 to left_size - 1 do
    if tight_l.(i) && match_l.(i) = None then
      if not (augment_l (Array.make right_size false) i) then
        (* impossible by Mendelsohn–Dulmage given tightness *)
        invalid_arg "Bipartite_coloring: internal: tight left node uncoverable"
  done;
  for j = 0 to right_size - 1 do
    if tight_r.(j) && match_r.(j) = None then
      if not (augment_r (Array.make left_size false) j) then
        invalid_arg "Bipartite_coloring: internal: tight right node uncoverable"
  done;
  (* collect distinct matched work edges *)
  let out = ref [] in
  Array.iter (function None -> () | Some w -> out := w :: !out) match_l;
  Array.iteri
    (fun j _ ->
      match match_r.(j) with
      | Some w when not (List.memq w !out) -> out := w :: !out
      | _ -> ())
    match_r;
  !out

let decompose ~left_size ~right_size edge_list =
  List.iter
    (fun e ->
      if e.left < 0 || e.left >= left_size || e.right < 0
         || e.right >= right_size then
        invalid_arg "Bipartite_coloring.decompose: endpoint out of range";
      if R.sign e.weight <= 0 then
        invalid_arg "Bipartite_coloring.decompose: non-positive weight")
    edge_list;
  let works = ref (List.map (fun e -> { e; remaining = e.weight }) edge_list) in
  let out = ref [] in
  let guard = ref (List.length edge_list + (2 * (left_size + right_size)) + 1) in
  while !works <> [] do
    decr guard;
    if !guard < 0 then failwith "Bipartite_coloring.decompose: did not converge";
    let dl, dr = degrees ~left_size ~right_size !works in
    let delta = Array.fold_left R.max (Array.fold_left R.max R.zero dl) dr in
    let tight_l = Array.map (fun d -> R.equal d delta) dl in
    let tight_r = Array.map (fun d -> R.equal d delta) dr in
    let matched =
      covering_matching ~left_size ~right_size !works tight_l tight_r
    in
    (* slot duration *)
    let t =
      List.fold_left (fun acc w -> R.min acc w.remaining) delta matched
    in
    let covered_l = Array.make left_size false in
    let covered_r = Array.make right_size false in
    List.iter
      (fun w ->
        covered_l.(w.e.left) <- true;
        covered_r.(w.e.right) <- true)
      matched;
    let t = ref t in
    Array.iteri
      (fun i d ->
        if (not covered_l.(i)) && R.sign d > 0 then
          t := R.min !t (R.sub delta d))
      dl;
    Array.iteri
      (fun j d ->
        if (not covered_r.(j)) && R.sign d > 0 then
          t := R.min !t (R.sub delta d))
      dr;
    let t = !t in
    assert (R.sign t > 0);
    out := { duration = t; edges = List.map (fun w -> w.e) matched } :: !out;
    List.iter (fun w -> w.remaining <- R.sub w.remaining t) matched;
    works := List.filter (fun w -> R.sign w.remaining > 0) !works
  done;
  List.rev !out

