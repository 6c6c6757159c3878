(* Peeling algorithm for the weighted König edge-colouring theorem.

   Invariant maintained across iterations: [delta] is the current maximum
   weighted degree, and every node whose weighted degree equals [delta]
   ("tight" node) is matched by the matching extracted this round.  Such
   a matching exists by the Mendelsohn–Dulmage theorem; we build it with
   Kuhn-style augmenting paths started from uncovered tight nodes (first
   left side, then right side — augmentation never uncovers a covered
   node, so the two passes compose).

   The slot duration is then

     t = min( min weight of a matched edge,
              min over uncovered nodes v of (delta - deg v) )

   so that after subtracting [t] along the matching, the maximum degree
   is exactly [delta - t] and every previously tight node is still
   tight.  Each round either exhausts an edge or turns a new node tight,
   which bounds the number of matchings by |E| + 2|V|, V the endpoints
   that carry an edge. *)

module R = Rat

type edge = { left : int; right : int; weight : R.t; tag : int }

type matching = { duration : R.t; edges : edge list }

(* mutable working copy of an edge; [l] and [r] are the dense indices
   of its endpoints *)
type work = { e : edge; l : int; r : int; mutable remaining : R.t }

(* Dense indices [0 .. k-1] for the distinct values of [keys], in
   increasing order, and [k]. *)
let ranks keys =
  let sorted = Array.copy keys in
  Array.sort Int.compare sorted;
  let k = ref 0 in
  Array.iter
    (fun x ->
      if !k = 0 || sorted.(!k - 1) <> x then begin
        sorted.(!k) <- x;
        incr k
      end)
    sorted;
  let k = !k in
  let rank x =
    let rec search lo hi =
      let mid = (lo + hi) / 2 in
      if sorted.(mid) = x then mid
      else if sorted.(mid) < x then search (mid + 1) hi
      else search lo mid
    in
    search 0 k
  in
  (Array.map rank keys, k)

(* The peeling runs on the endpoints that carry an edge, relabelled
   [0 .. k-1] in their original order.  A node without an edge has
   degree 0: it is never tight and never bounds a slot, and the
   monotone relabelling keeps every scan, tie-break and augmenting
   path in the same order, so the matchings are those of the full
   index space at the cost of the support. *)
let works_of edges =
  let es = Array.of_list edges in
  let ls, kl = ranks (Array.map (fun e -> e.left) es) in
  let rs, kr = ranks (Array.map (fun e -> e.right) es) in
  let works =
    List.init (Array.length es) (fun k ->
        { e = es.(k); l = ls.(k); r = rs.(k); remaining = es.(k).weight })
  in
  (works, kl, kr)

let degrees ~left_size ~right_size works =
  let dl = Array.make left_size R.zero in
  let dr = Array.make right_size R.zero in
  List.iter
    (fun w ->
      dl.(w.l) <- R.add dl.(w.l) w.remaining;
      dr.(w.r) <- R.add dr.(w.r) w.remaining)
    works;
  (dl, dr)

let check_range what ~left_size ~right_size e =
  if e.left < 0 || e.left >= left_size || e.right < 0 || e.right >= right_size
  then invalid_arg ("Bipartite_coloring." ^ what ^ ": endpoint out of range")

let max_weighted_degree ~left_size ~right_size edges =
  List.iter (check_range "max_weighted_degree" ~left_size ~right_size) edges;
  let works, kl, kr = works_of edges in
  let dl, dr = degrees ~left_size:kl ~right_size:kr works in
  let m = Array.fold_left R.max R.zero dl in
  Array.fold_left R.max m dr

(* Find a matching covering every tight node.  [adj_l.(i)] lists the
   active work edges out of left node i; [match_l] / [match_r] hold the
   matched work edge per node, if any.  [visited_l] / [visited_r] mark
   the nodes one augmentation has met with that augmentation's stamp. *)
let covering_matching ~left_size ~right_size works tight_l tight_r =
  let match_l : work option array = Array.make left_size None in
  let match_r : work option array = Array.make right_size None in
  let adj_l = Array.make left_size [] in
  let adj_r = Array.make right_size [] in
  List.iter
    (fun w ->
      adj_l.(w.l) <- w :: adj_l.(w.l);
      adj_r.(w.r) <- w :: adj_r.(w.r))
    works;
  let visited_l = Array.make left_size 0 in
  let visited_r = Array.make right_size 0 in
  let stamp = ref 0 in
  (* Plain Kuhn augmentation from a left node: returns true if an
     augmenting path is found; [visited_r] guards against revisiting
     right nodes.  The left pass only ever covers tight left nodes, so
     every left node met along a path is tight and may not be
     uncovered. *)
  let rec augment_l i =
    List.exists
      (fun w ->
        let j = w.r in
        if visited_r.(j) = !stamp then false
        else begin
          visited_r.(j) <- !stamp;
          match match_r.(j) with
          | None ->
            match_l.(i) <- Some w;
            match_r.(j) <- Some w;
            true
          | Some w' ->
            if augment_l w'.l then begin
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
  let rec augment_r j =
    List.exists
      (fun w ->
        let i = w.l in
        if visited_l.(i) = !stamp then false
        else begin
          visited_l.(i) <- !stamp;
          match match_l.(i) with
          | None ->
            match_l.(i) <- Some w;
            match_r.(j) <- Some w;
            true
          | Some w' ->
            let r' = w'.r in
            if not tight_r.(r') then begin
              match_r.(r') <- None;
              match_l.(i) <- Some w;
              match_r.(j) <- Some w;
              true
            end
            else if augment_r r' then begin
              match_l.(i) <- Some w;
              match_r.(j) <- Some w;
              true
            end
            else false
        end)
      adj_r.(j)
  in
  for i = 0 to left_size - 1 do
    if tight_l.(i) && match_l.(i) = None then begin
      incr stamp;
      if not (augment_l i) then
        (* impossible by Mendelsohn–Dulmage given tightness *)
        invalid_arg "Bipartite_coloring: internal: tight left node uncoverable"
    end
  done;
  for j = 0 to right_size - 1 do
    if tight_r.(j) && match_r.(j) = None then begin
      incr stamp;
      if not (augment_r j) then
        invalid_arg "Bipartite_coloring: internal: tight right node uncoverable"
    end
  done;
  (* collect distinct matched work edges: a right node's edge is
     already in when it is also its left node's *)
  let out = ref [] in
  Array.iter (function None -> () | Some w -> out := w :: !out) match_l;
  let in_left w = match match_l.(w.l) with Some w' -> w' == w | None -> false in
  Array.iter
    (function Some w when not (in_left w) -> out := w :: !out | _ -> ())
    match_r;
  !out

let decompose ~left_size ~right_size edge_list =
  List.iter
    (fun e ->
      check_range "decompose" ~left_size ~right_size e;
      if R.sign e.weight <= 0 then
        invalid_arg "Bipartite_coloring.decompose: non-positive weight")
    edge_list;
  let works, left_size, right_size = works_of edge_list in
  let works = ref works in
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
        covered_l.(w.l) <- true;
        covered_r.(w.r) <- true)
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

let check_decomposition ~left_size ~right_size edge_list matchings =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let result = ref (Ok ()) in
  (* (a) matchings are node-disjoint *)
  List.iteri
    (fun k m ->
      if !result = Ok () then begin
        if R.sign m.duration <= 0 then
          result := err "matching %d has non-positive duration" k;
        let seen_l = Hashtbl.create 8 and seen_r = Hashtbl.create 8 in
        List.iter
          (fun e ->
            if Hashtbl.mem seen_l e.left then
              result := err "matching %d reuses left node %d" k e.left;
            if Hashtbl.mem seen_r e.right then
              result := err "matching %d reuses right node %d" k e.right;
            Hashtbl.replace seen_l e.left ();
            Hashtbl.replace seen_r e.right ())
          m.edges
      end)
    matchings;
  (* (b) per-edge durations sum to the weight; identify edges by tag +
     endpoints, which the decomposition preserves *)
  let key e = (e.left, e.right, e.tag) in
  let totals = Hashtbl.create 32 in
  List.iter
    (fun m ->
      List.iter
        (fun e ->
          let cur =
            Option.value ~default:R.zero (Hashtbl.find_opt totals (key e))
          in
          Hashtbl.replace totals (key e) (R.add cur m.duration))
        m.edges)
    matchings;
  List.iter
    (fun e ->
      if !result = Ok () then begin
        match Hashtbl.find_opt totals (key e) with
        | None -> result := err "edge tag %d never scheduled" e.tag
        | Some tot ->
          if not (R.equal tot e.weight) then
            result :=
              err "edge tag %d scheduled %s, weight %s" e.tag (R.to_string tot)
                (R.to_string e.weight)
      end)
    edge_list;
  (* (c) durations sum to the max weighted degree *)
  if !result = Ok () then begin
    let total = R.sum (List.map (fun m -> m.duration) matchings) in
    let delta = max_weighted_degree ~left_size ~right_size edge_list in
    if not (R.equal total delta) then
      result :=
        err "durations sum to %s, max degree is %s" (R.to_string total)
          (R.to_string delta)
  end;
  !result
