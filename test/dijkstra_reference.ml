(* Reference oracle for Platform's shortest paths: the O(n^2) Dijkstra
   it ran before its binary heap.  Each step scans every node for the
   nearest unsettled one, lowest index first, and a node keeps the edge
   of its first strict improvement; the heap must give the same trees
   and paths. *)

module P = Platform
module R = Rat

let dijkstra p sources =
  let n = P.num_nodes p in
  let dist = Array.make n None in
  let via = Array.make n None in
  let visited = Array.make n false in
  List.iter (fun s -> dist.(s) <- Some R.zero) sources;
  let rec pick () =
    let best = ref None in
    for i = 0 to n - 1 do
      if not visited.(i) then begin
        match (dist.(i), !best) with
        | Some d, Some (_, bd) when R.compare d bd < 0 -> best := Some (i, d)
        | Some d, None -> best := Some (i, d)
        | Some _, Some _ | None, _ -> ()
      end
    done;
    match !best with
    | None -> ()
    | Some (u, du) ->
      visited.(u) <- true;
      List.iter
        (fun e ->
          let v = P.edge_dst p e in
          let nd = R.add du (P.edge_cost p e) in
          match dist.(v) with
          | Some old when R.compare old nd <= 0 -> ()
          | Some _ | None ->
            dist.(v) <- Some nd;
            via.(v) <- Some e)
        (P.out_edges p u);
      pick ()
  in
  pick ();
  (dist, via)

let path_via p via sources dst =
  let rec walk v acc =
    if List.mem v sources then Some acc
    else begin
      match via.(v) with
      | None -> None
      | Some e -> walk (P.edge_src p e) (e :: acc)
    end
  in
  walk dst []

let multi_source_shortest_path p ~sources dst =
  if List.mem dst sources then Some []
  else begin
    let dist, via = dijkstra p sources in
    match dist.(dst) with None -> None | Some _ -> path_via p via sources dst
  end

let shortest_path p src dst = multi_source_shortest_path p ~sources:[ src ] dst

let shortest_path_tree p src =
  let _, via = dijkstra p [ src ] in
  Array.map (function Some e -> e | None -> -1) via
