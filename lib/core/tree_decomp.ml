(* Shared tree machinery behind the closed-form tree solves: BFS tree
   detection, the bottom-up absorption sweep of the master–slave
   knapsack chain, and the parent links and upward lanes the
   multi-commodity routes walk.  Keeping the structure in one place
   means one proof obligation for "the reachable part really is a tree"
   instead of two. *)

module R = Rat
module P = Platform

type t = {
  root : P.node;
  order : P.node array; (* BFS order over the reachable set, root first *)
  parent_edge : int array; (* tree edge parent->node; -1 at root/unreached *)
  reached : bool array;
}

(* BFS from the root over out-edges.  [Some t] when the reachable part
   is a tree: every edge leaving a reached node is a BFS tree edge or
   the reverse of one, so the reached nodes share exactly
   (#reached - 1) undirected links.  A parallel directed edge, which
   would offer combined bandwidth a single-parent decomposition cannot
   see, never gets here: [Platform.create] rejects it. *)
let detect p ~root =
  let n = P.num_nodes p in
  let parent_edge = Array.make n (-1) in
  let reached = Array.make n false in
  reached.(root) <- true;
  let order = ref [ root ] in
  let q = Queue.create () in
  Queue.add root q;
  while not (Queue.is_empty q) do
    let i = Queue.pop q in
    List.iter
      (fun e ->
        let j = P.edge_dst p e in
        if not reached.(j) then begin
          reached.(j) <- true;
          parent_edge.(j) <- e;
          order := j :: !order;
          Queue.add j q
        end)
      (P.out_edges p i)
  done;
  let tree_link e =
    let s = P.edge_src p e and d = P.edge_dst p e in
    (not reached.(s))
    || parent_edge.(d) = e
    || (parent_edge.(s) >= 0 && P.edge_src p parent_edge.(s) = d)
  in
  if List.for_all tree_link (P.edges p) then
    Some { root; order = Array.of_list (List.rev !order); parent_edge; reached }
  else None

let parent p t v =
  let e = t.parent_edge.(v) in
  if e < 0 then invalid_arg "Tree_decomp.parent: root or unreached node";
  P.edge_src p e

(* children of each reachable node, as (tree_edge, child) pairs in BFS
   discovery order *)
let children p t =
  let kids = Array.make (P.num_nodes p) [] in
  Array.iter
    (fun v ->
      let e = t.parent_edge.(v) in
      if e >= 0 then begin
        let u = P.edge_src p e in
        kids.(u) <- (e, v) :: kids.(u)
      end)
    t.order;
  Array.map List.rev kids

(* generic bottom-up absorption: children are folded before their
   parent (reverse BFS order), [f v child_results] sees one
   [(tree_edge, child_value)] per child.  Entries of unreached nodes
   keep [default]. *)
let bottom_up p t ~default ~f =
  let kids = children p t in
  let value = Array.make (P.num_nodes p) default in
  for idx = Array.length t.order - 1 downto 0 do
    let v = t.order.(idx) in
    value.(v) <-
      f v (List.map (fun (e, w) -> (e, value.(w))) kids.(v))
  done;
  value

(* per node: the directed edge back to its parent, or -1 when the
   platform has no such edge (or at the root / unreached nodes) — the
   upward lanes the multi-commodity routes climb *)
let up_edges p t =
  let ids = Hashtbl.create (2 * P.num_nodes p) in
  List.iter
    (fun e -> Hashtbl.replace ids (P.edge_src p e, P.edge_dst p e) e)
    (P.edges p);
  Array.mapi
    (fun v e ->
      if e < 0 then -1
      else
        match Hashtbl.find_opt ids (v, P.edge_src p e) with
        | Some up -> up
        | None -> -1)
    t.parent_edge
