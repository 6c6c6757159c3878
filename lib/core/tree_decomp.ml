(* Shared tree machinery behind the closed-form tree solves: BFS tree
   detection with each node's children as a range of the BFS order, and
   the parent links and upward lanes the multi-commodity routes walk.
   Keeping the structure in one place means one proof obligation for
   "the reachable part really is a tree" instead of two. *)

module P = Platform

type t = {
  root : P.node;
  order : P.node array; (* BFS order over the reachable set, root first *)
  parent_edge : int array; (* tree edge parent->node; -1 at root/unreached *)
  reached : bool array;
  child_lo : int array; (* children of v: order.(child_lo.(v) .. *)
  child_hi : int array; (*   child_hi.(v) - 1); empty when unreached *)
}

(* BFS from the root over out-edges, with [order] as its own queue.
   [Some t] when the reachable part is a tree: every edge leaving a
   reached node is a BFS tree edge or the reverse of one, so the
   reached nodes share exactly (#reached - 1) undirected links.  The
   check runs as each reached node's out-edges are scanned: an edge to
   a node already reached must lead back to the scanning node's parent.
   A parallel directed edge, which would offer combined bandwidth a
   single-parent decomposition cannot see, never gets here:
   [Platform.create] rejects it.

   A node's children are discovered together, while it is scanned, so
   they sit side by side in [order]. *)
let detect p ~root =
  let n = P.num_nodes p in
  let parent_edge = Array.make n (-1) in
  let reached = Array.make n false in
  let child_lo = Array.make n 0 and child_hi = Array.make n 0 in
  let order = Array.make n root in
  reached.(root) <- true;
  let head = ref 0 and tail = ref 1 in
  (* out-edges k .. hi - 1 of a node whose parent is [up]: false on a
     cycle *)
  let rec scan up k hi =
    k >= hi
    ||
    let e = P.out_edge p k in
    let j = P.edge_dst p e in
    if not reached.(j) then begin
      reached.(j) <- true;
      parent_edge.(j) <- e;
      order.(!tail) <- j;
      incr tail;
      scan up (k + 1) hi
    end
    else j = up && scan up (k + 1) hi
  in
  let tree = ref true in
  while !tree && !head < !tail do
    let i = order.(!head) in
    incr head;
    let e = parent_edge.(i) in
    child_lo.(i) <- !tail;
    tree :=
      scan (if e < 0 then -1 else P.edge_src p e) (P.out_lo p i) (P.out_hi p i);
    child_hi.(i) <- !tail
  done;
  if !tree then
    Some
      {
        root;
        order = Array.sub order 0 !tail;
        parent_edge;
        reached;
        child_lo;
        child_hi;
      }
  else None

(* The same BFS over the tree edges alone: a node's children are the
   heads of its out-edges that are their parent edges, in out-edge
   order. *)
let of_parents p ~root parent_edge =
  let n = P.num_nodes p in
  let order = Array.make n root and reached = Array.make n false in
  let child_lo = Array.make n 0 and child_hi = Array.make n 0 in
  reached.(root) <- true;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let v = order.(!head) in
    incr head;
    child_lo.(v) <- !tail;
    for k = P.out_lo p v to P.out_hi p v - 1 do
      let e = P.out_edge p k in
      let u = P.edge_dst p e in
      if parent_edge.(u) = e then begin
        reached.(u) <- true;
        order.(!tail) <- u;
        incr tail
      end
    done;
    child_hi.(v) <- !tail
  done;
  {
    root;
    order = Array.sub order 0 !tail;
    parent_edge;
    reached;
    child_lo;
    child_hi;
  }

let parent p t v =
  let e = t.parent_edge.(v) in
  if e < 0 then invalid_arg "Tree_decomp.parent: root or unreached node";
  P.edge_src p e

(* per node: the directed edge back to its parent, or -1 when the
   platform has no such edge (or at the root / unreached nodes) — the
   upward lanes the multi-commodity routes climb *)
let up_edges p t =
  Array.mapi
    (fun v e ->
      if e < 0 then -1
      else
        match P.find_edge p v (P.edge_src p e) with
        | Some up -> up
        | None -> -1)
    t.parent_edge
