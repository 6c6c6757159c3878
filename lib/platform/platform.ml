module R = Rat
module E = Ext_rat

type node = int
type edge = int

type t = {
  names : string array;
  weights : E.t array;
  srcs : int array;
  dsts : int array;
  costs : R.t array;
  out_off : int array;
      (* CSR: node i's out-edges are out_e.(out_off.(i) .. out_off.(i +
         1) - 1), ascending *)
  out_e : edge array;
  in_off : int array; (* likewise for in-edges *)
  in_e : edge array;
  slots : int array; (* the name table, see [lookup] *)
}

(* FNV-1a over s.[i .. e - 1], folded so that the low bits mix *)
let hash_slice s i e =
  let h = ref 0x0bf29ce484222325 in
  for k = i to e - 1 do
    h := (!h lxor Char.code (String.unsafe_get s k)) * 0x100000001b3
  done;
  !h lxor (!h lsr 32)

(* s.[i .. e - 1] spells [name] *)
let slice_is s i e name =
  let l = String.length name in
  e - i = l
  &&
  let k = ref 0 in
  while !k < l && String.unsafe_get s (i + !k) = String.unsafe_get name !k do
    incr k
  done;
  !k = l

(* The name table: open addressing over [slots], a power of two at
   least twice the node count, each slot 0 or a node index + 1.  A
   name is looked up where it stands, as a slice of any string, so a
   parser resolves names without copying them. *)
let rec probe slots names s i e k =
  let v = slots.(k) in
  if v = 0 then -1
  else if slice_is s i e names.(v - 1) then v - 1
  else probe slots names s i e ((k + 1) land (Array.length slots - 1))

let lookup slots names s i e =
  probe slots names s i e (hash_slice s i e land (Array.length slots - 1))

(* enter node [i] under its name unless the name is already there *)
let rec insert slots names i k =
  let v = slots.(k) in
  if v = 0 then begin
    slots.(k) <- i + 1;
    true
  end
  else
    (not (String.equal names.(v - 1) names.(i)))
    && insert slots names i ((k + 1) land (Array.length slots - 1))

(* Compressed adjacency of the first [count] edges by their [ends]
   (sources or destinations): offsets [off] of length [p + 1] and the
   edges [es], each node's range ascending.  A counting sort: [off]
   counts, then serves as the fill cursor, then shifts back into the
   range starts. *)
let csr p count ends =
  let off = Array.make (p + 1) 0 in
  for k = 0 to count - 1 do
    off.(ends.(k) + 1) <- off.(ends.(k) + 1) + 1
  done;
  for i = 1 to p do
    off.(i) <- off.(i) + off.(i - 1)
  done;
  let es = Array.make count 0 in
  for k = 0 to count - 1 do
    let i = ends.(k) in
    es.(off.(i)) <- k;
    off.(i) <- off.(i) + 1
  done;
  for i = p downto 1 do
    off.(i) <- off.(i - 1)
  done;
  off.(0) <- 0;
  (off, es)

(* The checks [create] documents, in its order: names, weights, then
   the first failing edge in list order, where one edge fails on range,
   then self-loop, then cost, then on repeating an earlier edge.  The
   name table (the first node of each name) is built before [edges]
   resolves against it, and the first bad name is only reported
   after. *)
let build ~names ~weights ~edges =
  let p = Array.length names in
  if Array.length weights <> p then
    invalid_arg "Platform.create: |names| <> |weights|";
  let size = ref 8 in
  while !size < 2 * p do size := 2 * !size done;
  let slots = Array.make !size 0 in
  let bad_name = ref (-1) in
  Array.iteri
    (fun i n ->
      let l = String.length n in
      if
        (l = 0 || not (insert slots names i (hash_slice n 0 l land (!size - 1))))
        && !bad_name < 0
      then bad_name := i)
    names;
  let srcs, dsts, costs = edges (fun s i e -> lookup slots names s i e) in
  let m = Array.length srcs in
  if Array.length dsts <> m || Array.length costs <> m then
    invalid_arg "Platform.create: edge arrays differ in length";
  if !bad_name >= 0 then begin
    let n = names.(!bad_name) in
    if n = "" then invalid_arg "Platform.create: empty node name"
    else invalid_arg (Printf.sprintf "Platform.create: duplicate name %S" n)
  end;
  Array.iteri
    (fun i w ->
      match w with
      | E.Inf -> ()
      | E.Fin r ->
        if R.sign r <= 0 then
          invalid_arg
            (Printf.sprintf "Platform.create: node %s has weight <= 0"
               names.(i)))
    weights;
  let edge_error k =
    let i = srcs.(k) and j = dsts.(k) in
    if i < 0 || i >= p || j < 0 || j >= p then
      Some "Platform.create: edge endpoint out of range"
    else if i = j then Some "Platform.create: self-loop"
    else if R.sign costs.(k) <= 0 then
      Some
        (Printf.sprintf "Platform.create: edge %s->%s has cost <= 0" names.(i)
           names.(j))
    else None
  in
  let rec first_bad k =
    if k = m then k
    else match edge_error k with None -> first_bad (k + 1) | Some _ -> k
  in
  (* edges before [bad] are in range: index them, then find the first
     edge that repeats an earlier one, one source at a time, with a
     stamp per destination *)
  let bad = first_bad 0 in
  let out_off, out_e = csr p bad srcs and in_off, in_e = csr p bad dsts in
  let seen_from = Array.make p (-1) in
  let dup = ref bad in
  for i = 0 to p - 1 do
    for k = out_off.(i) to out_off.(i + 1) - 1 do
      let j = dsts.(out_e.(k)) in
      if seen_from.(j) = i then dup := min !dup out_e.(k)
      else seen_from.(j) <- i
    done
  done;
  if !dup < bad then
    invalid_arg
      (Printf.sprintf "Platform.create: duplicate edge %s->%s"
         names.(srcs.(!dup)) names.(dsts.(!dup)));
  Option.iter invalid_arg (if bad < m then edge_error bad else None);
  { names; weights; srcs; dsts; costs; out_off; out_e; in_off; in_e; slots }

let create ~names ~weights ~edges =
  build ~names ~weights ~edges:(fun _ ->
      let m = List.length edges in
      let srcs = Array.make m 0 and dsts = Array.make m 0 in
      let costs = Array.make m R.zero in
      List.iteri
        (fun k (i, j, c) ->
          srcs.(k) <- i;
          dsts.(k) <- j;
          costs.(k) <- c)
        edges;
      (srcs, dsts, costs))

let num_nodes t = Array.length t.names
let num_edges t = Array.length t.srcs

let name t i = t.names.(i)
let weight t i = t.weights.(i)

let speed t i =
  match t.weights.(i) with E.Inf -> R.zero | E.Fin w -> R.inv w

let find_node t n =
  let i = lookup t.slots t.names n 0 (String.length n) in
  if i < 0 then raise Not_found else i

let nodes t = List.init (num_nodes t) Fun.id
let edges t = List.init (num_edges t) Fun.id

let edge_src t e = t.srcs.(e)
let edge_dst t e = t.dsts.(e)
let edge_cost t e = t.costs.(e)
let out_lo t i = t.out_off.(i)
let out_hi t i = t.out_off.(i + 1)
let out_edge t k = t.out_e.(k)

(* the range's edges as a list, ascending *)
let range_list es lo hi =
  let rec go k acc = if k < lo then acc else go (k - 1) (es.(k) :: acc) in
  go (hi - 1) []

let out_edges t i = range_list t.out_e t.out_off.(i) t.out_off.(i + 1)
let in_edges t i = range_list t.in_e t.in_off.(i) t.in_off.(i + 1)

let find_edge t i j =
  let rec go k =
    if k >= t.out_off.(i + 1) then None
    else if t.dsts.(t.out_e.(k)) = j then Some t.out_e.(k)
    else go (k + 1)
  in
  go t.out_off.(i)

let edge_name t e =
  t.names.(t.srcs.(e)) ^ "->" ^ t.names.(t.dsts.(e))

let reachable_from t start =
  let seen = Array.make (num_nodes t) false in
  let rec go = function
    | [] -> ()
    | i :: rest ->
      let next =
        List.fold_left
          (fun acc e ->
            let j = t.dsts.(e) in
            if seen.(j) then acc
            else begin
              seen.(j) <- true;
              j :: acc
            end)
          rest (out_edges t i)
      in
      go next
  in
  seen.(start) <- true;
  go [ start ];
  seen

let depth_from t start =
  let dist = Array.make (num_nodes t) (-1) in
  dist.(start) <- 0;
  let q = Queue.create () in
  Queue.add start q;
  let maxd = ref 0 in
  while not (Queue.is_empty q) do
    let i = Queue.pop q in
    List.iter
      (fun e ->
        let j = t.dsts.(e) in
        if dist.(j) < 0 then begin
          dist.(j) <- dist.(i) + 1;
          if dist.(j) > !maxd then maxd := dist.(j);
          Queue.add j q
        end)
      (out_edges t i)
  done;
  !maxd

let is_spanning_from t start =
  Array.for_all Fun.id (reachable_from t start)

(* Dijkstra from a set of sources; returns per-node predecessor edge *)
let dijkstra t sources =
  let n = num_nodes t in
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
          let v = t.dsts.(e) in
          let nd = R.add du t.costs.(e) in
          match dist.(v) with
          | Some old when R.compare old nd <= 0 -> ()
          | Some _ | None ->
            dist.(v) <- Some nd;
            via.(v) <- Some e)
        (out_edges t u);
      pick ()
  in
  pick ();
  (dist, via)

let path_via t via sources dst =
  let rec walk v acc =
    if List.mem v sources then Some acc
    else begin
      match via.(v) with
      | None -> None
      | Some e -> walk t.srcs.(e) (e :: acc)
    end
  in
  walk dst []

let multi_source_shortest_path t ~sources dst =
  if sources = [] then invalid_arg "Platform.multi_source_shortest_path: no sources";
  if List.mem dst sources then Some []
  else begin
    let dist, via = dijkstra t sources in
    match dist.(dst) with
    | None -> None
    | Some _ -> path_via t via sources dst
  end

let shortest_path t src dst = multi_source_shortest_path t ~sources:[ src ] dst

let shortest_path_tree t src =
  let _, via = dijkstra t [ src ] in
  Array.map (function Some e -> e | None -> -1) via

let transpose t =
  build ~names:(Array.copy t.names) ~weights:(Array.copy t.weights)
    ~edges:(fun _ -> (Array.copy t.dsts, Array.copy t.srcs, Array.copy t.costs))

let reachable_via t ~alive start =
  let seen = Array.make (num_nodes t) false in
  let rec go = function
    | [] -> ()
    | i :: rest ->
      let next =
        List.fold_left
          (fun acc e ->
            let j = t.dsts.(e) in
            if (not (alive e)) || seen.(j) then acc
            else begin
              seen.(j) <- true;
              j :: acc
            end)
          rest (out_edges t i)
      in
      go next
  in
  seen.(start) <- true;
  go [ start ];
  seen

let restrict_nodes t ~keep =
  let old_of_new = ref [] in
  let new_of_old = Array.make (num_nodes t) (-1) in
  let count = ref 0 in
  for i = 0 to num_nodes t - 1 do
    if keep i then begin
      new_of_old.(i) <- !count;
      old_of_new := i :: !old_of_new;
      incr count
    end
  done;
  let old_of_new = Array.of_list (List.rev !old_of_new) in
  let edges =
    List.filter_map
      (fun e ->
        let i = t.srcs.(e) and j = t.dsts.(e) in
        if new_of_old.(i) >= 0 && new_of_old.(j) >= 0 then
          Some (new_of_old.(i), new_of_old.(j), t.costs.(e))
        else None)
      (edges t)
  in
  let sub =
    create
      ~names:(Array.map (fun i -> t.names.(i)) old_of_new)
      ~weights:(Array.map (fun i -> t.weights.(i)) old_of_new)
      ~edges
  in
  (sub, old_of_new)

type restriction = {
  sub : t;
  node_of_sub : node array;
  sub_of_node : int array;
  edge_of_sub : edge array;
  sub_of_edge : int array;
}

let restrict ?weights:weight_of ?costs:cost_of t ~keep_node ~keep_edge =
  let n = num_nodes t and m = num_edges t in
  let node_of_sub = ref [] in
  let sub_of_node = Array.make n (-1) in
  let count = ref 0 in
  for i = 0 to n - 1 do
    if keep_node i then begin
      sub_of_node.(i) <- !count;
      node_of_sub := i :: !node_of_sub;
      incr count
    end
  done;
  let node_of_sub = Array.of_list (List.rev !node_of_sub) in
  let edge_of_sub = ref [] in
  let sub_of_edge = Array.make m (-1) in
  let ecount = ref 0 in
  let sub_edges = ref [] in
  let cost_of = match cost_of with Some f -> f | None -> fun e -> t.costs.(e) in
  for e = 0 to m - 1 do
    let i = t.srcs.(e) and j = t.dsts.(e) in
    if sub_of_node.(i) >= 0 && sub_of_node.(j) >= 0 && keep_edge e then begin
      sub_of_edge.(e) <- !ecount;
      edge_of_sub := e :: !edge_of_sub;
      sub_edges := (sub_of_node.(i), sub_of_node.(j), cost_of e) :: !sub_edges;
      incr ecount
    end
  done;
  let edge_of_sub = Array.of_list (List.rev !edge_of_sub) in
  let weight_of =
    match weight_of with Some f -> f | None -> fun i -> t.weights.(i)
  in
  let sub =
    create
      ~names:(Array.map (fun i -> t.names.(i)) node_of_sub)
      ~weights:(Array.map weight_of node_of_sub)
      ~edges:(List.rev !sub_edges)
  in
  { sub; node_of_sub; sub_of_node; edge_of_sub; sub_of_edge }

let pp ppf t =
  Format.fprintf ppf "platform: %d nodes, %d edges@." (num_nodes t)
    (num_edges t);
  Array.iteri
    (fun i n -> Format.fprintf ppf "  node %s w=%a@." n E.pp t.weights.(i))
    t.names;
  for e = 0 to num_edges t - 1 do
    Format.fprintf ppf "  edge %s c=%a@." (edge_name t e) R.pp t.costs.(e)
  done

let equal a b =
  num_nodes a = num_nodes b
  && num_edges a = num_edges b
  && a.names = b.names
  && Array.for_all2 E.equal a.weights b.weights
  && a.srcs = b.srcs
  && a.dsts = b.dsts
  && Array.for_all2 R.equal a.costs b.costs
