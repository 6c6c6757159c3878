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

(* A name's key.  A name of at most 7 bytes is its own key: its bytes,
   the first lowest, with its length above them from bit 56, so keys of
   different names differ and are below 2^59; the bytes are one 8-byte
   load where the string has 8 bytes from the name on.  A longer name's
   key is its FNV-1a hash, cut to 59 bits, plus [long]: two long names
   may share a key, so their bytes are compared when the keys agree. *)
let long = 1 lsl 60

let key s i e =
  let l = e - i in
  if l > 7 then begin
    let h = ref 0x0bf29ce484222325 in
    for j = i to e - 1 do
      h := (!h lxor Char.code (String.unsafe_get s j)) * 0x100000001b3
    done;
    (!h land (long - 1)) lor long
  end
  else if i + 8 <= String.length s then
    (l lsl 56) lor (Int64.to_int (String.get_int64_le s i) land ((1 lsl (8 * l)) - 1))
  else begin
    let k = ref 0 in
    for j = e - 1 downto i do
      k := (!k lsl 8) lor Char.code (String.unsafe_get s j)
    done;
    (l lsl 56) lor !k
  end

(* where a key's probe starts in a table of [mask + 1] pairs: a
   multiplicative hash, its high bits folded down twice so that every
   byte of the key reaches the low bits (names that differ only in
   their last byte, which sits high in a short key, included) *)
let spot key mask =
  let h = key * 0x2545F4914F6CDD1D in
  let h = h lxor (h lsr 32) in
  (h lxor (h lsr 17)) land mask

(* A growable sequence.  Entries 0 .. length first - 1 live in
   [first], which grows by doubling up to a page; the rest go to pages
   of [page] entries, so growing never copies a large array and holds
   at most a page more than its entries. *)
let page = 1024

type 'a vec = {
  mutable first : 'a array;
  mutable pages : 'a array array;
  mutable cur : 'a array; (* [first] or the last page: where entries go *)
  mutable at : int; (* the next entry's index in [cur] *)
  mutable len : int;
  fill : 'a;
}

let vec fill = { first = [||]; pages = [||]; cur = [||]; at = 0; len = 0; fill }

(* a sequence that holds exactly [a], which it takes over *)
let adopt a fill =
  { first = a; pages = [||]; cur = a; at = Array.length a; len = Array.length a; fill }

(* [push] once [cur] is full: a larger [first] while it is under a
   page, otherwise a new page *)
let push_slow v x =
  let f = Array.length v.first in
  if f < page then begin
    let a = Array.make (min page (max 8 (2 * f))) v.fill in
    Array.blit v.first 0 a 0 f;
    v.first <- a;
    v.cur <- a;
    v.at <- f
  end
  else begin
    let k = (v.len - f) / page in
    if k = Array.length v.pages then begin
      let d = Array.make (max 4 (2 * k)) [||] in
      Array.blit v.pages 0 d 0 k;
      v.pages <- d
    end;
    v.pages.(k) <- Array.make page v.fill;
    v.cur <- v.pages.(k);
    v.at <- 0
  end;
  v.cur.(v.at) <- x;
  v.at <- v.at + 1;
  v.len <- v.len + 1

let push v x =
  if v.at < Array.length v.cur then begin
    v.cur.(v.at) <- x;
    v.at <- v.at + 1;
    v.len <- v.len + 1
  end
  else push_slow v x

(* the entries as one array: [first] itself when it holds exactly
   them, as an adopted one does; otherwise one gather, which fills a
   fresh array without the write barrier a blit into it would take per
   entry *)
let contents v =
  let f = Array.length v.first in
  if v.len = f then v.first
  else if v.len < f then Array.sub v.first 0 v.len
  else begin
    let full = (v.len - f) / page and rest = (v.len - f) mod page in
    let pages = Array.to_list (Array.sub v.pages 0 full) in
    Array.concat
      ((v.first :: pages) @ if rest = 0 then [] else [ Array.sub v.pages.(full) 0 rest ])
  end

let set v i x =
  let f = Array.length v.first in
  if i < f then v.first.(i) <- x
  else
    let j = i - f in
    v.pages.(j / page).(j mod page) <- x

(* entry [i] of a string sequence, typed so that the name table's
   probes read it without checking for a float array *)
let get_name (v : string vec) i =
  let f = Array.length v.first in
  if i < f then v.first.(i)
  else
    let j = i - f in
    v.pages.(j / page).(j mod page)

(* The name table: open addressing over pairs [slots.(2k)] (a key, 0
   when the pair is empty) and [slots.(2k + 1)] (the node), a power of
   two of them, at least 4/3 of the names held.  A name is looked up
   where it stands, as a slice of any string, so a parser resolves
   names without copying them; a short name is found without reading
   any name back, and the table grows without reading one.  [probe]
   gives the first node named s.[i .. e - 1], or, when there is none,
   -1 - the pair the search ended on. *)
let rec probe slots names s i e key k =
  let v = slots.(2 * k) in
  if v = 0 then -1 - k
  else if
    v = key && (key < long || slice_is s i e (get_name names slots.((2 * k) + 1)))
  then slots.((2 * k) + 1)
  else probe slots names s i e key ((k + 1) land ((Array.length slots / 2) - 1))

let lookup slots names s i e =
  if Array.length slots = 0 then -1
  else
    let key = key s i e in
    let v = probe slots names s i e key (spot key ((Array.length slots / 2) - 1)) in
    if v < 0 then -1 else v

(* the table's length for [names] names: pairs, a power of two, at least
   4/3 of them *)
let table_size names =
  let size = ref 8 in
  while 3 * !size < 4 * names do size := 2 * !size done;
  2 * !size

type builder = {
  bnames : string vec;
  bweights : E.t vec;
  bends : int vec; (* per edge: source above destination, see [pack] *)
  bcosts : R.t vec;
  mutable table : int array;
  mutable entered : int; (* the nodes the table has seen, see [catch_up] *)
  mutable bad_name : int; (* the first empty or repeated name, or -1 *)
}

let builder () =
  {
    bnames = vec "";
    bweights = vec E.inf;
    bends = vec 0;
    bcosts = vec R.zero;
    table = [||];
    entered = 0;
    bad_name = -1;
  }

(* [key] for node [i] at the first empty pair from its spot *)
let place table key i =
  let mask = (Array.length table / 2) - 1 in
  let k = ref (spot key mask) in
  while table.(2 * !k) <> 0 do k := (!k + 1) land mask done;
  table.(2 * !k) <- key;
  table.((2 * !k) + 1) <- i

(* Enter the nodes added since the last call, in order, growing the
   table first if they need room.  Names are entered only when a lookup
   or [finish] needs them, so a text that declares its nodes first
   builds its table once, at its size.  The table keeps the first node
   of each name: an empty or repeated name is entered nowhere, and
   only reported by [finish]. *)
let catch_up b =
  let n = b.bnames.len in
  if b.entered < n then begin
    let size = table_size n in
    if size > Array.length b.table then begin
      let old = b.table in
      b.table <- Array.make size 0;
      for k = 0 to (Array.length old / 2) - 1 do
        if old.(2 * k) <> 0 then place b.table old.(2 * k) old.((2 * k) + 1)
      done
    end;
    let table = b.table in
    for i = b.entered to n - 1 do
      let name = get_name b.bnames i in
      let l = String.length name in
      let fresh =
        l > 0
        &&
        let key = key name 0 l in
        let k =
          probe table b.bnames name 0 l key
            (spot key ((Array.length table / 2) - 1))
        in
        k < 0
        && begin
          table.(2 * (-1 - k)) <- key;
          table.((2 * (-1 - k)) + 1) <- i;
          true
        end
      in
      if (not fresh) && b.bad_name < 0 then b.bad_name <- i
    done;
    b.entered <- n
  end

let find b s i e =
  if b.entered < b.bnames.len then catch_up b;
  lookup b.table b.bnames s i e

let add_node b name w =
  push b.bnames name;
  push b.bweights w

(* An edge's ends in one int: the source in the high 31 bits, the
   destination in the low ones.  An end outside [0, 2^31 - 1) is kept as
   2^31 - 1, which no node index reaches, so [finish] still reports it
   out of range. *)
let low31 = (1 lsl 31) - 1
let clamp i = if i < 0 || i > low31 then low31 else i
let pack i j = (clamp i lsl 31) lor clamp j

let add_edge b i j c =
  let k = b.bends.len in
  push b.bends (pack i j);
  push b.bcosts c;
  k

let set_ends b k i j =
  if k < 0 || k >= b.bends.len then invalid_arg "Platform.set_ends: no such edge";
  set b.bends k (pack i j)

(* Compressed adjacency of the first [count] edges, by source and by
   destination at once: [out_off] and [in_off], of length [p + 1], hold
   at [i + 1] the number of those edges at node [i] and become the
   offsets, and the edges go to [out_e] and [in_e], each node's range
   ascending.  A counting sort: the offsets are summed, then serve as
   fill cursors, then shift back into the range starts. *)
let csr p count srcs dsts out_off in_off =
  for i = 1 to p do
    out_off.(i) <- out_off.(i) + out_off.(i - 1);
    in_off.(i) <- in_off.(i) + in_off.(i - 1)
  done;
  let out_e = Array.make count 0 and in_e = Array.make count 0 in
  for k = 0 to count - 1 do
    let i = srcs.(k) and j = dsts.(k) in
    out_e.(out_off.(i)) <- k;
    out_off.(i) <- out_off.(i) + 1;
    in_e.(in_off.(j)) <- k;
    in_off.(j) <- in_off.(j) + 1
  done;
  for i = p downto 1 do
    out_off.(i) <- out_off.(i - 1);
    in_off.(i) <- in_off.(i - 1)
  done;
  out_off.(0) <- 0;
  in_off.(0) <- 0;
  (out_e, in_e)

(* Edge [k], from [i] to [j] at cost [c], while no edge before it
   failed: counted in the degrees [out_off] and [in_off] (at the node's
   index + 1), or recorded in [bad] as the first edge that fails on
   range, self-loop or cost *)
let scan_edge p out_off in_off bad k i j c =
  if !bad < 0 then
    if i >= 0 && i < p && j >= 0 && j < p && i <> j && R.sign c > 0 then begin
      out_off.(i + 1) <- out_off.(i + 1) + 1;
      in_off.(j + 1) <- in_off.(j + 1) + 1
    end
    else bad := k

(* The checks [create] documents, in its order: names, weights, then
   the first failing edge in list order, where one edge fails on range,
   then self-loop, then cost, then on repeating an earlier edge.  The
   edges come scanned: [bad] is [scan_edge]'s, and the degrees are
   those of the edges before it. *)
let index b ~srcs ~dsts ~costs ~out_off ~in_off ~bad =
  catch_up b;
  let names = contents b.bnames and weights = contents b.bweights in
  let p = Array.length names and m = Array.length srcs in
  if b.bad_name >= 0 then begin
    let n = names.(b.bad_name) in
    if n = "" then invalid_arg "Platform.create: empty node name"
    else invalid_arg (Printf.sprintf "Platform.create: duplicate name %S" n)
  end;
  for i = 0 to p - 1 do
    match weights.(i) with
    | E.Inf -> ()
    | E.Fin r ->
      if R.sign r <= 0 then
        invalid_arg
          (Printf.sprintf "Platform.create: node %s has weight <= 0" names.(i))
  done;
  let bad = if !bad < 0 then m else !bad in
  (* index the edges before [bad], then find the first edge that
     repeats an earlier one, one source at a time, with a stamp per
     destination *)
  let out_e, in_e = csr p bad srcs dsts out_off in_off in
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
  if bad < m then begin
    let i = srcs.(bad) and j = dsts.(bad) in
    if i < 0 || i >= p || j < 0 || j >= p then
      invalid_arg "Platform.create: edge endpoint out of range"
    else if i = j then invalid_arg "Platform.create: self-loop"
    else
      invalid_arg
        (Printf.sprintf "Platform.create: edge %s->%s has cost <= 0" names.(i)
           names.(j))
  end;
  {
    names;
    weights;
    srcs;
    dsts;
    costs;
    out_off;
    out_e;
    in_off;
    in_e;
    slots = b.table;
  }

(* the builder's edges unpacked and scanned page by page *)
let finish b =
  let ends = b.bends and p = b.bnames.len in
  let m = ends.len in
  let costs = contents b.bcosts in
  let srcs = Array.make m 0 and dsts = Array.make m 0 in
  let out_off = Array.make (p + 1) 0 and in_off = Array.make (p + 1) 0 in
  let bad = ref (-1) in
  let unpack (a : int array) at =
    for k = at to min (at + Array.length a) m - 1 do
      let v = a.(k - at) in
      let i = v lsr 31 and j = v land low31 in
      srcs.(k) <- i;
      dsts.(k) <- j;
      scan_edge p out_off in_off bad k i j costs.(k)
    done
  in
  unpack ends.first 0;
  Array.iteri
    (fun k pg -> unpack pg (Array.length ends.first + (k * page)))
    ends.pages;
  index b ~srcs ~dsts ~costs ~out_off ~in_off ~bad

(* The builder over arrays it takes over, the edges scanned as they
   are filled in *)
let create ~names ~weights ~edges =
  let p = Array.length names in
  if Array.length weights <> p then
    invalid_arg "Platform.create: |names| <> |weights|";
  let m = List.length edges in
  let srcs = Array.make m 0 and dsts = Array.make m 0 in
  let costs = Array.make m R.zero in
  let out_off = Array.make (p + 1) 0 and in_off = Array.make (p + 1) 0 in
  let bad = ref (-1) in
  List.iteri
    (fun k (i, j, c) ->
      srcs.(k) <- i;
      dsts.(k) <- j;
      costs.(k) <- c;
      scan_edge p out_off in_off bad k i j c)
    edges;
  let b =
    {
      bnames = adopt names "";
      bweights = adopt weights E.inf;
      bends = vec 0;
      bcosts = vec R.zero;
      table = [||];
      entered = 0;
      bad_name = -1;
    }
  in
  index b ~srcs ~dsts ~costs ~out_off ~in_off ~bad

let num_nodes t = Array.length t.names
let num_edges t = Array.length t.srcs

let name t i = t.names.(i)
let weight t i = t.weights.(i)

let speed t i =
  match t.weights.(i) with E.Inf -> R.zero | E.Fin w -> R.inv w

let find_node t n =
  let i = lookup t.slots (adopt t.names "") n 0 (String.length n) in
  if i < 0 then raise Not_found else i

let nodes t = List.init (num_nodes t) Fun.id
let edges t = List.init (num_edges t) Fun.id

let edge_src t e = t.srcs.(e)
let edge_dst t e = t.dsts.(e)
let edge_cost t e = t.costs.(e)
let out_lo t i = t.out_off.(i)
let out_hi t i = t.out_off.(i + 1)
let out_edge t k = t.out_e.(k)
let in_lo t i = t.in_off.(i)
let in_hi t i = t.in_off.(i + 1)
let in_edge t k = t.in_e.(k)

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

(* Dijkstra from a set of sources over a binary heap of (distance, node)
   entries, ordered by distance then node: each strict improvement of a
   node's distance pushes an entry, and an entry whose node is already
   settled is skipped.  Nodes settle in the order of a scan for the
   nearest unsettled node, lowest index first, and a node keeps the edge
   of its first strict improvement, so the tree is the scan's.  Returns
   per node the last edge of its path, -1 at the sources and at
   unreached nodes. *)
let dijkstra t sources =
  let n = num_nodes t in
  let dist = Array.make n R.zero and reached = Array.make n false in
  let via = Array.make n (-1) and settled = Array.make n false in
  (* every push is a source or a strict improvement along an edge *)
  let cap = List.length sources + num_edges t in
  let hd = Array.make cap R.zero and hn = Array.make cap 0 and size = ref 0 in
  let less i j =
    let c = R.compare hd.(i) hd.(j) in
    c < 0 || (c = 0 && hn.(i) < hn.(j))
  in
  let swap i j =
    let d = hd.(i) and u = hn.(i) in
    hd.(i) <- hd.(j);
    hn.(i) <- hn.(j);
    hd.(j) <- d;
    hn.(j) <- u
  in
  let push d u =
    let i = ref !size in
    hd.(!i) <- d;
    hn.(!i) <- u;
    incr size;
    while !i > 0 && less !i ((!i - 1) / 2) do
      swap !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done
  in
  let pop () =
    decr size;
    swap 0 !size;
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      let c = if l + 1 < !size && less (l + 1) l then l + 1 else l in
      if c < !size && less c !i then begin
        swap c !i;
        i := c
      end
      else continue := false
    done;
    hn.(!size)
  in
  List.iter
    (fun s ->
      reached.(s) <- true;
      push R.zero s)
    sources;
  while !size > 0 do
    let u = pop () in
    if not settled.(u) then begin
      settled.(u) <- true;
      let du = dist.(u) in
      for k = t.out_off.(u) to t.out_off.(u + 1) - 1 do
        let e = t.out_e.(k) in
        let v = t.dsts.(e) in
        let nd = R.add du t.costs.(e) in
        if (not reached.(v)) || R.compare nd dist.(v) < 0 then begin
          reached.(v) <- true;
          dist.(v) <- nd;
          via.(v) <- e;
          push nd v
        end
      done
    end
  done;
  via

let path_via t via sources dst =
  let rec walk v acc =
    if List.mem v sources then Some acc
    else if via.(v) < 0 then None
    else walk t.srcs.(via.(v)) (via.(v) :: acc)
  in
  walk dst []

let multi_source_shortest_path t ~sources dst =
  if sources = [] then invalid_arg "Platform.multi_source_shortest_path: no sources";
  if List.mem dst sources then Some []
  else path_via t (dijkstra t sources) sources dst

let shortest_path t src dst = multi_source_shortest_path t ~sources:[ src ] dst

let shortest_path_tree t src = dijkstra t [ src ]

(* every edge reversed stays valid, and each node's in-edges become its
   out-edges: the arrays are shared, nothing is checked again *)
let transpose t =
  {
    t with
    srcs = t.dsts;
    dsts = t.srcs;
    out_off = t.in_off;
    out_e = t.in_e;
    in_off = t.out_off;
    in_e = t.out_e;
  }

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
