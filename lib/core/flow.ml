module R = Rat
module P = Platform

type t = R.t array

let zero p = Array.make (P.num_edges p) R.zero

let balance p f i =
  let inflow =
    List.fold_left (fun acc e -> R.add acc f.(e)) R.zero (P.in_edges p i)
  in
  let outflow =
    List.fold_left (fun acc e -> R.add acc f.(e)) R.zero (P.out_edges p i)
  in
  R.sub inflow outflow

(* Find a directed cycle among positive-flow edges, as an edge list, via
   iterative DFS with colours. *)
let find_cycle p f =
  let n = P.num_nodes p in
  let colour = Array.make n 0 (* 0 white, 1 grey, 2 black *) in
  let parent_edge = Array.make n (-1) in
  let cycle = ref None in
  let rec dfs i =
    colour.(i) <- 1;
    List.iter
      (fun e ->
        if !cycle = None && R.sign f.(e) > 0 then begin
          let j = P.edge_dst p e in
          if colour.(j) = 0 then begin
            parent_edge.(j) <- e;
            dfs j
          end
          else if colour.(j) = 1 then begin
            (* found: walk back from i to j along parent edges *)
            let rec collect acc v =
              if v = j then acc
              else begin
                let pe = parent_edge.(v) in
                collect (pe :: acc) (P.edge_src p pe)
              end
            in
            cycle := Some (collect [ e ] i)
          end
        end)
      (P.out_edges p i);
    if !cycle = None then colour.(i) <- 2
  in
  let i = ref 0 in
  while !cycle = None && !i < n do
    if colour.(!i) = 0 then dfs !i;
    incr i
  done;
  !cycle

let cancel_cycles_counted p f =
  let f = Array.copy f in
  let found = ref 0 in
  let rec go () =
    match find_cycle p f with
    | None -> ()
    | Some cyc ->
      let m =
        List.fold_left (fun acc e -> R.min acc f.(e)) f.(List.hd cyc) cyc
      in
      List.iter (fun e -> f.(e) <- R.sub f.(e) m) cyc;
      incr found;
      go ()
  in
  go ();
  (f, !found)

let cancel_cycles p f = fst (cancel_cycles_counted p f)

let support f =
  let s = ref [] in
  for e = Array.length f - 1 downto 0 do
    if R.sign f.(e) > 0 then s := e :: !s
  done;
  !s

(* Kahn's pass over the support, the edges of positive flow: the
   longest-path depth of every node (0 off the support), and whether
   every support edge was relaxed, i.e. the support is acyclic.  Only
   the support's nodes get an in-degree, and a node's support edges are
   found in its out-edge range.  The depths do not depend on the queue
   order. *)
let support_depths p f support =
  let indeg = Hashtbl.create 16 in
  let degree i = Option.value ~default:0 (Hashtbl.find_opt indeg i) in
  List.iter
    (fun e ->
      let j = P.edge_dst p e in
      Hashtbl.replace indeg j (degree j + 1))
    support;
  let q = Queue.create () in
  List.iter
    (fun e ->
      let i = P.edge_src p e in
      if degree i = 0 then begin
        Hashtbl.replace indeg i (-1) (* queued *);
        Queue.add i q
      end)
    support;
  let delay = Array.make (P.num_nodes p) 0 in
  let relaxed = ref 0 in
  while not (Queue.is_empty q) do
    let i = Queue.pop q in
    for k = P.out_lo p i to P.out_hi p i - 1 do
      let e = P.out_edge p k in
      if R.sign f.(e) > 0 then begin
        incr relaxed;
        let j = P.edge_dst p e in
        if delay.(i) + 1 > delay.(j) then delay.(j) <- delay.(i) + 1;
        let d = degree j - 1 in
        Hashtbl.replace indeg j d;
        if d = 0 then Queue.add j q
      end
    done
  done;
  (delay, !relaxed = List.length support)

let is_acyclic p f = snd (support_depths p f (support f))

let support_delays p f support =
  let delay, acyclic = support_depths p f support in
  if not acyclic then invalid_arg "Flow.delays: flow support is cyclic";
  delay

let delays p f = support_delays p f (support f)
