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

(* Kahn's pass over the support, the nodes on an edge of positive
   flow: the longest-path depth of every node (0 off the support), and
   whether every positive edge was relaxed, i.e. the support is
   acyclic.  The depths do not depend on the queue order. *)
let support_depths p f =
  let n = P.num_nodes p in
  let indeg = Array.make n 0 in
  let positive = ref 0 in
  for e = 0 to P.num_edges p - 1 do
    if R.sign f.(e) > 0 then begin
      incr positive;
      indeg.(P.edge_dst p e) <- indeg.(P.edge_dst p e) + 1
    end
  done;
  let q = Queue.create () in
  for e = 0 to P.num_edges p - 1 do
    let i = P.edge_src p e in
    if R.sign f.(e) > 0 && indeg.(i) = 0 then begin
      indeg.(i) <- -1 (* queued *);
      Queue.add i q
    end
  done;
  let delay = Array.make n 0 in
  let relaxed = ref 0 in
  while not (Queue.is_empty q) do
    let i = Queue.pop q in
    List.iter
      (fun e ->
        if R.sign f.(e) > 0 then begin
          incr relaxed;
          let j = P.edge_dst p e in
          if delay.(i) + 1 > delay.(j) then delay.(j) <- delay.(i) + 1;
          indeg.(j) <- indeg.(j) - 1;
          if indeg.(j) = 0 then Queue.add j q
        end)
      (P.out_edges p i)
  done;
  (delay, !relaxed = !positive)

let is_acyclic p f = snd (support_depths p f)

let delays p f =
  let delay, acyclic = support_depths p f in
  if not acyclic then invalid_arg "Flow.delays: flow support is cyclic";
  delay
