module R = Rat
module E = Ext_rat

let fail lineno msg =
  invalid_arg (Printf.sprintf "Platform_parse: line %d: %s" lineno msg)

let is_space c = c = ' ' || c = '\t' || c = '\r'

(* One pass over the text by index: each line's comment is cut and its
   words are kept as offsets, so only names are copied out and numbers
   are read in place. *)
let of_string text =
  let len = String.length text in
  let nodes = ref [] (* (name, weight), reversed *) in
  let edges = ref [] (* (src name, dst name, cost, lineno, link), reversed *) in
  (* the line's first words: word k is text.[starts.(k) .. stops.(k) - 1] *)
  let starts = Array.make 4 0 and stops = Array.make 4 0 in
  let word k = String.sub text starts.(k) (stops.(k) - starts.(k)) in
  let word_is k lit =
    let l = String.length lit in
    let rec same i = i = l || (text.[starts.(k) + i] = lit.[i] && same (i + 1)) in
    stops.(k) - starts.(k) = l && same 0
  in
  (* word k must read [key=<value>]: parse the value in place *)
  let attr lineno k key parse =
    let s = starts.(k) and l = stops.(k) - starts.(k) in
    if l > 2 && text.[s] = key && text.[s + 1] = '=' then
      try parse text (s + 2) (l - 2) with Invalid_argument m -> fail lineno m
    else fail lineno (Printf.sprintf "expected %c=<value>, got %S" key (word k))
  in
  let pos = ref 0 and lines = ref 0 in
  while !pos <= len do
    incr lines;
    let lineno = !lines in
    (* the line ends at eol, its words at the first '#' (stop) *)
    let eol = ref !pos and stop = ref (-1) in
    while !eol < len && text.[!eol] <> '\n' do
      if text.[!eol] = '#' && !stop < 0 then stop := !eol;
      incr eol
    done;
    let stop = if !stop < 0 then !eol else !stop in
    let nwords = ref 0 and i = ref !pos in
    while !i < stop do
      if is_space text.[!i] then incr i
      else begin
        let j = ref !i in
        while !j < stop && not (is_space text.[!j]) do incr j done;
        if !nwords < 4 then begin
          starts.(!nwords) <- !i;
          stops.(!nwords) <- !j
        end;
        incr nwords;
        i := !j
      end
    done;
    (match !nwords with
    | 0 -> ()
    | 3 when word_is 0 "node" ->
      let w = attr lineno 2 'w' E.of_substring in
      nodes := (word 1, w) :: !nodes
    | 4 when word_is 0 "edge" || word_is 0 "link" ->
      let c = attr lineno 3 'c' R.of_substring in
      edges := (word 1, word 2, c, lineno, word_is 0 "link") :: !edges
    | _ -> fail lineno (Printf.sprintf "unknown declaration %S" (word 0)));
    pos := !eol + 1
  done;
  let nodes = List.rev !nodes in
  let names = Array.of_list (List.map fst nodes) in
  let weights = Array.of_list (List.map snd nodes) in
  let index = Hashtbl.create (2 * Array.length names) in
  Array.iteri (fun i n -> Hashtbl.replace index n i) names;
  let resolve lineno n =
    match Hashtbl.find_opt index n with
    | Some i -> i
    | None -> fail lineno (Printf.sprintf "undeclared node %S" n)
  in
  (* last line first, destination before source: the first undeclared
     name reported is always the same one.  A link is both directions. *)
  let edge_list =
    List.fold_left
      (fun acc (a, b, c, lineno, link) ->
        let j = resolve lineno b in
        let i = resolve lineno a in
        (i, j, c) :: (if link then (j, i, c) :: acc else acc))
      [] !edges
  in
  try Platform.create ~names ~weights ~edges:edge_list
  with Invalid_argument m -> invalid_arg ("Platform_parse: " ^ m)

let of_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let content = really_input_string ic len in
  close_in ic;
  of_string content

let to_string p =
  let buf = Buffer.create 256 in
  List.iter
    (fun i ->
      Buffer.add_string buf
        (Printf.sprintf "node %s w=%s\n" (Platform.name p i)
           (E.to_string (Platform.weight p i))))
    (Platform.nodes p);
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "edge %s %s c=%s\n"
           (Platform.name p (Platform.edge_src p e))
           (Platform.name p (Platform.edge_dst p e))
           (R.to_string (Platform.edge_cost p e))))
    (Platform.edges p);
  Buffer.contents buf
