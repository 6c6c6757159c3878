module R = Rat
module E = Ext_rat

let fail lineno msg =
  invalid_arg (Printf.sprintf "Platform_parse: line %d: %s" lineno msg)

exception Undeclared of int * string

(* per byte: '\000' inside a word, '\001' between words (space, tab,
   carriage return), '\002' where the line's words end ('\n', '#') *)
let kind =
  String.init 256 (fun c ->
      match Char.chr c with
      | ' ' | '\t' | '\r' -> '\001'
      | '\n' | '#' -> '\002'
      | _ -> '\000')

let kind_at text i = String.unsafe_get kind (Char.code (String.unsafe_get text i))

(* text.[s .. e - 1] spells [lit] *)
let slice_is text s e lit =
  let l = String.length lit in
  e - s = l
  &&
  let i = ref 0 in
  while !i < l && String.unsafe_get text (s + !i) = String.unsafe_get lit !i do
    incr i
  done;
  !i = l

(* the node named by the endpoint at offsets eline.(k), eline.(k + 1)
   of the edge line at [b], looked up where it stands *)
let endpoint find text eline b k =
  let s = eline.(k) and e = eline.(k + 1) in
  let i = find text s e in
  if i < 0 then raise (Undeclared (eline.(b + 4), String.sub text s (e - s)));
  i

(* One pass over the text by index, each byte read once: a line's words
   are kept as offsets up to its first '#', so only node names are
   copied out and numbers are read in place.  Edge lines go to flat
   arrays, their endpoints as offsets into the text.  Once every node
   is declared, each endpoint is resolved against the platform's own
   name table by hashing and comparing its slice where it stands.  All
   arrays start empty and double, so what is allocated follows the
   declarations read, not the byte count. *)
let of_string text =
  let len = String.length text in
  (* room for [k] more entries at [n] in [!a], doubling when full *)
  let room a n k fill =
    if n + k > Array.length !a then begin
      let b = Array.make (2 * (n + k)) fill in
      Array.blit !a 0 b 0 n;
      a := b
    end
  in
  let names = ref [||] and weights = ref [||] in
  let nnodes = ref 0 in
  (* per edge line: source and destination offsets, line number, link *)
  let stride = 6 in
  let eline = ref [||] and ecost = ref [||] in
  let nlines = ref 0 and nedges = ref 0 in
  (* the line's first words: word k is text.[starts.(k) .. stops.(k) - 1] *)
  let starts = Array.make 4 0 and stops = Array.make 4 0 in
  let word k = String.sub text starts.(k) (stops.(k) - starts.(k)) in
  let is k lit = slice_is text starts.(k) stops.(k) lit in
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
    (* the words, up to the line's end or its first '#' *)
    let nwords = ref 0 and i = ref !pos in
    while !i < len && kind_at text !i <> '\002' do
      if kind_at text !i = '\001' then incr i
      else begin
        let j = ref (!i + 1) in
        while !j < len && kind_at text !j = '\000' do incr j done;
        if !nwords < 4 then begin
          starts.(!nwords) <- !i;
          stops.(!nwords) <- !j
        end;
        incr nwords;
        i := !j
      end
    done;
    (* the comment, if any *)
    while !i < len && String.unsafe_get text !i <> '\n' do incr i done;
    (match !nwords with
    | 0 -> ()
    | 3 when is 0 "node" ->
      let w = attr lineno 2 'w' E.of_substring in
      room names !nnodes 1 "";
      room weights !nnodes 1 E.inf;
      !names.(!nnodes) <- word 1;
      !weights.(!nnodes) <- w;
      incr nnodes
    | 4 when is 0 "edge" || is 0 "link" ->
      let c = attr lineno 3 'c' R.of_substring in
      let link = is 0 "link" in
      let b = stride * !nlines in
      room eline b stride 0;
      room ecost !nlines 1 R.zero;
      let eline = !eline in
      eline.(b) <- starts.(1);
      eline.(b + 1) <- stops.(1);
      eline.(b + 2) <- starts.(2);
      eline.(b + 3) <- stops.(2);
      eline.(b + 4) <- lineno;
      eline.(b + 5) <- Bool.to_int link;
      !ecost.(!nlines) <- c;
      incr nlines;
      nedges := !nedges + 1 + Bool.to_int link
    | _ -> fail lineno (Printf.sprintf "unknown declaration %S" (word 0)));
    pos := !i + 1
  done;
  (* last line first, destination before source: the first undeclared
     name reported is always the same one.  A link is both directions. *)
  let eline = !eline and ecost = !ecost in
  let resolve find =
    let m = !nedges in
    let srcs = Array.make m 0 and dsts = Array.make m 0 in
    let costs = Array.make m R.zero in
    let e = ref m in
    for l = !nlines - 1 downto 0 do
      let b = stride * l in
      let j = endpoint find text eline b (b + 2) in
      let i = endpoint find text eline b b in
      let c = ecost.(l) in
      if eline.(b + 5) = 1 then begin
        decr e;
        srcs.(!e) <- j;
        dsts.(!e) <- i;
        costs.(!e) <- c
      end;
      decr e;
      srcs.(!e) <- i;
      dsts.(!e) <- j;
      costs.(!e) <- c
    done;
    (srcs, dsts, costs)
  in
  match
    Platform.build
      ~names:(Array.sub !names 0 !nnodes)
      ~weights:(Array.sub !weights 0 !nnodes)
      ~edges:resolve
  with
  | p -> p
  | exception Undeclared (lineno, n) ->
    fail lineno (Printf.sprintf "undeclared node %S" n)
  | exception Invalid_argument m -> invalid_arg ("Platform_parse: " ^ m)

let of_file path =
  (match (Unix.stat path).Unix.st_kind with
  | Unix.S_REG -> ()
  | _ -> raise (Sys_error (path ^ ": not a regular file"))
  | exception Unix.Unix_error (e, _, _) ->
    raise (Sys_error (path ^ ": " ^ Unix.error_message e)));
  let ic = open_in_bin path in
  of_string
    (Fun.protect
       ~finally:(fun () -> close_in_noerr ic)
       (fun () -> really_input_string ic (in_channel_length ic)))

let to_string p =
  let n = Platform.num_nodes p and m = Platform.num_edges p in
  let buf = Buffer.create (16 * (n + m + 1)) in
  let add = Buffer.add_string buf in
  for i = 0 to n - 1 do
    add "node ";
    add (Platform.name p i);
    add " w=";
    add (E.to_string (Platform.weight p i));
    Buffer.add_char buf '\n'
  done;
  for e = 0 to m - 1 do
    add "edge ";
    add (Platform.name p (Platform.edge_src p e));
    Buffer.add_char buf ' ';
    add (Platform.name p (Platform.edge_dst p e));
    add " c=";
    add (R.to_string (Platform.edge_cost p e));
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf
