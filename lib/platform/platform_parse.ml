module R = Rat
module E = Ext_rat

let fail lineno msg =
  invalid_arg (Printf.sprintf "Platform_parse: line %d: %s" lineno msg)

(* per byte: '\000' inside a word, '\001' between words (space, tab,
   carriage return), '\002' where the line's words end ('\n', '#') *)
let kind =
  String.init 256 (fun c ->
      match Char.chr c with
      | ' ' | '\t' | '\r' -> '\001'
      | '\n' | '#' -> '\002'
      | _ -> '\000')

let kind_at text i = String.unsafe_get kind (Char.code (String.unsafe_get text i))

(* The end of the word whose bytes run on from [j]: the first byte from
   [j] of kind other than '\000'.  Every such byte is below '$', so
   eight bytes are read at a time and the first one below '$' is found
   in the load, its bytes less '$' at once (the lowest byte that
   borrows is exact); a byte below '$' inside a word, such as '!',
   resumes the search after it. *)
let rec word_stop text len j =
  if j + 8 > len then begin
    let j = ref j in
    while !j < len && kind_at text !j = '\000' do incr j done;
    !j
  end
  else
    let v = String.get_int64_le text j in
    let below =
      Int64.(logand (logand (sub v 0x2424242424242424L) (lognot v)) 0x8080808080808080L)
    in
    if Int64.equal below 0L then word_stop text len (j + 8)
    else
      (* the lowest flagged bit is bit 8k + 7; moving 1 lsl 8k to the
         top byte of 0x0706050403020100 leaves 7 - k there *)
      let low = Int64.(shift_right_logical (logand below (neg below)) 7) in
      let j =
        j + 7 - Int64.(to_int (shift_right_logical (mul low 0x0706050403020100L) 56))
      in
      if kind_at text j = '\000' then word_stop text len (j + 1) else j

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

(* One pass over the text by index, each byte read once: a line's words
   are kept as offsets up to its first '#', so only node names are
   copied out and numbers are read in place.  Nodes and edges go to one
   [Platform.builder]: an edge line resolves its endpoints at once in
   the platform's name table, keying their slices where they stand.  A
   line that names a node declared later keeps its edges with
   placeholder ends and is resolved after the scan against the whole
   table, last line first, destination before source, so the
   undeclared name reported is the one a pass over every line in that
   order would meet first: a line resolved at its own line resolves the
   same against the whole table, which keeps each name's first node. *)
let of_string text =
  let len = String.length text in
  let b = Platform.builder () in
  (* per line naming a node not yet declared, last line first: its
     number, its first edge, whether it is a link, and where its source
     and destination stand *)
  let deferred = ref [] in
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
        let j = word_stop text len (!i + 1) in
        if !nwords < 4 then begin
          starts.(!nwords) <- !i;
          stops.(!nwords) <- j
        end;
        incr nwords;
        i := j
      end
    done;
    (* the comment, if any *)
    while !i < len && String.unsafe_get text !i <> '\n' do incr i done;
    (match !nwords with
    | 0 -> ()
    | 3 when is 0 "node" ->
      let w = attr lineno 2 'w' E.of_substring in
      Platform.add_node b (word 1) w
    | 4 when is 0 "edge" || is 0 "link" ->
      let c = attr lineno 3 'c' R.of_substring in
      let link = is 0 "link" in
      let a = starts.(1) and a' = stops.(1) in
      let d = starts.(2) and d' = stops.(2) in
      let src = Platform.find b text a a' and dst = Platform.find b text d d' in
      (* a link is both directions, forward first *)
      let k = Platform.add_edge b src dst c in
      if link then ignore (Platform.add_edge b dst src c);
      if src < 0 || dst < 0 then
        deferred := (lineno, k, link, a, a', d, d') :: !deferred
    | _ -> fail lineno (Printf.sprintf "unknown declaration %S" (word 0)));
    pos := !i + 1
  done;
  let endpoint lineno s e =
    let v = Platform.find b text s e in
    if v < 0 then
      fail lineno (Printf.sprintf "undeclared node %S" (String.sub text s (e - s)));
    v
  in
  List.iter
    (fun (lineno, k, link, a, a', d, d') ->
      let dst = endpoint lineno d d' in
      let src = endpoint lineno a a' in
      Platform.set_ends b k src dst;
      if link then Platform.set_ends b (k + 1) dst src)
    !deferred;
  match Platform.finish b with
  | p -> p
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
