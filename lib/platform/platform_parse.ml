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

(* the end of the word that starts at [s] *)
let word_end text s =
  let e = ref s in
  while !e < String.length text && kind_at text !e = '\000' do incr e done;
  !e

(* the start of the word after the one that ends at [e] *)
let next_word text e =
  let s = ref e in
  while kind_at text !s = '\001' do incr s done;
  !s

(* the line number of offset [s]: one plus the newlines before it *)
let line_of text s =
  let n = ref 1 in
  for i = 0 to s - 1 do
    if String.unsafe_get text i = '\n' then incr n
  done;
  !n

(* the node named by the word at [s] to [e], looked up where it
   stands *)
let endpoint find text s e =
  let i = find text s e in
  if i < 0 then raise (Undeclared (line_of text s, String.sub text s (e - s)));
  i

(* A sequence that grows by chunks, each as long as the sequence
   before it (8 at first), newest chunk first: growing copies nothing,
   and the chunks hold less than twice the entries, plus 8. *)
type 'a chunks = {
  fill : 'a;
  mutable full : 'a array list; (* newest first *)
  mutable cur : 'a array;
  mutable used : int; (* entries in [cur] *)
  mutable count : int;
}

let chunks fill = { fill; full = []; cur = [||]; used = 0; count = 0 }

let push c x =
  if c.used = Array.length c.cur then begin
    if c.count > 0 then c.full <- c.cur :: c.full;
    c.cur <- Array.make (max 8 c.count) c.fill;
    c.used <- 0
  end;
  c.cur.(c.used) <- x;
  c.used <- c.used + 1;
  c.count <- c.count + 1

let to_array c =
  let a = Array.make c.count c.fill in
  let stop = ref (c.count - c.used) in
  Array.blit c.cur 0 a !stop c.used;
  List.iter
    (fun ch ->
      stop := !stop - Array.length ch;
      Array.blit ch 0 a !stop (Array.length ch))
    c.full;
  a

(* [f x y] on the entries of two sequences pushed in step, last
   first *)
let iter2_rev f a b =
  let chunk ca cb used =
    for k = used - 1 downto 0 do
      f ca.(k) cb.(k)
    done
  in
  chunk a.cur b.cur a.used;
  List.iter2 (fun ca cb -> chunk ca cb (Array.length ca)) a.full b.full

(* One pass over the text by index, each byte read once: a line's words
   are kept as offsets up to its first '#', so only node names are
   copied out and numbers are read in place.  An edge line keeps one
   int, where its source starts in the text and whether it is a link;
   the rest of its names and its line number are found again from the
   text when needed.  Once every node is declared, each endpoint is
   resolved against the platform's own name table by hashing and
   comparing its slice where it stands.  The declarations go to
   [chunks], so what is allocated follows the declarations read, not
   the byte count, and growing copies nothing. *)
let of_string text =
  let len = String.length text in
  let names = chunks "" and weights = chunks E.inf in
  (* per edge line: the source's offset, doubled, plus one for a link *)
  let eline = chunks 0 and ecost = chunks R.zero in
  let nedges = ref 0 in
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
      push names (word 1);
      push weights w
    | 4 when is 0 "edge" || is 0 "link" ->
      let c = attr lineno 3 'c' R.of_substring in
      let link = is 0 "link" in
      push eline ((2 * starts.(1)) + Bool.to_int link);
      push ecost c;
      nedges := !nedges + 1 + Bool.to_int link
    | _ -> fail lineno (Printf.sprintf "unknown declaration %S" (word 0)));
    pos := !i + 1
  done;
  (* last line first, destination before source: the first undeclared
     name reported is always the same one.  A link is both directions. *)
  let resolve find =
    let m = !nedges in
    let srcs = Array.make m 0 and dsts = Array.make m 0 in
    let costs = Array.make m R.zero in
    let e = ref m in
    iter2_rev
      (fun line c ->
        let a = line / 2 in
        let a' = word_end text a in
        let b = next_word text a' in
        let j = endpoint find text b (word_end text b) in
        let i = endpoint find text a a' in
        if line land 1 = 1 then begin
          decr e;
          srcs.(!e) <- j;
          dsts.(!e) <- i;
          costs.(!e) <- c
        end;
        decr e;
        srcs.(!e) <- i;
        dsts.(!e) <- j;
        costs.(!e) <- c)
      eline ecost;
    (srcs, dsts, costs)
  in
  match
    Platform.build ~names:(to_array names) ~weights:(to_array weights)
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
