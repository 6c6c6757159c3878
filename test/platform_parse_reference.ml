(* Reference oracle for Platform_parse.of_string: the list-based parser
   the one-pass scanner replaced (split into lines, cut comments, split
   into words), with three fixes that the scanner shares: carriage
   returns count as whitespace, a malformed [key=<value>] word is
   reported with one line prefix, not two, and a link is its forward
   edge, then its reverse (the list-based parser put the reverse
   first, which only an accepted one-way link or an error on a link's
   edge shows).  The tests
   require both to accept the same texts with [Platform.equal] results
   and to reject the others with the same message. *)

module R = Rat
module E = Ext_rat

let fail lineno msg =
  invalid_arg (Printf.sprintf "Platform_parse: line %d: %s" lineno msg)

let split_ws s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.concat_map (String.split_on_char '\r')
  |> List.filter (fun w -> w <> "")

let parse_attr lineno key tok =
  let prefix = key ^ "=" in
  let pl = String.length prefix in
  if String.length tok > pl && String.sub tok 0 pl = prefix then
    String.sub tok pl (String.length tok - pl)
  else fail lineno (Printf.sprintf "expected %s=<value>, got %S" key tok)

let of_string text =
  let nodes = ref [] (* (name, weight), reversed *) in
  let edges = ref [] (* (src name, dst name, cost, lineno, link), reversed *) in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let line =
        match String.index_opt line '#' with
        | Some k -> String.sub line 0 k
        | None -> line
      in
      match split_ws line with
      | [] -> ()
      | [ "node"; name; attr ] ->
        let w =
          let v = parse_attr lineno "w" attr in
          try E.of_string v with Invalid_argument m -> fail lineno m
        in
        nodes := (name, w) :: !nodes
      | [ "edge"; a; b; attr ] ->
        let c =
          let v = parse_attr lineno "c" attr in
          try R.of_string v with Invalid_argument m -> fail lineno m
        in
        edges := (a, b, c, lineno, false) :: !edges
      | [ "link"; a; b; attr ] ->
        let c =
          let v = parse_attr lineno "c" attr in
          try R.of_string v with Invalid_argument m -> fail lineno m
        in
        edges := (a, b, c, lineno, true) :: !edges
      | w :: _ -> fail lineno (Printf.sprintf "unknown declaration %S" w))
    lines;
  let nodes = List.rev !nodes in
  let names = Array.of_list (List.map fst nodes) in
  let weights = Array.of_list (List.map snd nodes) in
  let index = Hashtbl.create 32 in
  Array.iteri (fun i n -> Hashtbl.replace index n i) names;
  let resolve lineno n =
    match Hashtbl.find_opt index n with
    | Some i -> i
    | None -> fail lineno (Printf.sprintf "undeclared node %S" n)
  in
  (* last line first, destination before source *)
  let edge_list =
    List.fold_left
      (fun acc (a, b, c, lineno, link) ->
        let j = resolve lineno b in
        let i = resolve lineno a in
        if link then (i, j, c) :: (j, i, c) :: acc else (i, j, c) :: acc)
      [] !edges
  in
  try Platform.create ~names ~weights ~edges:edge_list
  with Invalid_argument m -> invalid_arg ("Platform_parse: " ^ m)
