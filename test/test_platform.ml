(* Tests for the platform graph, generators, parser and DOT export. *)

module R = Rat
module E = Ext_rat
module P = Platform

let r = R.of_ints
let ri = R.of_int

let simple () =
  P.create
    ~names:[| "A"; "B"; "C" |]
    ~weights:[| E.of_int 2; E.inf; E.of_ints 1 2 |]
    ~edges:[ (0, 1, ri 1); (1, 2, r 3 2); (2, 0, ri 4) ]

let test_basic_accessors () =
  let p = simple () in
  Alcotest.(check int) "nodes" 3 (P.num_nodes p);
  Alcotest.(check int) "edges" 3 (P.num_edges p);
  Alcotest.(check string) "name" "B" (P.name p 1);
  Alcotest.(check int) "find_node" 2 (P.find_node p "C");
  Alcotest.(check bool) "weight inf" true (E.is_inf (P.weight p 1));
  Alcotest.(check string) "speed of 2 is 1/2" "1/2" (R.to_string (P.speed p 0));
  Alcotest.(check string) "speed of inf is 0" "0" (R.to_string (P.speed p 1));
  Alcotest.(check string) "speed of 1/2 is 2" "2" (R.to_string (P.speed p 2));
  Alcotest.(check bool) "unknown node" true
    (try ignore (P.find_node p "Z"); false with Not_found -> true)

let test_edges () =
  let p = simple () in
  Alcotest.(check int) "src" 1 (P.edge_src p 1);
  Alcotest.(check int) "dst" 2 (P.edge_dst p 1);
  Alcotest.(check string) "cost" "3/2" (R.to_string (P.edge_cost p 1));
  Alcotest.(check string) "edge_name" "B->C" (P.edge_name p 1);
  Alcotest.(check (list int)) "out_edges" [ 1 ] (P.out_edges p 1);
  Alcotest.(check (list int)) "in_edges" [ 0 ] (P.in_edges p 1);
  (match P.find_edge p 0 1 with
  | Some e -> Alcotest.(check int) "find_edge" 0 e
  | None -> Alcotest.fail "edge 0->1 missing");
  Alcotest.(check bool) "absent edge" true (P.find_edge p 0 2 = None)

let test_validation () =
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "dup names" true
    (bad (fun () ->
         P.create ~names:[| "A"; "A" |]
           ~weights:[| E.of_int 1; E.of_int 1 |]
           ~edges:[]));
  Alcotest.(check bool) "zero weight" true
    (bad (fun () ->
         P.create ~names:[| "A" |] ~weights:[| E.zero |] ~edges:[]));
  Alcotest.(check bool) "negative cost" true
    (bad (fun () ->
         P.create ~names:[| "A"; "B" |]
           ~weights:[| E.of_int 1; E.of_int 1 |]
           ~edges:[ (0, 1, ri (-1)) ]));
  Alcotest.(check bool) "self loop" true
    (bad (fun () ->
         P.create ~names:[| "A" |] ~weights:[| E.of_int 1 |]
           ~edges:[ (0, 0, ri 1) ]));
  Alcotest.(check bool) "duplicate edge" true
    (bad (fun () ->
         P.create ~names:[| "A"; "B" |]
           ~weights:[| E.of_int 1; E.of_int 1 |]
           ~edges:[ (0, 1, ri 1); (0, 1, ri 2) ]));
  Alcotest.(check bool) "range" true
    (bad (fun () ->
         P.create ~names:[| "A" |] ~weights:[| E.of_int 1 |]
           ~edges:[ (0, 3, ri 1) ]))

(* [create] reports the first failing edge in list order; within one
   edge the checks run range, self-loop, cost, duplicate.  A duplicate
   fails at its later occurrence, so the pair reported is the one whose
   repeat comes first. *)
let test_create_error_precedence () =
  let names = [| "A"; "B"; "C" |] in
  let weights = [| E.of_int 1; E.of_int 1; E.of_int 1 |] in
  let first_error edges =
    match P.create ~names ~weights ~edges with
    | _ -> "accepted"
    | exception Invalid_argument m -> m
  in
  let expect what msg edges =
    Alcotest.(check string) what ("Platform.create: " ^ msg) (first_error edges)
  in
  expect "duplicate ahead of a later bad cost" "duplicate edge A->B"
    [ (0, 1, ri 1); (0, 1, ri 2); (1, 2, ri 0) ];
  expect "bad cost ahead of a later duplicate" "edge B->C has cost <= 0"
    [ (0, 1, ri 1); (1, 2, ri (-1)); (0, 1, ri 2) ];
  expect "self-loop ahead of a later duplicate" "self-loop"
    [ (0, 1, ri 1); (2, 2, ri 1); (0, 1, ri 1) ];
  expect "duplicate ahead of a later range error" "duplicate edge B->C"
    [ (1, 2, ri 1); (1, 2, ri 1); (0, 5, ri 1) ];
  expect "range before self-loop" "edge endpoint out of range"
    [ (0, 1, ri 1); (3, 3, ri 0) ];
  expect "negative endpoint" "edge endpoint out of range"
    [ (-1, 0, ri 1) ];
  expect "self-loop before cost" "self-loop" [ (1, 1, ri 0) ];
  expect "cost before duplicate" "edge A->B has cost <= 0"
    [ (0, 1, ri 1); (0, 1, ri 0) ];
  expect "the pair that repeats first" "duplicate edge B->C"
    [ (0, 1, ri 1); (1, 2, ri 1); (1, 2, ri 2); (0, 1, ri 1) ];
  expect "the pair that repeats first, other source" "duplicate edge A->B"
    [ (1, 2, ri 1); (0, 1, ri 1); (0, 1, ri 2); (1, 2, ri 1) ];
  Alcotest.(check string) "reversed pairs are distinct edges" "accepted"
    (first_error [ (0, 1, ri 1); (1, 0, ri 1); (1, 2, ri 1); (2, 1, ri 1) ]);
  (* a link is its forward edge, then its reverse: here the reverse
     repeats the first line's edge *)
  Alcotest.(check string) "link repeating an edge"
    "Platform_parse: Platform.create: duplicate edge A->B"
    (match
       Platform_parse.of_string
         "node A w=1\nnode B w=1\nedge A B c=1\nlink B A c=2\n"
     with
    | _ -> "accepted"
    | exception Invalid_argument m -> m);
  (* names and weights are checked before any edge *)
  Alcotest.(check string) "duplicate name before edges"
    "Platform.create: duplicate name \"A\""
    (match
       P.create ~names:[| "A"; "A" |] ~weights:[| E.of_int 0; E.of_int 1 |]
         ~edges:[ (0, 0, ri 0) ]
     with
    | _ -> "accepted"
    | exception Invalid_argument m -> m);
  Alcotest.(check string) "weight before edges"
    "Platform.create: node B has weight <= 0"
    (match
       P.create ~names:[| "A"; "B" |] ~weights:[| E.of_int 1; E.of_int 0 |]
         ~edges:[ (0, 0, ri 0) ]
     with
    | _ -> "accepted"
    | exception Invalid_argument m -> m)

let test_reachability () =
  let p = simple () in
  Alcotest.(check bool) "spanning" true (P.is_spanning_from p 0);
  Alcotest.(check int) "depth" 2 (P.depth_from p 0);
  let chain_only =
    P.create ~names:[| "A"; "B"; "C" |]
      ~weights:[| E.of_int 1; E.of_int 1; E.of_int 1 |]
      ~edges:[ (0, 1, ri 1) ]
  in
  let reach = P.reachable_from chain_only 0 in
  Alcotest.(check bool) "reach A" true reach.(0);
  Alcotest.(check bool) "reach B" true reach.(1);
  Alcotest.(check bool) "not reach C" false reach.(2);
  Alcotest.(check bool) "not spanning" false (P.is_spanning_from chain_only 0)

let test_shortest_path () =
  let p =
    P.create ~names:[| "A"; "B"; "C" |]
      ~weights:[| E.inf; E.inf; E.inf |]
      ~edges:[ (0, 2, ri 10); (0, 1, ri 1); (1, 2, ri 2) ]
  in
  (match P.shortest_path p 0 2 with
  | Some [ e1; e2 ] ->
    Alcotest.(check string) "via B" "A->B" (P.edge_name p e1);
    Alcotest.(check string) "then C" "B->C" (P.edge_name p e2)
  | Some _ | None -> Alcotest.fail "expected the relayed route");
  Alcotest.(check bool) "self path empty" true (P.shortest_path p 0 0 = Some []);
  Alcotest.(check bool) "unreachable" true (P.shortest_path p 2 0 = None);
  (match P.multi_source_shortest_path p ~sources:[ 1; 0 ] 2 with
  | Some [ e ] -> Alcotest.(check string) "from closest source" "B->C" (P.edge_name p e)
  | Some _ | None -> Alcotest.fail "expected one hop from B")

let test_transpose () =
  let p = simple () in
  let q = P.transpose p in
  Alcotest.(check int) "same edges" (P.num_edges p) (P.num_edges q);
  Alcotest.(check int) "reversed src" (P.edge_dst p 0) (P.edge_src q 0);
  Alcotest.(check int) "reversed dst" (P.edge_src p 0) (P.edge_dst q 0);
  Alcotest.(check bool) "involution" true (P.equal p (P.transpose q))

let test_restrict () =
  let p = simple () in
  let sub, mapping = P.restrict_nodes p ~keep:(fun i -> i <> 1) in
  Alcotest.(check int) "2 nodes kept" 2 (P.num_nodes sub);
  Alcotest.(check int) "1 edge kept (C->A)" 1 (P.num_edges sub);
  Alcotest.(check string) "names kept" "C" (P.name sub 1);
  Alcotest.(check (array int)) "mapping" [| 0; 2 |] mapping

let test_figure1 () =
  let p = Platform_gen.figure1 () in
  Alcotest.(check int) "6 nodes" 6 (P.num_nodes p);
  Alcotest.(check int) "14 oriented edges" 14 (P.num_edges p);
  Alcotest.(check bool) "spanning from master" true (P.is_spanning_from p 0);
  (* full duplex: edge i->j implies j->i with equal cost *)
  List.iter
    (fun e ->
      match P.find_edge p (P.edge_dst p e) (P.edge_src p e) with
      | Some e' ->
        Alcotest.(check bool) "mirror cost" true
          (R.equal (P.edge_cost p e) (P.edge_cost p e'))
      | None -> Alcotest.fail "missing mirror edge")
    (P.edges p)

let test_multicast_fig2 () =
  let p, src, targets = Platform_gen.multicast_fig2 () in
  Alcotest.(check int) "7 nodes" 7 (P.num_nodes p);
  Alcotest.(check int) "9 edges" 9 (P.num_edges p);
  Alcotest.(check string) "source" "P0" (P.name p src);
  Alcotest.(check (list string)) "targets" [ "P5"; "P6" ]
    (List.map (P.name p) targets);
  (* the one expensive edge *)
  (match P.find_edge p 3 4 with
  | Some e -> Alcotest.(check string) "c(P3->P4)=2" "2" (R.to_string (P.edge_cost p e))
  | None -> Alcotest.fail "edge P3->P4 missing");
  (* every other edge has cost 1 *)
  let n_unit =
    List.length
      (List.filter (fun e -> R.equal (P.edge_cost p e) R.one) (P.edges p))
  in
  Alcotest.(check int) "8 unit edges" 8 n_unit;
  Alcotest.(check bool) "targets reachable" true (P.is_spanning_from p src)

let test_star_chain () =
  let p =
    Platform_gen.star ~master_weight:E.inf
      ~slaves:[ (E.of_int 1, ri 1); (E.of_int 2, ri 2); (E.of_int 3, ri 1) ]
      ()
  in
  Alcotest.(check int) "4 nodes" 4 (P.num_nodes p);
  Alcotest.(check int) "6 edges" 6 (P.num_edges p);
  Alcotest.(check int) "star depth" 1 (P.depth_from p 0);
  let c = Platform_gen.chain ~weights:[ E.of_int 1; E.of_int 2; E.of_int 1 ] ~cost:R.one () in
  Alcotest.(check int) "chain depth" 2 (P.depth_from c 0)

let test_generators_valid () =
  (* generators produce valid spanning platforms for a range of sizes *)
  List.iter
    (fun n ->
      let t = Platform_gen.random_tree ~seed:7 ~nodes:n () in
      Alcotest.(check bool) "tree spanning" true (P.is_spanning_from t 0);
      Alcotest.(check int) "tree edges" (2 * (n - 1)) (P.num_edges t);
      let g = Platform_gen.random_graph ~seed:11 ~nodes:n ~extra_edges:n () in
      Alcotest.(check bool) "graph spanning" true (P.is_spanning_from g 0))
    [ 2; 5; 12; 30 ];
  let cl = Platform_gen.clusters ~seed:3 ~clusters:3 ~per_cluster:4 () in
  Alcotest.(check int) "cluster nodes" 15 (P.num_nodes cl);
  Alcotest.(check bool) "cluster spanning" true (P.is_spanning_from cl 0);
  let cl2 = Platform_gen.clusters ~seed:3 ~clusters:2 ~per_cluster:2 () in
  Alcotest.(check bool) "2-cluster spanning" true (P.is_spanning_from cl2 0)

let test_generator_determinism () =
  let a = Platform_gen.random_graph ~seed:5 ~nodes:10 ~extra_edges:5 () in
  let b = Platform_gen.random_graph ~seed:5 ~nodes:10 ~extra_edges:5 () in
  Alcotest.(check bool) "same seed, same platform" true (P.equal a b);
  let c = Platform_gen.random_graph ~seed:6 ~nodes:10 ~extra_edges:5 () in
  Alcotest.(check bool) "different seed differs" false (P.equal a c)

let test_parse_roundtrip () =
  let p = simple () in
  let q = Platform_parse.of_string (Platform_parse.to_string p) in
  Alcotest.(check bool) "roundtrip" true (P.equal p q);
  let f1 = Platform_gen.figure1 () in
  Alcotest.(check bool) "figure1 roundtrip" true
    (P.equal f1 (Platform_parse.of_string (Platform_parse.to_string f1)))

let test_parse_format () =
  let p =
    Platform_parse.of_string
      "# a comment\n\
       node A w=2\n\
       node B w=inf\n\
       node C w=1/3\n\
       \n\
       edge A B c=3/2  # trailing comment\n\
       link B C c=0.5\n"
  in
  Alcotest.(check int) "nodes" 3 (P.num_nodes p);
  Alcotest.(check int) "edges (1 + 2 from link)" 3 (P.num_edges p);
  Alcotest.(check string) "decimal cost" "1/2"
    (R.to_string (P.edge_cost p 1))

let test_parse_errors () =
  let bad s =
    try ignore (Platform_parse.of_string s); false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "unknown decl" true (bad "frob A w=1");
  Alcotest.(check bool) "undeclared node" true (bad "node A w=1\nedge A B c=1");
  Alcotest.(check bool) "bad attr" true (bad "node A weight=1");
  Alcotest.(check bool) "inf cost rejected" true
    (bad "node A w=1\nnode B w=1\nedge A B c=inf")

let test_dot () =
  let p = simple () in
  let dot = Dot.of_platform p in
  Alcotest.(check bool) "digraph" true
    (String.length dot > 10 && String.sub dot 0 7 = "digraph");
  let has_sub needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "edge line" true (has_sub "A -> B" dot);
  Alcotest.(check bool) "weight label" true (has_sub "w=inf" dot);
  let dot2 =
    Dot.of_platform ~edge_labels:(fun e -> if e = 0 then Some "flow=1/2" else None) p
  in
  Alcotest.(check bool) "custom label" true (has_sub "flow=1/2" dot2)

(* property: random platforms always round-trip through the parser *)
let prop_parse_roundtrip =
  QCheck.Test.make ~name:"parser roundtrip on random platforms" ~count:50
    (QCheck.pair (QCheck.int_range 2 20) (QCheck.int_range 0 15))
    (fun (n, extra) ->
      let p = Platform_gen.random_graph ~seed:(n * 31 + extra) ~nodes:n ~extra_edges:extra () in
      P.equal p (Platform_parse.of_string (Platform_parse.to_string p)))

(* [to_string] writes the text the per-line [Printf.sprintf] printer
   wrote, byte for byte: infinite weights, fractions and large numbers
   included *)
let sprintf_text p =
  let buf = Buffer.create 256 in
  List.iter
    (fun i ->
      Buffer.add_string buf
        (Printf.sprintf "node %s w=%s\n" (P.name p i) (E.to_string (P.weight p i))))
    (P.nodes p);
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "edge %s %s c=%s\n"
           (P.name p (P.edge_src p e))
           (P.name p (P.edge_dst p e))
           (R.to_string (P.edge_cost p e))))
    (P.edges p);
  Buffer.contents buf

let prop_to_string_as_sprintf =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 12 in
      let num = oneof [ int_range 1 50; int_range 1 max_int ] in
      let frac = map2 (fun a b -> R.of_ints a b) num (int_range 1 9) in
      let* weights =
        list_repeat n (oneof [ return E.inf; map (fun r -> E.Fin r) frac ])
      in
      let* pairs = list_size (int_range 0 (n * 2)) (pair (int_bound (n - 1)) (int_bound (n - 1))) in
      let pairs =
        List.sort_uniq compare (List.filter (fun (i, j) -> i <> j) pairs)
      in
      let* costs = list_repeat (List.length pairs) frac in
      return
        (P.create
           ~names:(Array.init n (Printf.sprintf "N%d"))
           ~weights:(Array.of_list weights)
           ~edges:(List.map2 (fun (i, j) c -> (i, j, c)) pairs costs)))
  in
  QCheck.Test.make ~name:"to_string = the sprintf text" ~count:200
    (QCheck.make ~print:sprintf_text gen)
    (fun p ->
      let text = Platform_parse.to_string p in
      text = sprintf_text p && P.equal p (Platform_parse.of_string text))

let prop_depth_bounded =
  QCheck.Test.make ~name:"depth < nodes" ~count:50 (QCheck.int_range 2 25)
    (fun n ->
      let p = Platform_gen.random_tree ~seed:n ~nodes:n () in
      P.depth_from p 0 < P.num_nodes p)

(* the restriction layer: keeping everything is the identity, and any
   restriction's four index maps agree with each other and with the
   survival rule *)

let iota n = List.init n Fun.id

let prop_restrict_identity =
  QCheck.Test.make ~name:"identity restriction is a no-op" ~count:30
    (QCheck.int_range 2 20)
    (fun n ->
      let p =
        Platform_gen.random_graph ~seed:(n * 7 + 1) ~nodes:n ~extra_edges:n ()
      in
      let r = P.restrict p ~keep_node:(fun _ -> true) ~keep_edge:(fun _ -> true) in
      P.equal r.P.sub p
      && Array.to_list r.P.node_of_sub = iota (P.num_nodes p)
      && Array.to_list r.P.sub_of_node = iota (P.num_nodes p)
      && Array.to_list r.P.edge_of_sub = iota (P.num_edges p)
      && Array.to_list r.P.sub_of_edge = iota (P.num_edges p))

let prop_restrict_maps =
  QCheck.Test.make ~name:"restriction maps agree with the platform"
    ~count:40
    (QCheck.pair (QCheck.int_range 3 18) (QCheck.int_range 0 99))
    (fun (n, seed) ->
      let p =
        Platform_gen.random_graph ~seed:((n * 31) + seed) ~nodes:n
          ~extra_edges:n ()
      in
      let keep_node i = i = 0 || ((i * 7) + seed) mod 5 <> 0 in
      let keep_edge e = ((e * 11) + seed) mod 7 <> 0 in
      (* some survivors demoted to pure relays, the way failure-aware
         planners mark compute-dead but reachable nodes *)
      let weight i =
        if (i + seed) mod 3 = 0 then Ext_rat.inf else P.weight p i
      in
      let r = P.restrict ~weights:weight p ~keep_node ~keep_edge in
      let s = r.P.sub in
      List.for_all
        (fun o ->
          let i = r.P.sub_of_node.(o) in
          if keep_node o then
            r.P.node_of_sub.(i) = o
            && P.name s i = P.name p o
            && Ext_rat.equal (P.weight s i) (weight o)
          else i = -1)
        (P.nodes p)
      && List.for_all
           (fun o ->
             let e = r.P.sub_of_edge.(o) in
             let src = P.edge_src p o and dst = P.edge_dst p o in
             if keep_edge o && keep_node src && keep_node dst then
               r.P.edge_of_sub.(e) = o
               && P.edge_src s e = r.P.sub_of_node.(src)
               && P.edge_dst s e = r.P.sub_of_node.(dst)
               && R.equal (P.edge_cost s e) (P.edge_cost p o)
             else e = -1)
           (P.edges p)
      && Array.length r.P.node_of_sub = P.num_nodes s
      && Array.length r.P.edge_of_sub = P.num_edges s)

(* Fuzz [Platform_parse.of_string] with seeded mutations of valid
   platform files: truncated lines, rationals near [max_int] (and past
   it, into the bignum range), malformed numbers, zero and negative
   costs and weights, duplicated node and edge lines, deleted lines,
   stray tokens, tabs, carriage returns and comments.  The contract is
   the one [steady-cli] relies on: a platform, or [Invalid_argument] —
   never any other exception.  The one-pass scanner must also agree
   with the list-based reference parser on every text: the same
   platform, or the same message.  An accepted text must round-trip:
   printing and re-parsing it changes nothing. *)
let fuzz_numbers =
  [| "4611686018427387903"; "-4611686018427387904"; "4611686018427387903/2";
     "2/4611686018427387903"; "4611686018427387904"; "9223372036854775807/3";
     "4611686018427387903.5"; "0.4611686018427387903"; "1/0"; "0/0"; "0";
     "-0"; "0/7"; "-3"; "-1/2"; "1.-5"; "1."; ".5"; "-.5"; "1e5"; "1/2/3";
     "+"; "-"; "inf"; "-inf"; "nan"; ""; "INF"; "Inf"; "+3"; "007";
     "999999999999999999"; "1000000000000000000"; "1/999999999999999999";
     "999999999999999999.999999999999999999"; "0.000000000000000001";
     "1.0000000000000000001"; "1/-2"; "-1/-2"; "+1/2"; "1/+2"; "3/0.5";
     "2.5/2"; "1.5.5"; "1/2.5"; "2\012" |]

let fuzz_text g text =
  let pick a = a.(Faults.rand_int g (Array.length a)) in
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let n = Array.length lines in
  let line () = lines.(Faults.rand_int g n) in
  let mutate l =
    match Faults.rand_int g 10 with
    | 0 -> String.sub l 0 (Faults.rand_int g (String.length l + 1))
    | 1 | 2 -> (
      (* replace the attribute value *)
      match String.index_opt l '=' with
      | Some k -> String.sub l 0 (k + 1) ^ pick fuzz_numbers
      | None -> l ^ " w=" ^ pick fuzz_numbers)
    | 3 -> l ^ " " ^ pick [| "x"; "#"; "w=1"; "c=1"; "node" |]
    | 4 -> pick [| "node"; "edge"; "link"; "nodes"; "" |] ^ " " ^ l
    | 5 -> ""
    | 6 -> l ^ pick [| "\r"; " \r"; "\t"; "# c=1 x"; "#\r" |]
    | 7 ->
      (* another separator between the words *)
      String.concat (pick [| "\t"; "  "; " \r "; "\r"; "\012" |])
        (String.split_on_char ' ' l)
    | 8 -> (
      (* cut the line with a comment *)
      match String.length l with
      | 0 -> "#"
      | len ->
        let k = Faults.rand_int g len in
        String.sub l 0 k ^ "#" ^ String.sub l k (len - k))
    | _ -> l
  in
  let out = ref [] in
  Array.iter
    (fun l ->
      let l = if Faults.rand_int g 4 = 0 then mutate l else l in
      out := l :: !out;
      (* duplicate names and edges *)
      if Faults.rand_int g 10 = 0 then out := line () :: !out)
    lines;
  String.concat "\n" (List.rev !out)

let parse_outcome parse text =
  match parse text with
  | p -> Ok p
  | exception Invalid_argument m -> Error m

(* [text] parses as the reference parser has it: the same platform, or
   the same message; an accepted text round-trips.  [true] when
   accepted. *)
let agrees_with_reference i text =
  let reference = parse_outcome Platform_parse_reference.of_string text in
  match parse_outcome Platform_parse.of_string text with
  | Ok q ->
    (match reference with
    | Ok r ->
      Alcotest.(check bool) (Printf.sprintf "case %d = reference" i) true
        (P.equal q r)
    | Error m -> Alcotest.failf "case %d: reference rejects (%s):\n%s" i m text);
    let printed = Platform_parse.to_string q in
    Alcotest.(check string)
      (Printf.sprintf "case %d round-trips" i)
      printed
      (Platform_parse.to_string (Platform_parse.of_string printed));
    true
  | Error m ->
    (match reference with
    | Ok _ -> Alcotest.failf "case %d: reference accepts:\n%s" i text
    | Error m' ->
      Alcotest.(check string) (Printf.sprintf "case %d message" i) m' m);
    false
  | exception e ->
    Alcotest.failf "case %d: %s on input:\n%s" i (Printexc.to_string e) text

let test_parse_fuzz () =
  let g = Faults.generator ~seed:77 in
  let accepted = ref 0 and rejected = ref 0 in
  for i = 1 to 3000 do
    let nodes = 2 + Faults.rand_int g 6 in
    let p =
      Platform_gen.random_graph ~seed:(1 + Faults.rand_int g 1_000_000) ~nodes
        ~extra_edges:(Faults.rand_int g 4) ()
    in
    let text = fuzz_text g (Platform_parse.to_string p) in
    if agrees_with_reference i text then incr accepted else incr rejected
  done;
  (* the mutations must exercise both outcomes *)
  Alcotest.(check bool) "some accepted" true (!accepted > 200);
  Alcotest.(check bool) "some rejected" true (!rejected > 200)

(* The parser resolves each endpoint by hashing and comparing its slice
   of the text in place, so names that share a prefix are where it can
   go wrong.  Three families, each fuzzed as above and checked against
   the reference: 50-300-node platforms, where P1, P10 and P100 are all
   declared; names that differ only in their last byte; and undeclared
   names that are prefixes of declared ones (a deleted node line among
   its longer namesakes, or a bare "P"), spliced in anywhere. *)
let test_parse_fuzz_prefixes () =
  let g = Faults.generator ~seed:78 in
  let accepted = ref 0 and rejected = ref 0 in
  let count ok = if ok then incr accepted else incr rejected in
  let seed () = 1 + Faults.rand_int g 1_000_000 in
  let lines text = Array.of_list (String.split_on_char '\n' text) in
  for i = 1 to 60 do
    let nodes = 50 + Faults.rand_int g 251 in
    let p =
      if i mod 2 = 0 then Platform_gen.random_tree ~seed:(seed ()) ~nodes ()
      else
        Platform_gen.random_graph ~seed:(seed ()) ~nodes
          ~extra_edges:(Faults.rand_int g 20) ()
    in
    let text = Platform_parse.to_string p in
    count (agrees_with_reference i text);
    count (agrees_with_reference (1000 + i) (fuzz_text g text))
  done;
  let alphabet =
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
  in
  for i = 1 to 200 do
    let nodes = 2 + Faults.rand_int g (String.length alphabet - 1) in
    let p = Platform_gen.random_graph ~seed:(seed ()) ~nodes ~extra_edges:3 () in
    let stem = String.make (Faults.rand_int g 9) 'n' in
    let p =
      P.create
        ~names:(Array.init nodes (fun v -> stem ^ String.make 1 alphabet.[v]))
        ~weights:(Array.init nodes (P.weight p))
        ~edges:
          (List.map
             (fun e -> (P.edge_src p e, P.edge_dst p e, P.edge_cost p e))
             (P.edges p))
    in
    let text = Platform_parse.to_string p in
    count (agrees_with_reference (2000 + i) text);
    count (agrees_with_reference (2500 + i) (fuzz_text g text))
  done;
  for i = 1 to 200 do
    let nodes = 12 + Faults.rand_int g 110 in
    let p = Platform_gen.random_tree ~seed:(seed ()) ~nodes () in
    let ls = lines (Platform_parse.to_string p) in
    (* drop the node line of P1 .. P9 (P10 .. P19 stay), or splice in a
       link to a bare prefix *)
    let ls =
      if i mod 3 = 0 then begin
        let at = Faults.rand_int g (Array.length ls) in
        Array.concat
          [ Array.sub ls 0 at;
            [| Printf.sprintf "link P P%d c=1" (Faults.rand_int g nodes) |];
            Array.sub ls at (Array.length ls - at) ]
      end
      else begin
        let gone = Printf.sprintf "node P%d " (1 + Faults.rand_int g 9) in
        let keep l =
          not
            (String.length l >= String.length gone
            && String.sub l 0 (String.length gone) = gone)
        in
        Array.of_list (List.filter keep (Array.to_list ls))
      end
    in
    count (agrees_with_reference (3000 + i) (String.concat "\n" (Array.to_list ls)))
  done;
  Alcotest.(check bool) "some accepted" true (!accepted > 200);
  Alcotest.(check bool) "some rejected" true (!rejected > 200)

(* Platform texts whose numbers mostly fall outside the parser's table
   of shared small values (n/d with n, d < 64): large numerators and
   denominators, integers from 64 on, decimals, a few bignums, zeros
   and unreduced spellings, with in-table values and the table's edges
   mixed in.  Deterministic: the allocation bound below is read on this
   corpus. *)
let out_of_table_texts () =
  let g = Faults.generator ~seed:79 in
  let rand = Faults.rand_int g in
  let number () =
    match rand 10 with
    | 0 -> string_of_int (64 + rand 1_000_000)
    | 1 -> Printf.sprintf "%d/%d" (1 + rand 1_000_000_000) (1 + rand 1_000_000_000)
    | 2 -> Printf.sprintf "%d/%d" (1 + rand 63) (64 + rand 1000)
    | 3 -> Printf.sprintf "%d.%d" (rand 1000) (rand 100_000)
    | 4 -> Printf.sprintf "%d.%02d" (rand 64) (rand 100)
    | 5 -> Printf.sprintf "12345678901234567890%d/%d" (rand 10) (1 + rand 97)
    | 6 ->
      let k = 1 + rand 9 in
      Printf.sprintf "%d/%d" (k * (1 + rand 70)) (k * (1 + rand 70))
    | 7 -> List.nth [ "63/64"; "64/63"; "63"; "64"; "1/63"; "1/64"; "0.5"; "0" ] (rand 8)
    | _ -> Printf.sprintf "%d/%d" (rand 64) (1 + rand 63)
  in
  List.init 400 (fun _ ->
      let n = 2 + rand 7 in
      let buf = Buffer.create 256 in
      for i = 0 to n - 1 do
        Printf.bprintf buf "node P%d w=%s\n" i
          (if rand 6 = 0 then "inf" else number ())
      done;
      for _ = 1 to n + rand n do
        let i = rand n and j = rand n in
        if i <> j then
          Printf.bprintf buf "%s P%d P%d c=%s\n"
            (if rand 3 = 0 then "link" else "edge")
            i j (number ())
      done;
      Buffer.contents buf)

(* Each text parses as the reference has it, and the parser allocates
   no more than the one before the shared table and one-int edge lines
   did on the same corpus: 326 457 words, rejected texts included
   (this parser reads 301 115). *)
let test_parse_out_of_table () =
  let texts = out_of_table_texts () in
  let accepted =
    List.length (List.filter Fun.id (List.mapi agrees_with_reference texts))
  in
  Alcotest.(check bool) "some accepted" true (accepted > 100);
  Alcotest.(check bool) "some rejected" true (accepted < 380);
  Gc.minor ();
  let minor0, promoted0, major0 = Gc.counters () in
  List.iter
    (fun t -> try ignore (Platform_parse.of_string t) with Invalid_argument _ -> ())
    texts;
  Gc.minor ();
  let minor1, promoted1, major1 = Gc.counters () in
  let words = minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0) in
  if words > 326_457. then
    Alcotest.failf "parsing the corpus allocated %.0f words" words

(* The parser resolves an edge line's names at its own line and keeps
   only the lines that name a node declared later for a pass after the
   scan, last line first, destination before source.  Four families on
   3-22-node trees and graphs, each checked against the reference (the
   same platform or the same message): node lines moved after the edge
   and link lines that name them; a name declared twice with edges
   between the two declarations; several node lines deleted, so that
   undeclared names stand on several lines; and those with a syntax
   error spliced in before or after them. *)
let test_parse_fuzz_deferred () =
  let g = Faults.generator ~seed:80 in
  let rand = Faults.rand_int g in
  let accepted = ref 0 and rejected = ref 0 in
  let starts l pre =
    String.length l >= String.length pre
    && String.sub l 0 (String.length pre) = pre
  in
  let insert x ls =
    let k = rand (List.length ls + 1) in
    List.filteri (fun i _ -> i < k) ls @ (x :: List.filteri (fun i _ -> i >= k) ls)
  in
  for i = 1 to 600 do
    let nodes = 3 + rand 20 and seed = 1 + rand 1_000_000 in
    let p =
      if i mod 2 = 0 then Platform_gen.random_tree ~seed ~nodes ()
      else Platform_gen.random_graph ~seed ~nodes ~extra_edges:(rand 5) ()
    in
    let ls =
      List.filter (( <> ) "") (String.split_on_char '\n' (Platform_parse.to_string p))
    in
    let decls, edges = List.partition (fun l -> starts l "node ") ls in
    (* a few edges become links, their reverse line dropped *)
    let edges, _ =
      List.fold_left
        (fun (acc, gone) l ->
          if List.exists (starts l) gone then (acc, gone)
          else
            match String.split_on_char ' ' l with
            | [ "edge"; a; b; c ] when rand 4 = 0 ->
              let rev = Printf.sprintf "edge %s %s " b a in
              ( List.filter (fun l' -> not (starts l' rev)) acc
                @ [ Printf.sprintf "link %s %s %s" a b c ],
                rev :: gone )
            | _ -> (acc @ [ l ], gone))
        ([], []) edges
    in
    let family = i mod 5 in
    (* undeclared names: 2-4 node lines deleted *)
    let decls =
      if family >= 3 then begin
        let gone = List.init (2 + rand 3) (fun _ -> rand nodes) in
        List.filteri (fun k _ -> not (List.mem k gone)) decls
      end
      else decls
    in
    (* node lines moved among or after the edge lines *)
    let kept, moved = List.partition (fun _ -> rand 2 = 0) decls in
    let ls = List.fold_left (fun acc l -> insert l acc) (kept @ edges) moved in
    let ls =
      match family with
      | 2 ->
        (* a name declared twice, edges between the declarations *)
        let d = List.nth decls (rand (List.length decls)) in
        let at = ref (-1) in
        List.iteri (fun k l -> if l = d then at := k) ls;
        let k = !at + 1 + rand (List.length ls - !at) in
        List.filteri (fun i _ -> i < k) ls
        @ (d :: List.filteri (fun i _ -> i >= k) ls)
      | 4 ->
        insert
          (List.nth
             [ "node X w=abc"; "edge P0 P1"; "bogus line"; "link P0 P1 c=0/0" ]
             (rand 4))
          ls
      | _ -> ls
    in
    if agrees_with_reference (5000 + i) (String.concat "\n" ls) then incr accepted
    else incr rejected
  done;
  Alcotest.(check bool) "some accepted" true (!accepted > 100);
  Alcotest.(check bool) "some rejected" true (!rejected > 100)

(* Parsing a 10^4-node random tree's text allocates no more than the
   parser that resolved every edge line in a second walk over the text:
   301 430 words (minor plus major less promoted, the minor heap emptied
   on both sides; this parser reads 271 072). *)
let test_parse_tree_alloc () =
  let text =
    Platform_parse.to_string (Platform_gen.random_tree ~seed:7 ~nodes:10_000 ())
  in
  Gc.minor ();
  let minor0, promoted0, major0 = Gc.counters () in
  let p = Platform_parse.of_string text in
  Gc.minor ();
  let minor1, promoted1, major1 = Gc.counters () in
  Alcotest.(check int) "nodes" 10_000 (P.num_nodes p);
  let words = minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0) in
  if words > 301_430. then
    Alcotest.failf "parsing a 10^4-node tree allocated %.0f words" words

(* The builder gives what [create] gives on the same nodes and edges,
   whatever the order of adds and lookups: edges added before their
   nodes take placeholder ends, set once the names are known.  [find]
   answers the first node of a name, short or long, and -1 for a name
   not yet added. *)
let prop_builder_create =
  QCheck.Test.make ~name:"builder = create" ~count:200
    (QCheck.pair (QCheck.int_range 2 40) (QCheck.int_range 0 9999))
    (fun (n, seed) ->
      let p =
        Platform_gen.random_graph ~seed:((n * 10000) + seed) ~nodes:n
          ~extra_edges:(seed mod (2 * n)) ()
      in
      (* long names on odd seeds: hashed keys *)
      let name i =
        if seed mod 2 = 1 then Printf.sprintf "node-number-%d" i else P.name p i
      in
      let b = P.builder () in
      let g = Faults.generator ~seed in
      let added = ref 0 and pending = ref [] in
      let add_node () =
        P.add_node b (name !added) (P.weight p !added);
        incr added
      in
      List.iter
        (fun e ->
          while !added < n && Faults.rand_int g 3 > 0 do add_node () done;
          let i = P.edge_src p e and j = P.edge_dst p e in
          let found v = P.find b (name v) 0 (String.length (name v)) in
          let fi = found i and fj = found j in
          let k = P.add_edge b fi fj (P.edge_cost p e) in
          assert (k = e);
          assert (fi = if i < !added then i else -1);
          assert (fj = if j < !added then j else -1);
          if fi < 0 || fj < 0 then pending := (k, i, j) :: !pending)
        (P.edges p);
      while !added < n do add_node () done;
      List.iter (fun (k, i, j) -> P.set_ends b k i j) !pending;
      let text = "xx" ^ name 0 ^ "yy" in
      P.find b text 2 (String.length text - 2) = 0
      && P.find b "absent-node-name" 0 16 = -1
      && (match P.set_ends b (P.num_edges p) 0 1 with
         | () -> false
         | exception Invalid_argument _ -> true)
      && P.equal (P.finish b)
           (P.create
              ~names:(Array.init n name)
              ~weights:(Array.init n (P.weight p))
              ~edges:
                (List.map
                   (fun e -> (P.edge_src p e, P.edge_dst p e, P.edge_cost p e))
                   (P.edges p))))

(* The adjacency ranges read the same ascending lists as filtering the
   edges by endpoint, on random platforms and on the platforms
   [transpose], [restrict] and [restrict_nodes] build from them. *)
let prop_adjacency_ranges =
  let agrees q =
    let range lo hi at = List.init (hi - lo) (fun k -> at q (lo + k)) in
    List.for_all
      (fun i ->
        let outs = List.filter (fun e -> P.edge_src q e = i) (P.edges q)
        and ins = List.filter (fun e -> P.edge_dst q e = i) (P.edges q) in
        P.out_edges q i = outs
        && P.in_edges q i = ins
        && range (P.out_lo q i) (P.out_hi q i) P.out_edge = outs)
      (P.nodes q)
  in
  QCheck.Test.make ~name:"adjacency ranges = ascending edge lists" ~count:100
    (QCheck.pair (QCheck.int_range 2 30) (QCheck.int_range 0 999))
    (fun (n, seed) ->
      let p =
        Platform_gen.random_graph ~seed:((n * 1000) + seed) ~nodes:n
          ~extra_edges:(seed mod (2 * n)) ()
      in
      let r =
        P.restrict p
          ~keep_node:(fun i -> i = 0 || (i + seed) mod 4 <> 1)
          ~keep_edge:(fun e -> ((e * 7) + seed) mod 5 <> 0)
      in
      let sub, _ = P.restrict_nodes p ~keep:(fun i -> ((i * 3) + seed) mod 5 <> 2) in
      List.for_all agrees [ p; P.transpose p; r.P.sub; sub; P.transpose sub ])

(* The parser's arrays follow the declarations it reads, not the byte
   count: 2 MB of comments around a two-node platform must not make it
   allocate in proportion to the text (sizing by bytes, at one entry
   per 16 bytes, cost over a million words here). *)
let test_parse_alloc () =
  let buf = Buffer.create (1 lsl 21) in
  Buffer.add_string buf "node A w=1\nnode B w=2\nlink A B c=1\n";
  let comment = "# " ^ String.make 61 'x' ^ "\n" in
  while Buffer.length buf < 1 lsl 21 do
    Buffer.add_string buf comment
  done;
  let text = Buffer.contents buf in
  let _, _, major0 = Gc.counters () in
  let p = Platform_parse.of_string text in
  let _, _, major1 = Gc.counters () in
  Alcotest.(check int) "nodes" 2 (P.num_nodes p);
  Alcotest.(check int) "edges" 2 (P.num_edges p);
  let words = major1 -. major0 in
  if words > 20_000. then
    Alcotest.failf "of_string allocated %.0f major words for 2 nodes" words

(* a CRLF file parses as its LF twin, weights and costs included *)
let test_parse_crlf () =
  let lf =
    "# crlf\nnode A w=2\nnode B w=inf\nnode C w=1/3\n\n\
     edge A B c=3/2  # trailing comment\nlink B C c=0.5\n"
  in
  let crlf =
    String.concat "\r\n" (String.split_on_char '\n' lf)
  in
  Alcotest.(check bool) "CRLF = LF" true
    (P.equal (Platform_parse.of_string lf) (Platform_parse.of_string crlf));
  let p = Platform_gen.random_graph ~seed:3 ~nodes:8 ~extra_edges:3 () in
  let text = Platform_parse.to_string p in
  Alcotest.(check bool) "generated CRLF file" true
    (P.equal p
       (Platform_parse.of_string
          (String.concat "\r\n" (String.split_on_char '\n' text))))

let suite =
  let q = QCheck_alcotest.to_alcotest in
  ( "platform",
    [
      Alcotest.test_case "accessors" `Quick test_basic_accessors;
      Alcotest.test_case "edges" `Quick test_edges;
      Alcotest.test_case "validation" `Quick test_validation;
      Alcotest.test_case "reachability" `Quick test_reachability;
      Alcotest.test_case "shortest path" `Quick test_shortest_path;
      Alcotest.test_case "transpose" `Quick test_transpose;
      Alcotest.test_case "restrict" `Quick test_restrict;
      Alcotest.test_case "figure 1 platform" `Quick test_figure1;
      Alcotest.test_case "figure 2 platform" `Quick test_multicast_fig2;
      Alcotest.test_case "star/chain" `Quick test_star_chain;
      Alcotest.test_case "generators valid" `Quick test_generators_valid;
      Alcotest.test_case "generator determinism" `Quick test_generator_determinism;
      Alcotest.test_case "parse roundtrip" `Quick test_parse_roundtrip;
      Alcotest.test_case "parse format" `Quick test_parse_format;
      Alcotest.test_case "parse errors" `Quick test_parse_errors;
      Alcotest.test_case "parse fuzz" `Quick test_parse_fuzz;
      Alcotest.test_case "parse CRLF" `Quick test_parse_crlf;
      Alcotest.test_case "dot export" `Quick test_dot;
      Alcotest.test_case "create error precedence" `Quick
        test_create_error_precedence;
      q prop_parse_roundtrip;
      q prop_to_string_as_sprintf;
      q prop_depth_bounded;
      q prop_restrict_identity;
      q prop_restrict_maps;
      Alcotest.test_case "parse fuzz: shared prefixes" `Quick
        test_parse_fuzz_prefixes;
      Alcotest.test_case "parse allocation follows declarations" `Quick
        test_parse_alloc;
      Alcotest.test_case "parse fuzz: numbers outside the shared table" `Quick
        test_parse_out_of_table;
      q prop_adjacency_ranges;
      Alcotest.test_case "parse fuzz: names declared later" `Quick
        test_parse_fuzz_deferred;
      Alcotest.test_case "parse allocation: 10^4-node tree" `Quick
        test_parse_tree_alloc;
      q prop_builder_create;
    ] )
