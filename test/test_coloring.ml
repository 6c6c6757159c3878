(* Tests for the weighted bipartite edge-colouring decomposition, the
   §4.1 machinery that turns LP activity variables into an orchestration
   of one-port-compatible communication slots. *)

module R = Rat
module BC = Bipartite_coloring

let r = R.of_ints
let ri = R.of_int

let mk ?(tag = -1) left right weight =
  { BC.left; right; weight; tag = (if tag = -1 then (left * 100) + right else tag) }

let check_ok ~l ~r:rs edges =
  let ms = BC.decompose ~left_size:l ~right_size:rs edges in
  (match BC.check_decomposition ~left_size:l ~right_size:rs edges ms with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  ms

let test_empty () =
  let ms = check_ok ~l:3 ~r:3 [] in
  Alcotest.(check int) "no matchings" 0 (List.length ms)

let test_single_edge () =
  let ms = check_ok ~l:1 ~r:1 [ mk 0 0 (r 3 4) ] in
  Alcotest.(check int) "one matching" 1 (List.length ms);
  match ms with
  | [ m ] -> Alcotest.(check string) "duration" "3/4" (R.to_string m.BC.duration)
  | _ -> assert false

let test_star_conflict () =
  (* one sender to three receivers: all edges conflict at the sender, so
     the total duration is the sender's degree and no matching holds two
     of them *)
  let edges = [ mk 0 0 (ri 1); mk 0 1 (r 1 2); mk 0 2 (r 1 3) ] in
  let ms = check_ok ~l:1 ~r:3 edges in
  List.iter
    (fun m -> Alcotest.(check int) "singleton matchings" 1 (List.length m.BC.edges))
    ms;
  let total = R.sum (List.map (fun m -> m.BC.duration) ms) in
  Alcotest.(check string) "total = 11/6" "11/6" (R.to_string total)

let test_parallel_transfers () =
  (* disjoint pairs can all run simultaneously: one matching suffices *)
  let edges = [ mk 0 0 (ri 2); mk 1 1 (ri 2); mk 2 2 (ri 2) ] in
  let ms = check_ok ~l:3 ~r:3 edges in
  Alcotest.(check int) "one matching" 1 (List.length ms);
  match ms with
  | [ m ] ->
    Alcotest.(check int) "3 edges" 3 (List.length m.BC.edges);
    Alcotest.(check string) "duration 2" "2" (R.to_string m.BC.duration)
  | _ -> assert false

let test_uneven_degrees () =
  (* sender 0 busy 1, sender 1 busy 1/2, receiver 0 busy 3/2: the
     decomposition must still fit within max degree 3/2 *)
  let edges = [ mk 0 0 (ri 1); mk 1 0 (r 1 2); mk 0 1 (r 1 2) ] in
  let ms = check_ok ~l:2 ~r:2 edges in
  let total = R.sum (List.map (fun m -> m.BC.duration) ms) in
  Alcotest.(check string) "total = max degree 3/2" "3/2" (R.to_string total)

let test_multigraph () =
  (* two distinct communications between the same pair (different tags):
     they cannot overlap, so total = 5/2 *)
  let edges = [ mk ~tag:1 0 0 (ri 1); mk ~tag:2 0 0 (r 3 2) ] in
  let ms = check_ok ~l:1 ~r:1 edges in
  let total = R.sum (List.map (fun m -> m.BC.duration) ms) in
  Alcotest.(check string) "total 5/2" "5/2" (R.to_string total)

let test_complete_bipartite () =
  (* K_{3,3} with unit weights: max degree 3, perfect matchings exist;
     the decomposition should finish in few matchings, all of size 3 at
     the start *)
  let edges =
    List.concat_map (fun i -> List.map (fun j -> mk i j R.one) [ 0; 1; 2 ]) [ 0; 1; 2 ]
  in
  let ms = check_ok ~l:3 ~r:3 edges in
  let total = R.sum (List.map (fun m -> m.BC.duration) ms) in
  Alcotest.(check string) "total 3" "3" (R.to_string total);
  Alcotest.(check bool) "at most |E|+2|V| matchings" true (List.length ms <= 9 + 12)

let test_validation_rejects () =
  Alcotest.(check bool) "bad endpoint" true
    (try ignore (BC.decompose ~left_size:1 ~right_size:1 [ mk 0 5 R.one ]); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "zero weight" true
    (try ignore (BC.decompose ~left_size:1 ~right_size:1 [ mk 0 0 R.zero ]); false
     with Invalid_argument _ -> true)

let test_checker_detects_bad () =
  let edges = [ mk 0 0 R.one; mk 1 1 R.one ] in
  (* fabricated decomposition with a clash *)
  let bad = [ { BC.duration = R.one; edges = [ mk 0 0 R.one; mk 0 1 R.one ] } ] in
  (match BC.check_decomposition ~left_size:2 ~right_size:2 edges bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "clash not detected");
  (* under-scheduled edge *)
  let partial = [ { BC.duration = r 1 2; edges } ] in
  match BC.check_decomposition ~left_size:2 ~right_size:2 edges partial with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "under-scheduling not detected"

(* --- properties --- *)

let gen_instance =
  QCheck.Gen.(
    let* l = int_range 1 6 in
    let* rr = int_range 1 6 in
    let* n = int_range 1 20 in
    let* triples =
      list_repeat n
        (triple (int_range 0 (l - 1)) (int_range 0 (rr - 1))
           (map (fun k -> R.of_ints k 4) (int_range 1 12)))
    in
    let edges = List.mapi (fun i (a, b, w) -> { BC.left = a; right = b; weight = w; tag = i }) triples in
    return (l, rr, edges))

let print_instance (l, rr, edges) =
  Printf.sprintf "l=%d r=%d edges=[%s]" l rr
    (String.concat "; "
       (List.map
          (fun e ->
            Printf.sprintf "%d->%d:%s" e.BC.left e.BC.right
              (R.to_string e.BC.weight))
          edges))

let arb_instance = QCheck.make ~print:print_instance gen_instance

let prop_decomposition_valid =
  QCheck.Test.make ~name:"decomposition satisfies all invariants" ~count:300
    arb_instance (fun (l, rr, edges) ->
      let ms = BC.decompose ~left_size:l ~right_size:rr edges in
      match BC.check_decomposition ~left_size:l ~right_size:rr edges ms with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_report e)

let prop_matching_count_bounded =
  QCheck.Test.make ~name:"at most |E| + 2|V| matchings" ~count:300 arb_instance
    (fun (l, rr, edges) ->
      let ms = BC.decompose ~left_size:l ~right_size:rr edges in
      List.length ms <= List.length edges + (2 * (l + rr)))

(* Sparse multigraphs over large index spaces: a few active endpoints
   spread over [0, size), size up to 10^5, or Multiport-shaped ones,
   where each node's cards are consecutive indices from its base. *)
let gen_sparse =
  QCheck.Gen.(
    let* size = map (fun k -> int_of_float (10. ** Float.of_int k)) (int_range 1 5) in
    let weight = map (fun k -> R.of_ints k 6) (int_range 1 18) in
    let* n = int_range 1 14 in
    let* multiport = bool in
    let* lefts, rights =
      if multiport then
        (* nodes at spread bases, each with 1-3 cards *)
        let* nodes = int_range 1 6 in
        let* cards = list_repeat nodes (int_range 1 3) in
        let* bases = list_repeat nodes (int_range 0 (max 0 (size - 3))) in
        let slots =
          List.concat
            (List.map2 (fun b c -> List.init c (fun k -> b + k)) bases cards)
        in
        return (slots, slots)
      else
        let* kl = int_range 1 6 in
        let* kr = int_range 1 6 in
        let* lefts = list_repeat kl (int_range 0 (size - 1)) in
        let* rights = list_repeat kr (int_range 0 (size - 1)) in
        return (lefts, rights)
    in
    let* triples =
      list_repeat n (triple (oneofl lefts) (oneofl rights) weight)
    in
    let edges =
      List.mapi
        (fun i (a, b, w) -> { BC.left = a; right = b; weight = w; tag = i })
        triples
    in
    return (size + 2, size + 2, edges))

let prop_same_as_dense =
  QCheck.Test.make ~name:"same matchings as the dense reference" ~count:100
    (QCheck.make ~print:print_instance gen_sparse)
    (fun (l, rr, edges) ->
      let ms = BC.decompose ~left_size:l ~right_size:rr edges in
      let dense =
        Coloring_dense_reference.decompose ~left_size:l ~right_size:rr edges
      in
      List.length ms = List.length dense
      && List.for_all2
           (fun a b ->
             R.equal a.BC.duration b.BC.duration
             && List.length a.BC.edges = List.length b.BC.edges
             && List.for_all2 ( == ) a.BC.edges b.BC.edges)
           ms dense
      && R.equal
           (BC.max_weighted_degree ~left_size:l ~right_size:rr edges)
           (Coloring_dense_reference.max_weighted_degree ~left_size:l
              ~right_size:rr edges))

(* No clock: on index spaces no array can span, both entry points must
   still return, and answer as on the same graph relabelled small. *)
let test_index_space_unbounded () =
  let big = Sys.max_array_length in
  let far = [| 0; big / 3; big - 2; big - 1 |] in
  let edges =
    List.mapi
      (fun tag (a, b, w) ->
        { BC.left = far.(a); right = far.(b); weight = r w 4; tag })
      [ (0, 3, 3); (0, 1, 1); (2, 3, 2); (3, 3, 4); (2, 0, 1); (0, 3, 1) ]
  in
  let small =
    List.map (fun e ->
        let idx x = Option.get (Array.find_index (( = ) x) far) in
        { e with BC.left = idx e.BC.left; right = idx e.BC.right })
      edges
  in
  let ms = BC.decompose ~left_size:big ~right_size:big edges in
  (match BC.check_decomposition ~left_size:big ~right_size:big edges ms with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let ms4 = BC.decompose ~left_size:4 ~right_size:4 small in
  Alcotest.(check (list string)) "durations as on 4 nodes"
    (List.map (fun m -> R.to_string m.BC.duration) ms4)
    (List.map (fun m -> R.to_string m.BC.duration) ms);
  Alcotest.(check (list (list int))) "tags as on 4 nodes"
    (List.map (fun m -> List.map (fun e -> e.BC.tag) m.BC.edges) ms4)
    (List.map (fun m -> List.map (fun e -> e.BC.tag) m.BC.edges) ms);
  Alcotest.(check string) "max degree" "5/2"
    (R.to_string (BC.max_weighted_degree ~left_size:big ~right_size:big edges));
  Alcotest.(check bool) "range still checked" true
    (try
       ignore
         (BC.max_weighted_degree ~left_size:big ~right_size:2
            [ mk 0 (big - 1) R.one ]);
       false
     with Invalid_argument _ -> true)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  ( "coloring",
    [
      Alcotest.test_case "empty" `Quick test_empty;
      Alcotest.test_case "single edge" `Quick test_single_edge;
      Alcotest.test_case "star conflict" `Quick test_star_conflict;
      Alcotest.test_case "parallel transfers" `Quick test_parallel_transfers;
      Alcotest.test_case "uneven degrees" `Quick test_uneven_degrees;
      Alcotest.test_case "multigraph" `Quick test_multigraph;
      Alcotest.test_case "complete bipartite" `Quick test_complete_bipartite;
      Alcotest.test_case "input validation" `Quick test_validation_rejects;
      Alcotest.test_case "checker detects bad" `Quick test_checker_detects_bad;
      q prop_decomposition_valid;
      q prop_matching_count_bounded;
      q prop_same_as_dense;
      Alcotest.test_case "unbounded index space" `Quick
        test_index_space_unbounded;
    ] )
