(* Tests for Asyncolor_topology: graph construction invariants, the
   builder families, DOT export. *)

module Graph = Asyncolor_topology.Graph
module Builders = Asyncolor_topology.Builders
module Dot = Asyncolor_topology.Dot
module Prng = Asyncolor_util.Prng

let check = Alcotest.check
let qtest t = QCheck_alcotest.to_alcotest t

(* --- construction -------------------------------------------------- *)

let test_make_basic () =
  let g = Graph.make ~n:4 ~edges:[ (0, 1); (1, 2); (2, 3) ] in
  check Alcotest.int "n" 4 (Graph.n g);
  check Alcotest.int "m" 3 (List.length (Graph.edges g));
  check Alcotest.(array int) "nbrs of 1" [| 0; 2 |] (Graph.neighbours g 1);
  check Alcotest.bool "edge 0-1" true (Array.mem 1 (Graph.neighbours g 0));
  check Alcotest.bool "edge 1-0 symmetric" true (Array.mem 0 (Graph.neighbours g 1));
  check Alcotest.bool "no edge 0-3" false (Array.mem 3 (Graph.neighbours g 0))

let test_make_dedup () =
  let g = Graph.make ~n:3 ~edges:[ (0, 1); (1, 0); (0, 1) ] in
  check Alcotest.int "one edge" 1 (List.length (Graph.edges g))

let test_make_rejects_self_loop () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.make: self-loop")
    (fun () -> ignore (Graph.make ~n:3 ~edges:[ (1, 1) ]))

let test_make_rejects_out_of_range () =
  Alcotest.check_raises "range"
    (Invalid_argument "Graph.make: node 5 out of range [0,3)") (fun () ->
      ignore (Graph.make ~n:3 ~edges:[ (0, 5) ]))

let test_empty_graph () =
  let g = Graph.make ~n:0 ~edges:[] in
  check Alcotest.int "n" 0 (Graph.n g);
  check Alcotest.int "max degree" 0 (Graph.max_degree g)

let test_edges_canonical () =
  let g = Graph.make ~n:4 ~edges:[ (3, 2); (1, 0) ] in
  check
    Alcotest.(list (pair int int))
    "edges sorted, u<v"
    [ (0, 1); (2, 3) ]
    (Graph.edges g)

let test_fold_edges () =
  let g = Builders.cycle 5 in
  let count = Graph.fold_edges (fun _ _ acc -> acc + 1) g 0 in
  check Alcotest.int "fold visits each edge once" 5 count

(* Every view of a graph agrees with the edge list [make] was given. *)
let prop_views_agree =
  QCheck.Test.make ~name:"graph views agree with the edge list" ~count:200
    QCheck.(pair (Bounded.int_range 1 12) (list (pair small_nat small_nat)))
    (fun (n, pairs) ->
      let pairs = List.map (fun (u, v) -> (u mod n, v mod n)) pairs in
      let pairs = List.filter (fun (u, v) -> u <> v) pairs in
      let g = Graph.make ~n ~edges:pairs in
      let edges = List.sort_uniq compare (List.map (fun (u, v) -> (min u v, max u v)) pairs) in
      let nbrs v = List.filter_map (fun (a, b) -> if a = v then Some b else if b = v then Some a else None) edges in
      let nodes = List.init n Fun.id in
      Graph.edges g = edges
      && List.sort compare (Graph.fold_edges (fun u v acc -> (u, v) :: acc) g []) = edges
      && List.for_all (fun v -> List.sort compare (Array.to_list (Graph.neighbours g v)) = nbrs v) nodes
      && Graph.max_degree g = List.fold_left (fun m v -> max m (List.length (nbrs v))) 0 nodes)

let test_automorphism_counts () =
  List.iter
    (fun (g, order) ->
      let autos = Graph.automorphisms g in
      check Alcotest.int "group order" order (List.length autos);
      check Alcotest.(array int) "identity first" (Array.init (Graph.n g) Fun.id) (List.hd autos))
    Builders.[ (cycle 5, 10); (cycle 8, 16); (complete 4, 8); (path 5, 2); (star 5, 2) ]

let prop_automorphisms_preserve_edges =
  QCheck.Test.make ~name:"automorphisms are distinct edge-preserving permutations" ~count:100
    QCheck.(pair (Bounded.int_range 1 12) (int_range 0 10_000))
    (fun (n, seed) ->
      let g = Builders.gnp (Prng.create ~seed) ~n ~p:0.5 in
      let autos = Graph.automorphisms g and edges = Graph.edges g in
      let image s = List.sort compare (List.map (fun (u, v) -> (min s.(u) s.(v), max s.(u) s.(v))) edges) in
      List.length (List.sort_uniq compare autos) = List.length autos
      && List.for_all (fun s -> List.sort compare (Array.to_list s) = List.init n Fun.id && image s = edges) autos)

(* --- builders ------------------------------------------------------ *)

(* Whether a breadth-first search from node 0 reaches every node. *)
let connected g =
  let seen = Array.make (Graph.n g) false in
  let rec visit = function
    | [] -> ()
    | v :: rest when seen.(v) -> visit rest
    | v :: rest ->
        seen.(v) <- true;
        visit (Array.to_list (Graph.neighbours g v) @ rest)
  in
  visit (if Graph.n g = 0 then [] else [ 0 ]);
  Array.for_all Fun.id seen

let test_connectivity () =
  check Alcotest.bool "disconnected" false (connected (Graph.make ~n:4 ~edges:[ (0, 1); (2, 3) ]));
  check Alcotest.bool "cycle connected" true (connected (Builders.cycle 7))

let test_cycle () =
  let g = Builders.cycle 6 in
  check Alcotest.int "m" 6 (List.length (Graph.edges g));
  for v = 0 to 5 do
    check Alcotest.int "degree 2" 2 (Graph.degree g v)
  done;
  Alcotest.check_raises "n<3" (Invalid_argument "Builders.cycle: need n >= 3")
    (fun () -> ignore (Builders.cycle 2))

let test_path () =
  let g = Builders.path 5 in
  check Alcotest.int "m" 4 (List.length (Graph.edges g));
  check Alcotest.int "endpoint degree" 1 (Graph.degree g 0);
  check Alcotest.int "inner degree" 2 (Graph.degree g 2);
  check Alcotest.int "single node" 0 (List.length (Graph.edges (Builders.path 1)))

let test_complete () =
  let g = Builders.complete 5 in
  check Alcotest.int "m" 10 (List.length (Graph.edges g));
  check Alcotest.int "degree" 4 (Graph.max_degree g);
  check Alcotest.bool "K3 is C3" true
    (Graph.edges (Builders.complete 3) = Graph.edges (Builders.cycle 3))

let test_star () =
  let g = Builders.star 7 in
  check Alcotest.int "centre degree" 6 (Graph.degree g 0);
  check Alcotest.int "leaf degree" 1 (Graph.degree g 3);
  check Alcotest.int "m" 6 (List.length (Graph.edges g))

let test_grid () =
  let g = Builders.grid 3 4 in
  check Alcotest.int "n" 12 (Graph.n g);
  check Alcotest.int "m" ((2 * 4) + (3 * 3)) (List.length (Graph.edges g));
  check Alcotest.int "corner degree" 2 (Graph.degree g 0);
  check Alcotest.int "max degree" 4 (Graph.max_degree g);
  check Alcotest.bool "connected" true (connected g)

let test_torus () =
  let g = Builders.torus 4 5 in
  check Alcotest.int "n" 20 (Graph.n g);
  check Alcotest.int "m" 40 (List.length (Graph.edges g));
  for v = 0 to 19 do
    check Alcotest.int "4-regular" 4 (Graph.degree g v)
  done

let test_petersen () =
  let g = Builders.petersen () in
  check Alcotest.int "n" 10 (Graph.n g);
  check Alcotest.int "m" 15 (List.length (Graph.edges g));
  for v = 0 to 9 do
    check Alcotest.int "3-regular" 3 (Graph.degree g v)
  done;
  check Alcotest.bool "connected" true (connected g)

let test_hypercube () =
  let g = Builders.hypercube 4 in
  check Alcotest.int "n" 16 (Graph.n g);
  check Alcotest.int "m" 32 (List.length (Graph.edges g));
  for v = 0 to 15 do
    check Alcotest.int "4-regular" 4 (Graph.degree g v)
  done;
  check Alcotest.int "d=0" 1 (Graph.n (Builders.hypercube 0))

let test_random_regular () =
  let prng = Prng.create ~seed:99 in
  let g = Builders.random_regular prng ~n:20 ~d:3 in
  check Alcotest.int "n" 20 (Graph.n g);
  for v = 0 to 19 do
    check Alcotest.int "3-regular" 3 (Graph.degree g v)
  done;
  Alcotest.check_raises "odd product"
    (Invalid_argument "Builders.random_regular: n*d must be even") (fun () ->
      ignore (Builders.random_regular prng ~n:5 ~d:3))

let test_gnp () =
  let prng = Prng.create ~seed:101 in
  let empty = Builders.gnp prng ~n:20 ~p:0.0 in
  check Alcotest.int "p=0 edges" 0 (List.length (Graph.edges empty));
  let full = Builders.gnp prng ~n:20 ~p:1.0 in
  check Alcotest.int "p=1 edges" 190 (List.length (Graph.edges full))

let prop_gnp_valid =
  QCheck.Test.make ~name:"gnp: simple symmetric graph" ~count:50
    QCheck.(pair (Bounded.int_range 1 30) (int_range 0 100))
    (fun (n, pct) ->
      let prng = Prng.create ~seed:(n + (pct * 31)) in
      let g = Builders.gnp prng ~n ~p:(float_of_int pct /. 100.0) in
      Graph.fold_edges
        (fun u v acc -> acc && u < v && Array.mem u (Graph.neighbours g v) && u <> v)
        g true)

(* --- dot ----------------------------------------------------------- *)

(* The DOT text [Dot.write_file] writes for [g]. *)
let dot ?labels ?colors g =
  let path = Filename.temp_file "asyncolor" ".dot" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Dot.write_file path ?labels ?colors g;
      In_channel.with_open_text path In_channel.input_all)

let test_dot_contains_edges () =
  let s = dot (Builders.cycle 3) in
  check Alcotest.bool "has edge 0--1" true
    (Astring.String.is_infix ~affix:"0 -- 1" s);
  check Alcotest.bool "has graph header" true
    (Astring.String.is_prefix ~affix:"graph" s)

let test_dot_colors () =
  let s = dot ~colors:(fun v -> if v = 0 then Some 0 else None) (Builders.cycle 3) in
  check Alcotest.bool "fill for node 0" true
    (Astring.String.is_infix ~affix:"fillcolor=\"#e6194b\"" s)

let test_dot_labels () =
  check Alcotest.string "whole file"
    "graph asyncolor {\n  node [style=filled];\n  0 [label=\"a\"];\n  1 [label=\"b\"];\n  0 -- 1;\n}\n"
    (dot ~labels:(fun v -> if v = 0 then "a" else "b") (Builders.path 2))

let () =
  Alcotest.run "topology"
    [
      ( "graph",
        [
          Alcotest.test_case "make basic" `Quick test_make_basic;
          Alcotest.test_case "dedup" `Quick test_make_dedup;
          Alcotest.test_case "reject self-loop" `Quick test_make_rejects_self_loop;
          Alcotest.test_case "reject out-of-range" `Quick test_make_rejects_out_of_range;
          Alcotest.test_case "empty graph" `Quick test_empty_graph;
          Alcotest.test_case "edges canonical" `Quick test_edges_canonical;
          Alcotest.test_case "fold_edges" `Quick test_fold_edges;
          qtest prop_views_agree;
          Alcotest.test_case "automorphism counts" `Quick test_automorphism_counts;
          qtest prop_automorphisms_preserve_edges;
        ] );
      ( "builders",
        [
          Alcotest.test_case "connectivity" `Quick test_connectivity;
          Alcotest.test_case "cycle" `Quick test_cycle;
          Alcotest.test_case "path" `Quick test_path;
          Alcotest.test_case "complete" `Quick test_complete;
          Alcotest.test_case "star" `Quick test_star;
          Alcotest.test_case "grid" `Quick test_grid;
          Alcotest.test_case "torus" `Quick test_torus;
          Alcotest.test_case "petersen" `Quick test_petersen;
          Alcotest.test_case "hypercube" `Quick test_hypercube;
          Alcotest.test_case "random regular" `Quick test_random_regular;
          Alcotest.test_case "gnp extremes" `Quick test_gnp;
          qtest prop_gnp_valid;
        ] );
      ( "dot",
        [
          Alcotest.test_case "edges rendered" `Quick test_dot_contains_edges;
          Alcotest.test_case "colors rendered" `Quick test_dot_colors;
          Alcotest.test_case "labels rendered" `Quick test_dot_labels;
        ] );
    ]
