(* Tests for Algorithm 4 (O(Δ²)-colouring of general graphs, Appendix A). *)

module A4 = Asyncolor.Algorithm4
module Checker = Asyncolor.Checker
module Adversary = Asyncolor_kernel.Adversary
module Graph = Asyncolor_topology.Graph
module Builders = Asyncolor_topology.Builders
module Idents = Asyncolor_workload.Idents
module Prng = Asyncolor_util.Prng

let check = Alcotest.check
let qtest t = QCheck_alcotest.to_alcotest t

let validate graph outputs =
  Checker.check
    ~equal:(fun a b -> a = b)
    ~in_palette:(A4.in_palette ~max_degree:(Graph.max_degree graph))
    graph outputs

let run_and_validate ?(seed = 1) graph =
  let n = Graph.n graph in
  let prng = Prng.create ~seed in
  let idents = Idents.random_permutation (Prng.split prng) n in
  let r = A4.run graph ~idents (Adversary.random_subsets (Prng.split prng) ~p:0.5) in
  (r, validate graph r.outputs)

let test_palette_size () =
  check Alcotest.int "Δ=2" 6 (A4.palette_size ~max_degree:2);
  check Alcotest.int "Δ=3" 10 (A4.palette_size ~max_degree:3);
  check Alcotest.int "Δ=8" 45 (A4.palette_size ~max_degree:8)

let test_in_palette () =
  check Alcotest.bool "in" true (A4.in_palette ~max_degree:3 (1, 2));
  check Alcotest.bool "boundary" true (A4.in_palette ~max_degree:3 (0, 3));
  check Alcotest.bool "out" false (A4.in_palette ~max_degree:3 (2, 2));
  check Alcotest.bool "negative" false (A4.in_palette ~max_degree:3 (-1, 0))

let test_zoo () =
  List.iter
    (fun (name, graph) ->
      let r, v = run_and_validate graph in
      if not (r.all_returned && Checker.ok v) then
        Alcotest.failf "%s failed: returned=%b proper=%b" name r.all_returned v.proper)
    [
      ("petersen", Builders.petersen ());
      ("grid 5x5", Builders.grid 5 5);
      ("torus 4x4", Builders.torus 4 4);
      ("K6", Builders.complete 6);
      ("star 10", Builders.star 10);
      ("path 9", Builders.path 9);
      ("hypercube 4", Builders.hypercube 4);
    ]

let test_clique_is_renaming () =
  (* On K_n every pair must differ: the colouring is a renaming with
     (n)(n+1)/2 potential names. *)
  let g = Builders.complete 5 in
  let r, v = run_and_validate ~seed:3 g in
  check Alcotest.bool "all returned" true r.all_returned;
  check Alcotest.int "all distinct" 5 v.distinct_colors

let test_star_two_rounds () =
  (* On a star, every leaf is a local extremum vs the centre: decisions are
     almost immediate under the synchronous schedule. *)
  let g = Builders.star 12 in
  let idents = Idents.random_permutation (Prng.create ~seed:5) 12 in
  let r = A4.run g ~idents Adversary.synchronous in
  check Alcotest.bool "fast" true (r.rounds <= 4);
  check Alcotest.bool "proper" true (Checker.ok (validate g r.outputs))

let test_crashes_on_graph () =
  let g = Builders.grid 4 4 in
  let idents = Idents.random_permutation (Prng.create ~seed:7) 16 in
  let adv =
    Adversary.random_crashes (Prng.create ~seed:8) ~n:16 ~rate:0.4 ~horizon:6
      Adversary.synchronous
  in
  let r = A4.run g ~idents adv in
  check Alcotest.bool "safe under crashes" true (Checker.ok (validate g r.outputs))

let prop_gnp_random =
  QCheck.Test.make ~name:"random G(n,p): proper, palette, terminates" ~count:80
    QCheck.(triple (Bounded.int_range 2 30) (int_range 0 100) (int_range 0 1000))
    (fun (n, pct, seed) ->
      let prng = Prng.create ~seed in
      let graph = Builders.gnp (Prng.split prng) ~n ~p:(float_of_int pct /. 100.0) in
      let idents = Idents.random_permutation (Prng.split prng) n in
      let r = A4.run graph ~idents (Adversary.singletons (Prng.split prng)) in
      let v = validate graph r.outputs in
      r.all_returned && Checker.ok v)

let prop_regular_random =
  QCheck.Test.make ~name:"random d-regular: proper within palette" ~count:40
    QCheck.(pair (Bounded.int_range 2 5) (int_range 0 1000))
    (fun (d, seed) ->
      let n = 4 * (d + 2) in
      let prng = Prng.create ~seed in
      let graph = Builders.random_regular (Prng.split prng) ~n ~d in
      let idents = Idents.random_permutation (Prng.split prng) n in
      let r = A4.run graph ~idents (Adversary.random_subsets (Prng.split prng) ~p:0.4) in
      let v = validate graph r.outputs in
      r.all_returned && Checker.ok v)

let () =
  Alcotest.run "algorithm4"
    [
      ( "palette",
        [
          Alcotest.test_case "size" `Quick test_palette_size;
          Alcotest.test_case "membership" `Quick test_in_palette;
        ] );
      ( "topologies",
        [
          Alcotest.test_case "zoo" `Quick test_zoo;
          Alcotest.test_case "clique = renaming" `Quick test_clique_is_renaming;
          Alcotest.test_case "star is fast" `Quick test_star_two_rounds;
          Alcotest.test_case "crashes" `Quick test_crashes_on_graph;
          qtest prop_gnp_random;
          qtest prop_regular_random;
        ] );
    ]
