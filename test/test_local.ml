(* Tests for the synchronous LOCAL-model baseline: Cole-Vishkin 3-colouring
   of the oriented ring. *)

module Cv = Asyncolor_local.Cole_vishkin_ring
module Idents = Asyncolor_workload.Idents
module Prng = Asyncolor_util.Prng

let check = Alcotest.check
let qtest t = QCheck_alcotest.to_alcotest t

let test_is_proper_ring () =
  check Alcotest.bool "proper" true (Cv.is_proper_ring [| 0; 1; 2 |]);
  check Alcotest.bool "adjacent equal" false (Cv.is_proper_ring [| 0; 0; 1 |]);
  check Alcotest.bool "wrap equal" false (Cv.is_proper_ring [| 0; 1; 0 |]);
  check Alcotest.bool "single node self-adjacent" false (Cv.is_proper_ring [| 7 |])

let test_three_color_small () =
  let r = Cv.three_color [| 5; 1; 9 |] in
  check Alcotest.bool "proper" true (Cv.is_proper_ring r.colors);
  check Alcotest.bool "3 colours" true (Array.for_all (fun c -> c <= 2) r.colors);
  check Alcotest.int "rounds accounted" r.rounds (r.cv_iterations + 3)

let test_three_color_rejects () =
  Alcotest.check_raises "n<3"
    (Invalid_argument "Cole_vishkin_ring.three_color: need n >= 3") (fun () ->
      ignore (Cv.three_color [| 1; 2 |]));
  Alcotest.check_raises "improper input"
    (Invalid_argument
       "Cole_vishkin_ring.three_color: identifiers must properly colour the ring")
    (fun () -> ignore (Cv.three_color [| 1; 1; 2 |]));
  Alcotest.check_raises "negative identifier"
    (Invalid_argument "Cole_vishkin_ring.cv_step: negative colour")
    (fun () -> ignore (Cv.three_color [| -1; 20; 30 |]))

let test_logstar_growth () =
  (* rounds grow like log* n: going from n=16 to n=2^16 adds only a few *)
  let r16 = Cv.three_color (Idents.increasing 16) in
  let r64k = Cv.three_color (Idents.increasing 65536) in
  check Alcotest.bool "slow growth" true (r64k.rounds - r16.rounds <= 5)

let prop_three_color_correct =
  QCheck.Test.make ~name:"three_color: proper 3-colouring in log*n+O(1) rounds"
    ~count:100
    QCheck.(pair (Bounded.int_range 3 3000) (int_range 0 10_000))
    (fun (n, seed) ->
      let idents =
        Idents.random_sparse (Prng.create ~seed) ~n ~universe:(max 64 (4 * n))
      in
      let r = Cv.three_color idents in
      Cv.is_proper_ring r.colors
      && Array.for_all (fun c -> c >= 0 && c <= 2) r.colors
      && r.cv_iterations <= Cv.rounds_upper_bound n)

(* Coin tossing needs a proper colouring, not distinct values. *)
let test_three_color_repeated_colours () =
  List.iter
    (fun input -> check Alcotest.bool "proper" true (Cv.is_proper_ring (Cv.three_color input).colors))
    [ [| 0; 1; 0; 1 |]; [| 7; 3; 7; 3; 9 |]; [| 1 lsl 40; 0; 1 lsl 40; 5; 6; 0 |] ]

(* Every node applies one rule to its colour and its successor's. *)
let prop_three_color_rotation =
  QCheck.Test.make ~name:"three_color commutes with rotation" ~count:100
    QCheck.(triple (Bounded.int_range 3 200) (int_range 0 10_000) (int_range 0 199))
    (fun (n, seed, shift) ->
      let idents = Idents.random_sparse (Prng.create ~seed) ~n ~universe:(8 * n) in
      let rot a = Array.init n (fun i -> a.((i + shift) mod n)) in
      let r = Cv.three_color idents and r' = Cv.three_color (rot idents) in
      r'.colors = rot r.colors && r'.rounds = r.rounds)

(* --- DECOUPLED ring --------------------------------------------------- *)

module D = Asyncolor_local.Decoupled_ring
module Adversary = Asyncolor_kernel.Adversary

let test_decoupled_rounds_needed () =
  (* K derives from the universe alone; +3 reduction rounds *)
  check Alcotest.bool "small universe small K" true (D.rounds_needed ~universe:8 <= 5);
  check Alcotest.bool "huge universe still tiny" true
    (D.rounds_needed ~universe:(1 lsl 60) <= 9)

let test_decoupled_c3_three_colors () =
  let d = D.create ~idents:[| 5; 1; 9 |] ~universe:16 in
  let outs, rounds = D.run Adversary.synchronous d in
  check Alcotest.bool "proper" true (D.is_proper_partial outs);
  let colours = List.sort compare (List.filter_map Fun.id (Array.to_list outs)) in
  check Alcotest.(list int) "exactly {0,1,2}" [ 0; 1; 2 ] colours;
  check Alcotest.bool "few rounds" true (rounds <= D.rounds_needed ~universe:16 + 1)

(* Outputs wait for the network's rounds, not for activations. *)
let test_decoupled_waiting_before_radius () =
  let run ?horizon adv = D.run ?horizon adv (D.create ~idents:[| 3; 7; 1; 9 |] ~universe:16) in
  let needed = D.rounds_needed ~universe:16 in
  let early, _ = run ~horizon:(needed - 1) Adversary.synchronous in
  check Alcotest.(array (option int)) "too early: no output" (Array.make 4 None) early;
  let prompt, rounds = run Adversary.synchronous in
  check Alcotest.int "everyone outputs at the radius" needed rounds;
  let late = Adversary.make ~name:"late" (fun ~time ~unfinished ->
      if time < 3 * needed then Some [] else Some unfinished) in
  check Alcotest.(pair (array (option int)) int) "a late wake-up outputs at once, the same"
    (prompt, 3 * needed) (run late)

let test_decoupled_crash_tolerance () =
  (* crashed processes never compute, but their identifiers propagate:
     survivors 3-colour properly around the holes *)
  let n = 64 in
  let idents = Idents.random_permutation (Prng.create ~seed:9) n in
  let d = D.create ~idents ~universe:n in
  let adv = Adversary.crash ~at:1 ~procs:[ 0; 13; 14; 40 ] Adversary.synchronous in
  let outs, _ = D.run adv d in
  check Alcotest.(option int) "p13 crashed" None outs.(13);
  check Alcotest.bool "survivors coloured" true (outs.(1) <> None && outs.(41) <> None);
  check Alcotest.bool "proper" true (D.is_proper_partial outs)

let test_decoupled_rejects_bad_input () =
  Alcotest.check_raises "n<3" (Invalid_argument "Decoupled_ring.create: need n >= 3")
    (fun () -> ignore (D.create ~idents:[| 1; 2 |] ~universe:8));
  Alcotest.check_raises "dup ids"
    (Invalid_argument "Decoupled_ring.create: identifiers must be distinct") (fun () ->
      ignore (D.create ~idents:[| 1; 1; 2 |] ~universe:8));
  Alcotest.check_raises "outside universe"
    (Invalid_argument "Decoupled_ring.create: identifier outside the universe")
    (fun () -> ignore (D.create ~idents:[| 1; 2; 99 |] ~universe:8))

let prop_decoupled_consistency =
  (* all processes replay the same virtual execution: under ANY schedule
     the outputs form one proper 3-colouring, independent of who computes
     when *)
  QCheck.Test.make ~name:"DECOUPLED: schedule-independent proper 3-colouring"
    ~count:100
    QCheck.(pair (Bounded.int_range 3 64) (int_range 0 10_000))
    (fun (n, seed) ->
      let prng = Prng.create ~seed in
      let universe = max 8 (4 * n) in
      let idents = Idents.random_sparse (Prng.split prng) ~n ~universe in
      (* horizon long enough for the one-process-per-round schedule *)
      let horizon = D.rounds_needed ~universe + (4 * n) + 8 in
      let d1 = D.create ~idents ~universe in
      let outs1, _ =
        D.run ~horizon (Adversary.random_subsets (Prng.split prng) ~p:0.4) d1
      in
      let d2 = D.create ~idents ~universe in
      let outs2, _ = D.run ~horizon Adversary.sequential d2 in
      D.is_proper_partial outs1
      && Array.for_all (function Some c -> c <= 2 | None -> false) outs1
      && outs1 = outs2)

(* --- Linial ------------------------------------------------------------ *)

module L = Asyncolor_local.Linial
module Builders = Asyncolor_topology.Builders
module Graph = Asyncolor_topology.Graph

let test_palette_bound () =
  check Alcotest.(list int) "next prime above 2Δ, squared" [ 9; 9; 25; 49; 121; 7921; 9409 ]
    (List.map (fun max_degree -> L.palette_bound ~max_degree) [ 0; 1; 2; 3; 4; 44; 45 ])

let test_color_reduce_step () =
  let g = Builders.cycle 6 in
  let r = L.color g ~idents:[| 0; 10; 20; 30; 40; 50 |] in
  check Alcotest.bool "proper, shrunk, within its palette" true
    (L.is_proper g r.colors && r.rounds >= 1 && r.final_palette <= L.palette_bound ~max_degree:2
    && Array.for_all (fun c -> c >= 0 && c < r.final_palette) r.colors)

let test_color_rejects_bad_identifiers () =
  List.iter
    (fun (msg, idents) ->
      Alcotest.check_raises msg (Invalid_argument ("Linial.color: " ^ msg)) (fun () ->
          ignore (L.color (Builders.cycle 3) ~idents)))
    [ ("size mismatch", [| 1; 2 |]); ("negative identifier", [| 1; -2; 3 |]);
      ("identifiers must be distinct", [| 1; 1; 2 |]) ]

let test_color_stall_bound () =
  List.iter
    (fun g ->
      let n = Graph.n g in
      let idents =
        Array.map (fun x -> (x * 104729) + x) (Idents.random_permutation (Prng.create ~seed:n) n)
      in
      let r = L.color g ~idents in
      check Alcotest.bool "proper" true (L.is_proper g r.colors);
      check Alcotest.bool "within palette bound" true
        (r.final_palette <= L.palette_bound ~max_degree:(Graph.max_degree g));
      check Alcotest.bool "few rounds (log*)" true (r.rounds <= 6))
    [ Builders.cycle 128; Builders.petersen (); Builders.grid 7 7; Builders.hypercube 5 ]

let test_color_delta_plus_one () =
  let g = Builders.petersen () in
  let idents = Idents.random_permutation (Prng.create ~seed:4) 10 in
  let r = L.color_delta_plus_one g ~idents in
  check Alcotest.int "Δ+1 colours" 4 r.final_palette;
  check Alcotest.bool "proper" true (L.is_proper g r.colors);
  Array.iter (fun c -> check Alcotest.bool "all < 4" true (c < 4)) r.colors

let prop_linial_random_graphs =
  QCheck.Test.make ~name:"Linial: proper within bound on random graphs" ~count:60
    QCheck.(pair (Bounded.int_range 4 40) (int_range 0 10_000))
    (fun (n, seed) ->
      let prng = Prng.create ~seed in
      let g = Asyncolor_topology.Builders.gnp (Prng.split prng) ~n ~p:0.2 in
      let idents = Idents.random_permutation (Prng.split prng) n in
      let r = L.color g ~idents in
      let full = L.color_delta_plus_one g ~idents in
      L.is_proper g r.colors
      && r.final_palette <= L.palette_bound ~max_degree:(Graph.max_degree g)
      && L.is_proper g full.colors
      && full.final_palette = Graph.max_degree g + 1)

let () =
  Alcotest.run "local"
    [
      ( "linial",
        [
          Alcotest.test_case "palette bound" `Quick test_palette_bound;
          Alcotest.test_case "reduce step" `Quick test_color_reduce_step;
          Alcotest.test_case "rejects bad identifiers" `Quick test_color_rejects_bad_identifiers;
          Alcotest.test_case "stall bound" `Quick test_color_stall_bound;
          Alcotest.test_case "Δ+1 pipeline" `Quick test_color_delta_plus_one;
          qtest prop_linial_random_graphs;
        ] );
      ( "decoupled",
        [
          Alcotest.test_case "rounds needed" `Quick test_decoupled_rounds_needed;
          Alcotest.test_case "C3 three colours" `Quick test_decoupled_c3_three_colors;
          Alcotest.test_case "waits on network only" `Quick test_decoupled_waiting_before_radius;
          Alcotest.test_case "crash tolerance" `Quick test_decoupled_crash_tolerance;
          Alcotest.test_case "input validation" `Quick test_decoupled_rejects_bad_input;
          qtest prop_decoupled_consistency;
        ] );
      ( "cole-vishkin",
        [
          Alcotest.test_case "is_proper_ring" `Quick test_is_proper_ring;
          Alcotest.test_case "three_color small" `Quick test_three_color_small;
          Alcotest.test_case "three_color rejects" `Quick test_three_color_rejects;
          Alcotest.test_case "log* growth" `Quick test_logstar_growth;
          qtest prop_three_color_correct;
          Alcotest.test_case "repeated colours" `Quick test_three_color_repeated_colours;
          qtest prop_three_color_rotation;
        ] );
    ]
