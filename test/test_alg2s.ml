(* Tests for Algorithm 2S — the candidate F1 repair studied by E17:
   safety always; wait-freedom on the instances where E17 verified it,
   and the C4-monotone refutation pinned as a regression. *)

module A2s = Asyncolor.Algorithm2s
module Checker = Asyncolor.Checker
module Adversary = Asyncolor_kernel.Adversary
module Builders = Asyncolor_topology.Builders
module Idents = Asyncolor_workload.Idents
module Prng = Asyncolor_util.Prng
module Explorer = Asyncolor_check.Explorer.Make (A2s.P)

let check = Alcotest.check
let qtest t = QCheck_alcotest.to_alcotest t

let validate n outputs =
  Checker.check ~equal:Int.equal ~in_palette:A2s.in_palette (Builders.cycle n) outputs

let test_palette_constant () =
  check Alcotest.bool "6 in" true (A2s.in_palette 6);
  check Alcotest.bool "7 out" false (A2s.in_palette 7)

let test_exhaustive_full_model_c3 () =
  List.iter
    (fun idents ->
      let g = Builders.cycle 3 in
      let r = Explorer.explore g ~idents in
      check Alcotest.bool "complete" true r.complete;
      check Alcotest.bool "wait-free over ALL schedules" true r.wait_free)
    [ [| 5; 1; 9 |]; [| 0; 1; 2 |]; [| 2; 0; 1 |] ]

let test_c4_monotone_refutation () =
  (* the E17 refutation: both middles have rank 1, symmetry survives *)
  let r = Explorer.explore (Builders.cycle 4) ~idents:[| 0; 1; 2; 3 |] in
  check Alcotest.bool "complete" true r.complete;
  check Alcotest.bool "NOT wait-free (repair refuted)" false r.wait_free;
  match r.livelock with
  | None -> Alcotest.fail "lasso expected"
  | Some v -> check Alcotest.bool "non-trivial lasso" true (List.length v.schedule > 3)

let prop_safety_always =
  (* whatever happens to liveness, outputs are always safe *)
  QCheck.Test.make ~name:"alg2s: proper within {0..6} on every run" ~count:200
    QCheck.(pair (Bounded.int_range 3 32) (int_range 0 10_000))
    (fun (n, seed) ->
      let prng = Prng.create ~seed in
      let idents = Idents.random_permutation (Prng.split prng) n in
      let r =
        A2s.run_on_cycle ~max_steps:20_000 ~idents
          (Adversary.random_subsets (Prng.split prng) ~p:0.5)
      in
      Checker.ok (validate n r.outputs))

let prop_interleaved_terminates =
  QCheck.Test.make ~name:"alg2s: terminates under singleton schedules" ~count:150
    QCheck.(pair (Bounded.int_range 3 24) (int_range 0 10_000))
    (fun (n, seed) ->
      let prng = Prng.create ~seed in
      let idents = Idents.random_permutation (Prng.split prng) n in
      let r = A2s.run_on_cycle ~idents (Adversary.singletons (Prng.split prng)) in
      r.all_returned && Checker.ok (validate n r.outputs))

let test_kill_shrinks_attack_surface () =
  (* a random instance where plain Algorithm 2 has lockable pairs and 2S
     has none (pinned from the E17 table, n=32 seed path) *)
  let module H2 = Asyncolor_check.Lockhunt.Make (Asyncolor.Algorithm2.P) in
  let module Hs = Asyncolor_check.Lockhunt.Make (A2s.P) in
  let g = Builders.cycle 32 in
  let idents = Idents.random_permutation (Prng.create ~seed:33) 32 in
  let l2 = List.length (H2.locked (H2.hunt g ~idents)) in
  let ls = List.length (Hs.locked (Hs.hunt g ~idents)) in
  check Alcotest.bool "alg2 lockable" true (l2 > 0);
  check Alcotest.int "alg2s not lockable by the pair attack" 0 ls

let () =
  Alcotest.run "algorithm2s"
    [
      ( "repair study",
        [
          Alcotest.test_case "palette" `Quick test_palette_constant;
          Alcotest.test_case "exhaustive full model C3" `Slow
            test_exhaustive_full_model_c3;
          Alcotest.test_case "C4 monotone refutation" `Slow test_c4_monotone_refutation;
          Alcotest.test_case "pair attack surface" `Quick
            test_kill_shrinks_attack_surface;
          qtest prop_safety_always;
          qtest prop_interleaved_terminates;
        ] );
    ]
