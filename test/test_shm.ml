(* Tests for the shared-memory substrate: rank-based renaming, the SSB
   task, the MIS foils, and the MIS→SSB reduction of Property 2.1. *)

module Renaming = Asyncolor_shm.Renaming
module Ssb = Asyncolor_shm.Ssb
module Mis = Asyncolor_shm.Mis
module Reduction = Asyncolor_shm.Reduction
module Adversary = Asyncolor_kernel.Adversary
module Builders = Asyncolor_topology.Builders
module Prng = Asyncolor_util.Prng
module Mex = Asyncolor_util.Mex
module Idents = Asyncolor_workload.Idents

let check = Alcotest.check
let qtest t = QCheck_alcotest.to_alcotest t

(* --- kth_free ---------------------------------------------------------- *)

let test_kth_free_cases () =
  check Alcotest.int "1st free of []" 0 (Mex.kth_free 1 []);
  check Alcotest.int "3rd free of []" 2 (Mex.kth_free 3 []);
  check Alcotest.int "1st free of [0]" 1 (Mex.kth_free 1 [ 0 ]);
  check Alcotest.int "2nd free of [0;2]" 3 (Mex.kth_free 2 [ 0; 2 ]);
  check Alcotest.int "dups ignored" 1 (Mex.kth_free 1 [ 0; 0; 0 ]);
  check Alcotest.int "unsorted input" 4 (Mex.kth_free 2 [ 3; 0; 1 ]);
  Alcotest.check_raises "k=0" (Invalid_argument "Mex.kth_free: k must be >= 1")
    (fun () -> ignore (Mex.kth_free 0 []))

let prop_kth_free_naive =
  QCheck.Test.make ~name:"kth_free agrees with naive enumeration"
    QCheck.(pair (int_range 1 10) (list_of_size (Gen.int_range 0 12) (int_range 0 15)))
    (fun (k, taken) ->
      let naive =
        let rec collect acc candidate =
          if List.length acc = k then List.rev acc
          else if List.mem candidate taken then collect acc (candidate + 1)
          else collect (candidate :: acc) (candidate + 1)
        in
        List.nth (collect [] 0) (k - 1)
      in
      Mex.kth_free k taken = naive)

(* --- renaming ---------------------------------------------------------- *)

let distinct_names outputs =
  let names = Array.to_list outputs |> List.filter_map Fun.id in
  List.length (List.sort_uniq compare names) = List.length names

let test_renaming_sequential () =
  let r = Renaming.run ~n:3 ~idents:[| 41; 7; 23 |] Adversary.sequential in
  check Alcotest.bool "all returned" true r.all_returned;
  check Alcotest.bool "distinct" true (distinct_names r.outputs);
  Array.iter
    (function
      | Some v -> check Alcotest.bool "within 2n-1 names" true (v >= 0 && v <= 4)
      | None -> Alcotest.fail "missing output")
    r.outputs

let test_renaming_synchronous_contention () =
  (* Everyone proposes 0 at once; ranks resolve the pile-up. *)
  let r = Renaming.run ~n:5 ~idents:[| 9; 3; 7; 1; 5 |] Adversary.synchronous in
  check Alcotest.bool "all returned" true r.all_returned;
  check Alcotest.bool "distinct" true (distinct_names r.outputs)

let test_renaming_crash_safe () =
  let adv = Adversary.crash ~at:2 ~procs:[ 0 ] Adversary.synchronous in
  let r = Renaming.run ~n:4 ~idents:[| 8; 2; 6; 4 |] adv in
  check Alcotest.bool "survivors named" true
    (Array.for_all Option.is_some [| r.outputs.(1); r.outputs.(2); r.outputs.(3) |]);
  check Alcotest.bool "distinct among returned" true (distinct_names r.outputs)

let prop_renaming_correct =
  QCheck.Test.make ~name:"renaming: distinct names within 2n-1, wait-free"
    ~count:200
    QCheck.(pair (Bounded.int_range 2 8) (int_range 0 10_000))
    (fun (n, seed) ->
      let prng = Prng.create ~seed in
      let ids = Idents.random_sparse (Prng.split prng) ~n ~universe:1000 in
      let r =
        Renaming.run ~n ~idents:ids (Adversary.random_subsets (Prng.split prng) ~p:0.5)
      in
      r.all_returned && distinct_names r.outputs
      && Array.for_all
           (function Some v -> v >= 0 && v <= Renaming.name_bound n | None -> false)
           r.outputs)

let test_name_bound () =
  check Alcotest.int "n=3" 4 (Renaming.name_bound 3);
  check Alcotest.int "n=8" 14 (Renaming.name_bound 8)

(* --- SSB --------------------------------------------------------------- *)

let test_ssb_validators () =
  check Alcotest.bool "valid mixed" true (Ssb.valid [| Some 0; Some 1; Some 1 |]);
  check Alcotest.bool "all ones violates (1)" false (Ssb.valid [| Some 1; Some 1 |]);
  check Alcotest.bool "all zeros violates (2)" false (Ssb.valid [| Some 0; Some 0 |]);
  check Alcotest.bool "partial with a one" true (Ssb.valid [| Some 1; None |]);
  check Alcotest.bool "partial all zeros violates (2)" false
    (Ssb.valid [| Some 0; None |]);
  check Alcotest.bool "nobody terminated: vacuous" true (Ssb.valid [| None; None |])

let test_ssb_pp () =
  check Alcotest.string "bits and ⊥ for the unterminated" "[0;⊥;1]"
    (Format.asprintf "%a" Ssb.pp [| Some 0; None; Some 1 |]);
  check Alcotest.string "nobody" "[]" (Format.asprintf "%a" Ssb.pp [||])

(* --- MIS --------------------------------------------------------------- *)

let g5 = Builders.cycle 5

let test_mis_validators () =
  let ok = [| Some true; Some false; Some true; Some false; Some false |] in
  check Alcotest.bool "valid MIS" true (Mis.valid g5 ok);
  let adjacent_ones = [| Some true; Some true; Some false; Some false; Some false |] in
  check Alcotest.bool "independence violated" false (Mis.valid g5 adjacent_ones);
  let lonely_zero = [| Some false; None; None; None; None |] in
  check Alcotest.bool "domination violated" false (Mis.valid g5 lonely_zero);
  check Alcotest.bool "empty outcome valid" true (Mis.valid g5 (Array.make 5 None))

let test_greedy_wait_free_but_wrong () =
  (* ascending wake-up order produces two adjacent Ins on any cycle *)
  let module E = Mis.Greedy.E in
  let e = E.create g5 ~idents:(Idents.increasing 5) in
  let r = E.run e (Adversary.finite [ [ 0 ]; [ 1 ]; [ 2 ]; [ 3 ]; [ 4 ] ]) in
  check Alcotest.bool "everyone decided in one step" true r.all_returned;
  check Alcotest.bool "MIS violated" false (Mis.valid g5 r.outputs)

let test_greedy_ok_synchronous () =
  let module E = Mis.Greedy.E in
  let e = E.create g5 ~idents:[| 4; 1; 3; 0; 2 |] in
  let r = E.run e Adversary.synchronous in
  check Alcotest.bool "returned" true r.all_returned
  (* note: greedy CAN be correct on lucky schedules; no validity assertion *)

let test_cautious_correct_when_fair () =
  List.iter
    (fun seed ->
      let n = 3 + (seed mod 6) in
      let g = Builders.cycle n in
      let module E = Mis.Cautious.E in
      let idents = Idents.random_permutation (Prng.create ~seed) n in
      let e = E.create g ~idents in
      let r = E.run ~max_steps:10_000 e Adversary.synchronous in
      check Alcotest.bool "terminates under fairness" true r.all_returned;
      check Alcotest.bool "valid MIS" true (Mis.valid g r.outputs))
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]

let test_cautious_blocks_on_crash () =
  (* crash the global max before it wakes: lower neighbours wait forever *)
  let module E = Mis.Cautious.E in
  let e = E.create (Builders.cycle 3) ~idents:[| 0; 1; 2 |] in
  let r =
    E.run ~max_steps:1_000 e (Adversary.crash ~at:1 ~procs:[ 2 ] Adversary.synchronous)
  in
  check Alcotest.bool "blocked" false r.all_returned

(* --- reduction --------------------------------------------------------- *)

module Red = Reduction.Make (Mis.Greedy.P)

let test_reduction_matches_direct_cycle_run () =
  (* The shared-memory simulation must behave exactly like the cycle
     protocol under the corresponding schedule. *)
  let schedules =
    [
      [ [ 0 ]; [ 1 ]; [ 2 ] ];
      [ [ 2 ]; [ 1 ]; [ 0 ] ];
      [ [ 0; 1; 2 ] ];
      [ [ 1 ]; [ 0; 2 ] ];
    ]
  in
  List.iter
    (fun sched ->
      let direct =
        let module E = Mis.Greedy.E in
        let e = E.create (Builders.cycle 3) ~idents:[| 0; 1; 2 |] in
        E.run e (Adversary.finite sched)
      in
      let simulated = Red.run ~n:3 (Adversary.finite sched) in
      let direct_bits = Array.map (Option.map (fun b -> if b then 1 else 0)) direct.outputs in
      check
        Alcotest.(array (option int))
        "simulation = direct execution" direct_bits simulated.outputs)
    schedules

let test_reduction_transports_violation () =
  let r = Red.run ~n:3 (Adversary.finite [ [ 0 ]; [ 1 ]; [ 2 ] ]) in
  let as_bool = Array.map (Option.map (fun b -> b = 1)) r.outputs in
  check Alcotest.bool "MIS violated through the simulation" false
    (Mis.valid (Builders.cycle 3) as_bool)

let test_reduction_rejects_small_n () =
  Alcotest.check_raises "n=2" (Invalid_argument "Reduction.run: need n >= 3")
    (fun () -> ignore (Red.run ~n:2 Adversary.synchronous))

let prop_reduction_equivalence =
  QCheck.Test.make ~name:"reduction = direct cycle run (random schedules)" ~count:100
    QCheck.(pair (Bounded.int_range 3 6) (int_range 0 10_000))
    (fun (n, seed) ->
      let prng = Prng.create ~seed in
      (* one shared random schedule, replayed against both systems *)
      let sched =
        List.init 30 (fun _ ->
            List.filter (fun _ -> Prng.bool prng) (List.init n Fun.id))
        |> List.filter (fun s -> s <> [])
      in
      let direct =
        let module E = Mis.Greedy.E in
        let e = E.create (Builders.cycle n) ~idents:(Array.init n Fun.id) in
        E.run e (Adversary.finite sched)
      in
      let simulated = Red.run ~n (Adversary.finite sched) in
      let direct_bits =
        Array.map (Option.map (fun b -> if b then 1 else 0)) direct.outputs
      in
      direct_bits = simulated.outputs)

let () =
  Alcotest.run "shm"
    [
      ( "kth_free",
        [
          Alcotest.test_case "cases" `Quick test_kth_free_cases;
          qtest prop_kth_free_naive;
        ] );
      ( "renaming",
        [
          Alcotest.test_case "sequential" `Quick test_renaming_sequential;
          Alcotest.test_case "synchronous contention" `Quick
            test_renaming_synchronous_contention;
          Alcotest.test_case "crash safe" `Quick test_renaming_crash_safe;
          Alcotest.test_case "name bound" `Quick test_name_bound;
          qtest prop_renaming_correct;
        ] );
      ( "ssb",
        [
          Alcotest.test_case "validators" `Quick test_ssb_validators;
          Alcotest.test_case "pp" `Quick test_ssb_pp;
        ] );
      ( "mis",
        [
          Alcotest.test_case "validators" `Quick test_mis_validators;
          Alcotest.test_case "greedy: wait-free but wrong" `Quick
            test_greedy_wait_free_but_wrong;
          Alcotest.test_case "greedy: synchronous run" `Quick test_greedy_ok_synchronous;
          Alcotest.test_case "cautious: correct when fair" `Quick
            test_cautious_correct_when_fair;
          Alcotest.test_case "cautious: blocks on crash" `Quick
            test_cautious_blocks_on_crash;
        ] );
      ( "reduction",
        [
          Alcotest.test_case "matches direct run" `Quick
            test_reduction_matches_direct_cycle_run;
          Alcotest.test_case "transports violation" `Quick
            test_reduction_transports_violation;
          Alcotest.test_case "rejects n<3" `Quick test_reduction_rejects_small_n;
          qtest prop_reduction_equivalence;
        ] );
    ]
