(* Tests for Algorithm 1 (wait-free 6-colouring of the cycle, paper §3.1):
   unit scenarios pinned to the lemmas, property-based sweeps of
   Theorem 3.1, and exhaustive model checking on tiny cycles. *)

module A1 = Asyncolor.Algorithm1
module Color = Asyncolor.Color
module Checker = Asyncolor.Checker
module Status = Asyncolor_kernel.Status
module Adversary = Asyncolor_kernel.Adversary
module Builders = Asyncolor_topology.Builders
module Idents = Asyncolor_workload.Idents
module Prng = Asyncolor_util.Prng
module Explorer = Asyncolor_check.Explorer.Make (A1.P)

let check = Alcotest.check
let qtest t = QCheck_alcotest.to_alcotest t
let pair = Alcotest.(pair int int)

let validate ?(budget = 2) n outputs =
  Checker.check
    ~equal:(fun a b -> a = b)
    ~in_palette:(Color.pair_in_palette ~budget)
    (Builders.cycle n) outputs

(* --- pinned scenarios ------------------------------------------------ *)

let test_solo_returns_immediately () =
  (* A process whose neighbours never wake sees ⊥ ⊥: no conflict, returns
     its initial (0,0) at the first activation (basis of wait-freedom). *)
  let e = A1.E.create (Builders.cycle 3) ~idents:[| 5; 1; 9 |] in
  A1.E.activate e [ 0 ];
  check (Alcotest.option pair) "returned (0,0)" (Some (0, 0))
    (Status.output (A1.E.status e 0))

let test_conflict_then_resolve () =
  (* Sequential wake-up on C3: p0 returns (0,0); p1 (smaller id 1 < 5)
     conflicts?  p1's colour (0,0) = p0's: conflict, so p1 misses and
     recomputes; at its next activation it returns a different colour. *)
  let e = A1.E.create (Builders.cycle 3) ~idents:[| 5; 1; 9 |] in
  A1.E.activate e [ 0 ];
  A1.E.activate e [ 1 ];
  check Alcotest.bool "p1 missed" true ((A1.E.status e 1 = Status.Working));
  A1.E.activate e [ 1 ];
  (match Status.output (A1.E.status e 1) with
  | Some c -> check Alcotest.bool "differs from p0" true (c <> (0, 0))
  | None -> Alcotest.fail "p1 should have returned");
  check Alcotest.bool "still proper" true
    (Checker.ok (validate 3 (A1.E.outputs e)))

let test_local_extremum_fast () =
  (* Lemma 3.4 corollary: local extrema return within 4 activations under
     any schedule; test the global max and min under round robin. *)
  let idents = [| 3; 9; 5; 7; 1; 8 |] in
  let e = A1.E.create (Builders.cycle 6) ~idents in
  let r = A1.E.run e Adversary.round_robin in
  check Alcotest.bool "all returned" true r.all_returned;
  check Alcotest.bool "max (p1) fast" true (r.activations_per_process.(1) <= 4);
  check Alcotest.bool "min (p4) fast" true (r.activations_per_process.(4) <= 4)

(* Lemma 3.9: a process at monotone distances [l] and [l'] from the
   extrema returns within this many activations. *)
let monotone_bound ~l ~l' = min (min (3 * l) (3 * l')) (l + l') + 4

let test_activation_bound_formula () =
  check Alcotest.int "bound n=3" 8 (A1.activation_bound 3);
  check Alcotest.int "bound n=10" 19 (A1.activation_bound 10)

let test_max_sticks_to_a_zero () =
  (* The proof of Lemma 3.4: a local maximum keeps a = 0 forever. *)
  let e = A1.E.create (Builders.cycle 3) ~idents:[| 5; 1; 9 |] in
  for _ = 1 to 5 do
    A1.E.activate e [ 0; 1; 2 ];
    match A1.E.status e 2 with
    | Status.Working -> check Alcotest.int "a stays 0" 0 (A1.E.state e 2).A1.a
    | Status.Returned (a, _) -> check Alcotest.int "returned a=0" 0 a
    | Status.Asleep -> Alcotest.fail "p2 awake"
  done

let test_crash_mid_run_safe () =
  let idents = Idents.increasing 8 in
  let adv = Adversary.crash ~at:2 ~procs:[ 3; 4 ] Adversary.synchronous in
  let r = A1.run_on_cycle ~idents adv in
  check Alcotest.bool "survivors proper" true (Checker.ok (validate 8 r.outputs));
  check Alcotest.bool "schedule ended by crash or done" true
    (r.all_returned || r.schedule_ended)

(* --- property-based Theorem 3.1 ------------------------------------- *)

let arb_scenario =
  QCheck.make
    ~print:(fun (n, seed) -> Printf.sprintf "n=%d seed=%d" n seed)
    QCheck.Gen.(pair (int_range 3 40) (int_range 0 10_000))

let run_random_scenario (n, seed) =
  let prng = Prng.create ~seed in
  let idents = Idents.random_permutation (Prng.split prng) n in
  let adv = Adversary.random_subsets (Prng.split prng) ~p:0.5 in
  (idents, A1.run_on_cycle ~idents adv)

let prop_terminates_within_bound =
  QCheck.Test.make ~name:"Theorem 3.1: rounds <= 3n/2+4" ~count:300 arb_scenario
    (fun (n, seed) ->
      let _, r = run_random_scenario (n, seed) in
      r.all_returned && r.rounds <= A1.activation_bound n)

let prop_proper_and_palette =
  QCheck.Test.make ~name:"Theorem 3.1: proper colouring, palette a+b<=2" ~count:300
    arb_scenario (fun (n, seed) ->
      let _, r = run_random_scenario (n, seed) in
      Checker.ok (validate n r.outputs))

let prop_monotone_distance_bound =
  (* Lemma 3.9 for the monotone workload: process i on the increasing ring
     has l = i, l' = n-i monotone distances (indices 1..n-1); apply the
     formula per process under the synchronous schedule. *)
  QCheck.Test.make ~name:"Lemma 3.9: per-process activation bound" ~count:100
    (Bounded.int_range 4 60)
    (fun n ->
      let idents = Idents.increasing n in
      let r = A1.run_on_cycle ~idents Adversary.synchronous in
      r.all_returned
      && Array.for_all Fun.id
           (Array.init n (fun i ->
                let bound =
                  if i = 0 || i = n - 1 then 4 (* extrema *)
                  else monotone_bound ~l:i ~l':(n - i)
                in
                r.activations_per_process.(i) <= bound)))

let prop_zigzag_constant_time =
  QCheck.Test.make ~name:"zigzag workload: O(1) rounds" ~count:50
    (Bounded.int_range 4 200)
    (fun n ->
      let r = A1.run_on_cycle ~idents:(Idents.zigzag n) Adversary.synchronous in
      r.all_returned && r.rounds <= 10)

(* --- exhaustive ------------------------------------------------------ *)

let test_exhaustive_c3_c4 () =
  List.iter
    (fun idents ->
      let n = Array.length idents in
      let g = Builders.cycle n in
      let check_outputs outs =
        if Checker.ok (validate n outs) then None else Some "bad colouring"
      in
      let r = Explorer.explore g ~idents ~check_outputs in
      check Alcotest.bool "complete" true r.complete;
      check Alcotest.bool "wait-free in FULL model" true r.wait_free;
      check Alcotest.(list unit) "no violations" []
        (List.map (fun _ -> ()) r.safety);
      check Alcotest.bool "worst within theorem bound" true
        (r.worst_case_activations <= A1.activation_bound n))
    [ [| 5; 1; 9 |]; [| 0; 1; 2 |]; [| 1; 2; 0 |]; [| 9; 4; 7; 2 |]; [| 0; 1; 2; 3 |] ]

let () =
  Alcotest.run "algorithm1"
    [
      ( "scenarios",
        [
          Alcotest.test_case "solo returns immediately" `Quick
            test_solo_returns_immediately;
          Alcotest.test_case "conflict then resolve" `Quick test_conflict_then_resolve;
          Alcotest.test_case "local extrema fast" `Quick test_local_extremum_fast;
          Alcotest.test_case "bound formulas" `Quick test_activation_bound_formula;
          Alcotest.test_case "max pins a=0" `Quick test_max_sticks_to_a_zero;
          Alcotest.test_case "crash mid-run safe" `Quick test_crash_mid_run_safe;
        ] );
      ( "theorem 3.1",
        [
          qtest prop_terminates_within_bound;
          qtest prop_proper_and_palette;
          qtest prop_monotone_distance_bound;
          qtest prop_zigzag_constant_time;
        ] );
      ( "exhaustive",
        [ Alcotest.test_case "C3/C4 all schedules" `Slow test_exhaustive_c3_c4 ] );
    ]
