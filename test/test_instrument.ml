(* Tests for the instrumented Algorithm 1: the shadow-set machinery of
   §3.1 (Equations 3-4) and the lemmas proved about it, validated on live
   executions. *)

module I = Asyncolor.Instrument
module Status = Asyncolor_kernel.Status
module Adversary = Asyncolor_kernel.Adversary
module Builders = Asyncolor_topology.Builders
module Idents = Asyncolor_workload.Idents
module Prng = Asyncolor_util.Prng

let check = Alcotest.check
let qtest t = QCheck_alcotest.to_alcotest t

let random_schedule prng ~n ~steps =
  List.init steps (fun _ ->
      List.filter (fun _ -> Prng.bool prng) (List.init n Fun.id))
  |> List.filter (fun s -> s <> [])

(* --- equivalence with the plain algorithm ---------------------------- *)

let prop_agrees_with_algorithm1 =
  QCheck.Test.make ~name:"instrumentation is observationally transparent" ~count:200
    QCheck.(pair (Bounded.int_range 3 12) (int_range 0 100_000))
    (fun (n, seed) ->
      let prng = Prng.create ~seed in
      let idents = Idents.random_permutation (Prng.split prng) n in
      let schedule = random_schedule (Prng.split prng) ~n ~steps:40 in
      I.agrees_with_algorithm1 ~idents ~schedule)

(* --- lemmas monitored on live executions ------------------------------ *)

let run_monitored ~n ~seed =
  let prng = Prng.create ~seed in
  let idents = Idents.random_permutation (Prng.split prng) n in
  let e = I.E.create (Builders.cycle n) ~idents in
  I.E.set_monitor e I.monitor;
  let r = I.E.run e (Adversary.random_subsets (Prng.split prng) ~p:0.5) in
  (idents, e, r)

let prop_lemmas_hold_on_random_runs =
  QCheck.Test.make ~name:"Lemmas 3.5 & 3.7 hold at every step" ~count:150
    QCheck.(pair (Bounded.int_range 3 24) (int_range 0 100_000))
    (fun (n, seed) ->
      let _, _, r = run_monitored ~n ~seed in
      r.all_returned)

let prop_shadow_sets_grow =
  (* Remark 3.6: A_p and B_p are inclusion-monotone over time. *)
  QCheck.Test.make ~name:"Remark 3.6: shadow sets grow monotonically" ~count:100
    QCheck.(pair (Bounded.int_range 3 16) (int_range 0 100_000))
    (fun (n, seed) ->
      let prng = Prng.create ~seed in
      let idents = Idents.random_permutation (Prng.split prng) n in
      let e = I.E.create (Builders.cycle n) ~idents in
      let prev = Array.make n I.IntSet.empty in
      let prev_b = Array.make n I.IntSet.empty in
      let ok = ref true in
      I.E.set_monitor e (fun e ->
          for p = 0 to n - 1 do
            match I.E.status e p with
            | Status.Working ->
                let s = I.E.state e p in
                if not (I.IntSet.subset prev.(p) s.I.shadow.I.a_set) then ok := false;
                if not (I.IntSet.subset prev_b.(p) s.I.shadow.I.b_set) then ok := false;
                prev.(p) <- s.I.shadow.I.a_set;
                prev_b.(p) <- s.I.shadow.I.b_set
            | Status.Asleep | Status.Returned _ -> ()
          done);
      let r = I.E.run e (Adversary.singletons (Prng.split prng)) in
      !ok && r.all_returned)

let prop_lemma_3_8 =
  (* A non-extremal process that misses must grow A or B (together with
     Remark 3.6 this bounds its number of misses by l + l' + 1). *)
  QCheck.Test.make ~name:"Lemma 3.8: misses of non-extremal processes grow A∪B"
    ~count:100
    QCheck.(pair (Bounded.int_range 4 16) (int_range 0 100_000))
    (fun (n, seed) ->
      let prng = Prng.create ~seed in
      let idents = Idents.random_permutation (Prng.split prng) n in
      let lo = Array.fold_left min max_int idents
      and hi = Array.fold_left max 0 idents in
      let extremal p = idents.(p) = lo || idents.(p) = hi in
      let e = I.E.create (Builders.cycle n) ~idents in
      let prev_sizes = Array.make n (-1) in
      let prev_rounds = Array.make n 0 in
      let ok = ref true in
      I.E.set_monitor e (fun e ->
          for p = 0 to n - 1 do
            match I.E.status e p with
            | Status.Working when not (extremal p) ->
                let s = I.E.state e p in
                let size =
                  I.IntSet.cardinal s.I.shadow.I.a_set
                  + I.IntSet.cardinal s.I.shadow.I.b_set
                in
                let rounds = I.E.activations e p in
                (* the process missed (it is still working after a round);
                   Lemma 3.8 says the union grew *)
                if rounds > prev_rounds.(p) && prev_sizes.(p) >= 0 && size <= prev_sizes.(p)
                then ok := false;
                if rounds > prev_rounds.(p) then begin
                  prev_sizes.(p) <- size;
                  prev_rounds.(p) <- rounds
                end
            | _ -> ()
          done);
      let r = I.E.run e (Adversary.synchronous) in
      r.all_returned && !ok)

let test_shadow_example_by_hand () =
  (* C4 with idents 1 < 3 < 7 and 5: wake everyone synchronously twice and
     inspect A/B of the node with identifier 3 (neighbours 1 and 7). *)
  let idents = [| 1; 3; 7; 5 |] in
  let e = I.E.create (Builders.cycle 4) ~idents in
  I.E.activate e [ 0; 1; 2; 3 ];
  I.E.activate e [ 0; 1; 2; 3 ];
  (match I.E.status e 1 with
  | Status.Working ->
      let s = I.E.state e 1 in
      check Alcotest.(list int) "A_1 = {7} after 2nd round" [ 7 ]
        (I.IntSet.elements s.I.shadow.I.a_set);
      check Alcotest.(list int) "B_1 = {1}" [ 1 ] (I.IntSet.elements s.I.shadow.I.b_set)
  | _ -> ())
  (* whichever way the race resolves, the lemmas must hold *)
  ;
  I.monitor e

(* --- Algorithm 2 instrumentation: Eq. (5) of Lemma 3.13 ---------------- *)

module I2 = Asyncolor.Instrument2

let prop_agrees_with_algorithm2 =
  QCheck.Test.make ~name:"alg2 instrumentation is observationally transparent"
    ~count:200
    QCheck.(pair (Bounded.int_range 3 12) (int_range 0 100_000))
    (fun (n, seed) ->
      let prng = Prng.create ~seed in
      let idents = Idents.random_permutation (Prng.split prng) n in
      let schedule = random_schedule (Prng.split prng) ~n ~steps:40 in
      I2.agrees_with_algorithm2 ~idents ~schedule)

let prop_eq5_random_runs =
  QCheck.Test.make ~name:"Eq. (5) holds at every step (random schedules)" ~count:150
    QCheck.(pair (Bounded.int_range 3 24) (int_range 0 100_000))
    (fun (n, seed) ->
      let prng = Prng.create ~seed in
      let idents = Idents.random_permutation (Prng.split prng) n in
      let e = I2.E.create (Builders.cycle n) ~idents in
      I2.E.set_monitor e I2.monitor;
      let r = I2.E.run e (Adversary.singletons (Prng.split prng)) in
      r.all_returned)

let test_eq5_holds_inside_the_phase_lock () =
  (* The precision claim of F1: Eq. (5) is sound even in the execution
     where Theorem 3.11 fails — the error is in the later strict-inequality
     step, not in the parity machinery. *)
  let e = I2.E.create (Builders.cycle 3) ~idents:[| 5; 1; 9 |] in
  I2.E.set_monitor e I2.monitor;
  I2.E.activate e [ 0 ];
  I2.E.activate e [ 1 ];
  I2.E.activate e [ 2 ];
  for _ = 1 to 40 do
    I2.E.activate e [ 1; 2 ]
  done;
  Alcotest.(check bool)
    "still locked (and Eq. (5) never fired)" false
    (I2.E.all_returned e)

let () =
  Alcotest.run "instrument"
    [
      ( "algorithm 2 / Eq. (5)",
        [
          qtest prop_agrees_with_algorithm2;
          qtest prop_eq5_random_runs;
          Alcotest.test_case "Eq. (5) inside the F1 lock" `Quick
            test_eq5_holds_inside_the_phase_lock;
        ] );
      ( "shadow sets",
        [
          qtest prop_agrees_with_algorithm1;
          qtest prop_lemmas_hold_on_random_runs;
          qtest prop_shadow_sets_grow;
          qtest prop_lemma_3_8;
          Alcotest.test_case "worked example" `Quick test_shadow_example_by_hand;
        ] );
    ]
