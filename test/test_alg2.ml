(* Tests for Algorithm 2 (wait-free 5-colouring in O(n), paper §3.2),
   including the a<=b invariant, Theorem 3.11 sweeps, exhaustive checks
   under interleaved schedules, and a regression test pinning finding F1
   (the phase-lock under simultaneous schedules). *)

module A2 = Asyncolor.Algorithm2
module Color = Asyncolor.Color
module Checker = Asyncolor.Checker
module Status = Asyncolor_kernel.Status
module Adversary = Asyncolor_kernel.Adversary
module Builders = Asyncolor_topology.Builders
module Idents = Asyncolor_workload.Idents
module Prng = Asyncolor_util.Prng
module Mex = Asyncolor_util.Mex
module Step = Asyncolor_kernel.Step
module Explorer = Asyncolor_check.Explorer.Make (A2.P)

let check = Alcotest.check
let qtest t = QCheck_alcotest.to_alcotest t

let validate n outputs =
  Checker.check ~equal:Int.equal ~in_palette:Color.in_five (Builders.cycle n) outputs

(* --- pinned scenarios ------------------------------------------------ *)

let test_solo_returns_zero () =
  let e = A2.E.create (Builders.cycle 3) ~idents:[| 5; 1; 9 |] in
  A2.E.activate e [ 1 ];
  check Alcotest.(option int) "returned 0" (Some 0) (Status.output (A2.E.status e 1))

let test_a_le_b_invariant () =
  (* C+ ⊆ C implies a = mex C+ <= mex C = b at every step (used in the
     proof of Lemma 3.13). *)
  let n = 9 in
  let e = A2.E.create (Builders.cycle n) ~idents:(Idents.random_permutation (Prng.create ~seed:5) n) in
  A2.E.set_monitor e (fun e ->
      for p = 0 to n - 1 do
        match A2.E.status e p with
        | Status.Working ->
            let s = A2.E.state e p in
            if s.A2.a > s.A2.b then Alcotest.failf "a > b at p%d" p
        | Status.Asleep | Status.Returned _ -> ()
      done);
  ignore (A2.E.run e (Adversary.random_subsets (Prng.create ~seed:6) ~p:0.4))

(* Lemma 3.14: a non-minimum at monotone distance [l] from the closest
   maximum returns within this many activations. *)
let non_minimum_bound ~l = (3 * l) + 4

let test_bound_formulas () =
  check Alcotest.int "3n+8" 38 (A2.activation_bound 10)

let test_output_never_conflicts_with_frozen_register () =
  (* A returned process's register persists; neighbours must colour around
     it even after crashes freeze other registers. *)
  let idents = [| 2; 7; 4; 9; 1; 6 |] in
  let adv = Adversary.crash ~at:3 ~procs:[ 1; 4 ] Adversary.round_robin in
  let r = A2.run_on_cycle ~idents adv in
  check Alcotest.bool "proper" true (Checker.ok (validate 6 r.outputs))

(* --- list-free transition vs the list-based reference ----------------- *)

(* The transition as the paper states it, over lists: C is every visible
   neighbour's (a, b), C+ those of neighbours with a greater identifier,
   and mex comes from [Mex.of_list].  The protocol's own transition scans
   [view] in place and must agree with it everywhere. *)
let reference_transition (s : A2.fields) ~view =
  let nbrs = Array.to_list view |> List.filter_map Fun.id in
  let c = List.concat_map (fun (r : A2.fields) -> [ r.a; r.b ]) nbrs in
  if not (List.mem s.a c) then Step.Return s.a
  else if not (List.mem s.b c) then Step.Return s.b
  else begin
    let c_plus =
      List.concat_map
        (fun (r : A2.fields) -> if r.x > s.x then [ r.a; r.b ] else [])
        nbrs
    in
    Step.Continue { s with a = Mex.of_list c_plus; b = Mex.of_list c }
  end

(* Small value ranges, so that candidates repeat and collide, and
   neighbour identifiers within 2 of the caller's: above, below and
   equal all occur. *)
let arb_transition_case =
  let open QCheck.Gen in
  let candidate = int_range 0 5 in
  let gen =
    int_range 0 10 >>= fun x ->
    let register =
      map3
        (fun dx a b -> { A2.x = x + dx; a; b })
        (int_range (-2) 2) candidate candidate
    in
    let entry = frequency [ (1, return None); (3, map Option.some register) ] in
    map3
      (fun a b view -> ({ A2.x; a; b }, view))
      candidate candidate
      (int_range 0 6 >>= fun deg -> array_repeat deg entry)
  in
  let pp (r : A2.fields) = Printf.sprintf "{x=%d;a=%d;b=%d}" r.x r.a r.b in
  let print (s, view) =
    Printf.sprintf "state %s, view [%s]" (pp s)
      (String.concat "; "
         (Array.to_list
            (Array.map (function None -> "⊥" | Some r -> pp r) view)))
  in
  QCheck.make ~print gen

let prop_transition_matches_reference =
  QCheck.Test.make ~name:"list-free transition = list-based reference"
    ~count:2_000 arb_transition_case (fun (s, view) ->
      A2.P.transition s ~view = reference_transition s ~view)

(* --- finding F1 regression ------------------------------------------ *)

let test_phase_lock_lasso_replay () =
  (* The minimal counterexample of EXPERIMENTS.md F1: idents (5,1,9) on C3,
     schedule {0} {1} {2} then {1,2}^ω.  The state of processes 1 and 2
     must cycle with period 2 and never return. *)
  let e = A2.E.create (Builders.cycle 3) ~idents:[| 5; 1; 9 |] in
  A2.E.activate e [ 0 ];
  A2.E.activate e [ 1 ];
  A2.E.activate e [ 2 ];
  A2.E.activate e [ 1; 2 ];
  let s1 = A2.E.state e 1 and s2 = A2.E.state e 2 in
  for _ = 1 to 10 do
    A2.E.activate e [ 1; 2 ];
    A2.E.activate e [ 1; 2 ]
  done;
  check Alcotest.bool "p1 still working" true ((A2.E.status e 1 = Status.Working));
  check Alcotest.bool "p2 still working" true ((A2.E.status e 2 = Status.Working));
  check Alcotest.bool "period-2 state cycle" true
    (A2.P.equal_state s1 (A2.E.state e 1) && A2.P.equal_state s2 (A2.E.state e 2))

let test_phase_lock_breaks_under_interleaving () =
  (* The same configuration terminates as soon as the adversary breaks
     simultaneity: alternate {1} and {2}. *)
  let e = A2.E.create (Builders.cycle 3) ~idents:[| 5; 1; 9 |] in
  A2.E.activate e [ 0 ];
  A2.E.activate e [ 1 ];
  A2.E.activate e [ 2 ];
  A2.E.activate e [ 1; 2 ];
  let steps = ref 0 in
  while not (A2.E.all_returned e) && !steps < 20 do
    A2.E.activate e [ 1 ];
    A2.E.activate e [ 2 ];
    steps := !steps + 2
  done;
  check Alcotest.bool "terminates quickly once interleaved" true
    (A2.E.all_returned e);
  check Alcotest.bool "proper" true (Checker.ok (validate 3 (A2.E.outputs e)))

(* --- Theorem 3.11 sweeps --------------------------------------------- *)

let arb_scenario =
  QCheck.make
    ~print:(fun (n, seed) -> Printf.sprintf "n=%d seed=%d" n seed)
    QCheck.Gen.(pair (int_range 3 40) (int_range 0 10_000))

let prop_terminates_within_bound =
  QCheck.Test.make ~name:"Theorem 3.11: rounds <= 3n+8 (interleaved schedules)"
    ~count:300 arb_scenario (fun (n, seed) ->
      let prng = Prng.create ~seed in
      let idents = Idents.random_permutation (Prng.split prng) n in
      let r = A2.run_on_cycle ~idents (Adversary.singletons (Prng.split prng)) in
      r.all_returned && r.rounds <= A2.activation_bound n)

let prop_proper_and_palette =
  QCheck.Test.make ~name:"Theorem 3.11: proper, palette {0..4}" ~count:300
    arb_scenario (fun (n, seed) ->
      let prng = Prng.create ~seed in
      let idents = Idents.random_permutation (Prng.split prng) n in
      let r = A2.run_on_cycle ~idents (Adversary.random_subsets (Prng.split prng) ~p:0.5) in
      (* random subsets may in principle sustain a lock for a while; only
         validate safety here, liveness is covered by the singleton prop *)
      Checker.ok (validate n r.outputs))

let prop_non_minimum_bound =
  (* Lemma 3.14 under the synchronous schedule on the increasing ring:
     node i's monotone distance to the closest maximum is n-1-i. *)
  QCheck.Test.make ~name:"Lemma 3.14: non-minima within 3l+4" ~count:60
    (Bounded.int_range 4 80)
    (fun n ->
      let r = A2.run_on_cycle ~idents:(Idents.increasing n) Adversary.synchronous in
      r.all_returned
      && Array.for_all Fun.id
           (Array.init (n - 1) (fun i ->
                i = 0
                || r.activations_per_process.(i)
                   <= non_minimum_bound ~l:(n - 1 - i))))

let prop_five_colors_only =
  QCheck.Test.make ~name:"outputs always within {0..4}" ~count:200 arb_scenario
    (fun (n, seed) ->
      let prng = Prng.create ~seed in
      let idents =
        Idents.random_sparse (Prng.split prng) ~n ~universe:(max 64 (n * n))
      in
      let r = A2.run_on_cycle ~idents (Adversary.singletons (Prng.split prng)) in
      Array.for_all
        (function Some c -> Color.in_five c | None -> false)
        r.outputs)

(* --- general graphs: the §5 open-problem probe (E16) ------------------ *)

let test_general_palette_helpers () =
  check Alcotest.int "2Δ+1" 7 (A2.general_palette ~max_degree:3);
  check Alcotest.bool "boundary in" true (A2.in_general_palette ~max_degree:3 6);
  check Alcotest.bool "boundary out" false (A2.in_general_palette ~max_degree:3 7)

let test_clique_is_renaming () =
  (* On K_n all outputs must be pairwise distinct and within 2n-1 names. *)
  let n = 6 in
  let g = Builders.complete n in
  let idents = Idents.random_permutation (Prng.create ~seed:21) n in
  let r = A2.E.run (A2.E.create g ~idents) (Adversary.singletons (Prng.create ~seed:22)) in
  check Alcotest.bool "all returned" true r.all_returned;
  let names = List.filter_map Fun.id (Array.to_list r.outputs) in
  check Alcotest.int "distinct" n (List.length (List.sort_uniq compare names));
  List.iter
    (fun c ->
      check Alcotest.bool "within 2n-1" true
        (A2.in_general_palette ~max_degree:(n - 1) c))
    names

let prop_general_graphs_safe =
  QCheck.Test.make ~name:"general graphs: proper within 2Δ+1, terminates" ~count:120
    QCheck.(triple (Bounded.int_range 2 24) (int_range 0 100) (int_range 0 10_000))
    (fun (n, pct, seed) ->
      let prng = Prng.create ~seed in
      let g = Asyncolor_topology.Builders.gnp (Prng.split prng) ~n ~p:(float_of_int pct /. 100.) in
      let delta = Asyncolor_topology.Graph.max_degree g in
      let idents = Idents.random_permutation (Prng.split prng) n in
      let r = A2.E.run (A2.E.create g ~idents) (Adversary.singletons (Prng.split prng)) in
      let v =
        Checker.check ~equal:Int.equal
          ~in_palette:(A2.in_general_palette ~max_degree:delta)
          g r.outputs
      in
      r.all_returned && Checker.ok v)

let test_exhaustive_general_graphs () =
  (* wait-freedom under interleaved schedules on the small zoo — the E16
     evidence, pinned as a regression test *)
  List.iter
    (fun (graph, idents) ->
      let delta = Asyncolor_topology.Graph.max_degree graph in
      let check_outputs outs =
        let v =
          Checker.check ~equal:Int.equal
            ~in_palette:(A2.in_general_palette ~max_degree:delta)
            graph outs
        in
        if Checker.ok v then None else Some "bad"
      in
      let module Exp = Asyncolor_check.Explorer.Make (A2.P) in
      let r = Exp.explore ~mode:`Singletons graph ~idents ~check_outputs in
      check Alcotest.bool "complete" true r.complete;
      check Alcotest.bool "wait-free" true r.wait_free;
      check Alcotest.int "safe" 0 (List.length r.safety);
      check Alcotest.bool "tiny worst case" true (r.worst_case_activations <= 5))
    [
      (Builders.complete 4, [| 3; 7; 1; 9 |]);
      (Builders.star 4, [| 5; 2; 8; 1 |]);
      (Builders.path 4, [| 5; 1; 9; 4 |]);
      ( Asyncolor_topology.Graph.make ~n:4
          ~edges:[ (0, 1); (1, 2); (2, 3); (3, 0); (0, 2) ],
        [| 5; 1; 9; 4 |] );
    ]

(* --- exhaustive (interleaved) ---------------------------------------- *)

let test_exhaustive_interleaved () =
  List.iter
    (fun idents ->
      let n = Array.length idents in
      let g = Builders.cycle n in
      let check_outputs outs =
        if Checker.ok (validate n outs) then None else Some "bad colouring"
      in
      let r = Explorer.explore ~mode:`Singletons g ~idents ~check_outputs in
      check Alcotest.bool "complete" true r.complete;
      check Alcotest.bool "wait-free interleaved" true r.wait_free;
      check Alcotest.int "no violations" 0 (List.length r.safety);
      check Alcotest.bool "worst within bound" true
        (r.worst_case_activations <= A2.activation_bound n))
    [
      [| 5; 1; 9 |]; [| 0; 1; 2 |]; [| 2; 1; 0 |]; [| 5; 1; 9; 4 |];
      [| 0; 1; 2; 3; 4 |]; [| 5; 1; 9; 4; 7; 2 |];
    ]

let test_exhaustive_all_permutations () =
  (* every identifier ORDER around the small cycles: all 6 permutations of
     {5,1,9} on C3 and all 24 permutations of {5,1,9,4} on C4, exhaustively
     over interleaved schedules *)
  let rec perms = function
    | [] -> [ [] ]
    | l ->
        List.concat_map
          (fun x -> List.map (fun p -> x :: p) (perms (List.filter (( <> ) x) l)))
          l
  in
  List.iter
    (fun values ->
      let n = List.length values in
      let g = Builders.cycle n in
      List.iter
        (fun perm ->
          let idents = Array.of_list perm in
          let check_outputs outs =
            if Checker.ok (validate n outs) then None else Some "bad"
          in
          let r = Explorer.explore ~mode:`Singletons g ~idents ~check_outputs in
          if not (r.complete && r.wait_free && r.safety = []) then
            Alcotest.failf "failed for idents %s"
              (String.concat "," (List.map string_of_int perm));
          if r.worst_case_activations > A2.activation_bound n then
            Alcotest.failf "bound exceeded for %s"
              (String.concat "," (List.map string_of_int perm)))
        (perms values))
    [ [ 5; 1; 9 ]; [ 5; 1; 9; 4 ] ]

let test_exhaustive_simultaneous_not_wait_free () =
  (* F1, exhaustively: the full model admits a livelock lasso. *)
  let g = Builders.cycle 3 in
  let r = Explorer.explore g ~idents:[| 5; 1; 9 |] in
  check Alcotest.bool "complete" true r.complete;
  check Alcotest.bool "NOT wait-free in full model" false r.wait_free;
  match r.livelock with
  | None -> Alcotest.fail "expected a lasso"
  | Some v ->
      (* the lasso must be replayable: run the prefix once, then keep
         repeating the cycle-closing subset — the processes it activates
         must keep working.  (Re-running the whole prefix would interleave
         singleton steps and break the lock.) *)
      let closing = List.nth v.schedule (List.length v.schedule - 1) in
      let e = A2.E.create g ~idents:[| 5; 1; 9 |] in
      let res =
        A2.E.run e (Adversary.finite (v.schedule @ List.init 20 (fun _ -> closing)))
      in
      check Alcotest.bool "replay does not terminate" false res.all_returned

let () =
  Alcotest.run "algorithm2"
    [
      ( "scenarios",
        [
          Alcotest.test_case "solo returns 0" `Quick test_solo_returns_zero;
          Alcotest.test_case "a <= b invariant" `Quick test_a_le_b_invariant;
          Alcotest.test_case "bound formulas" `Quick test_bound_formulas;
          Alcotest.test_case "crash-frozen registers" `Quick
            test_output_never_conflicts_with_frozen_register;
          qtest prop_transition_matches_reference;
        ] );
      ( "finding F1",
        [
          Alcotest.test_case "lasso replay locks" `Quick test_phase_lock_lasso_replay;
          Alcotest.test_case "interleaving unlocks" `Quick
            test_phase_lock_breaks_under_interleaving;
          Alcotest.test_case "exhaustive: not wait-free simultaneous" `Slow
            test_exhaustive_simultaneous_not_wait_free;
        ] );
      ( "theorem 3.11",
        [
          qtest prop_terminates_within_bound;
          qtest prop_proper_and_palette;
          qtest prop_non_minimum_bound;
          qtest prop_five_colors_only;
        ] );
      ( "general graphs (E16)",
        [
          Alcotest.test_case "palette helpers" `Quick test_general_palette_helpers;
          Alcotest.test_case "clique = renaming" `Quick test_clique_is_renaming;
          qtest prop_general_graphs_safe;
          Alcotest.test_case "exhaustive small zoo" `Slow test_exhaustive_general_graphs;
        ] );
      ( "exhaustive",
        [
          Alcotest.test_case "interleaved C3-C5" `Slow test_exhaustive_interleaved;
          Alcotest.test_case "all identifier orders C3/C4" `Slow
            test_exhaustive_all_permutations;
        ] );
    ]
