(* Tests for the fault-injection fuzzer: scenario generation and
   validation, trace round-trips (including rejection of damaged files),
   counterexample shrinking, campaign determinism across job counts, and
   mutation testing of the invariant detectors — every planted bug must
   be caught within a small, fixed exec budget. *)

module Scenario = Asyncolor_fuzz.Scenario
module Mutation = Asyncolor_fuzz.Mutation
module Exec = Asyncolor_fuzz.Exec
module Trace = Asyncolor_fuzz.Trace
module Shrink = Asyncolor_fuzz.Shrink
module Fuzz = Asyncolor_fuzz.Fuzz
module Checkpoint = Asyncolor_resilience.Checkpoint
module Prng = Asyncolor_util.Prng

let check = Alcotest.check

let with_temp f =
  let path = Filename.temp_file "asyncolor-trace" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* --- Scenario generation -------------------------------------------- *)

let test_generate_valid () =
  let prng = Prng.create ~seed:11 in
  for _ = 1 to 200 do
    let sc = Scenario.generate prng in
    Scenario.validate sc;
    check Alcotest.bool "has steps" true (Scenario.steps sc >= 1)
  done

let test_generate_deterministic () =
  let gen seed =
    let prng = Prng.create ~seed in
    List.init 20 (fun _ -> Scenario.generate prng)
  in
  check Alcotest.bool "same seed, same scenarios" true (gen 3 = gen 3);
  check Alcotest.bool "different seed, different scenarios" true
    (gen 3 <> gen 4)

let test_validate_rejects () =
  let prng = Prng.create ~seed:5 in
  let sc = Scenario.generate prng in
  let n = Scenario.graph_n sc.graph in
  Alcotest.check_raises "schedule index out of range"
    (Invalid_argument
       (Printf.sprintf
          "Scenario.validate: schedule names process %d outside [0, %d)" n n))
    (fun () -> Scenario.validate { sc with schedule = [ [ n ] ] });
  Alcotest.check_raises "duplicate identifiers"
    (Invalid_argument "Scenario.validate: identifiers must be pairwise distinct")
    (fun () -> Scenario.validate { sc with idents = Array.make n 1 })

(* A clean (unmutated) scenario must never trip any detector: the
   invariant suite is calibrated against the real algorithms, so a
   finding here would be a false positive (or a real bug). *)
let test_clean_scenarios_pass () =
  let prng = Prng.create ~seed:99 in
  for _ = 1 to 300 do
    let sc = Scenario.generate prng in
    let out = Exec.run sc in
    (match out.Exec.violations with
    | [] -> ()
    | v :: _ ->
        Alcotest.failf "clean scenario violated %s (%s): %a" v.Exec.invariant
          v.Exec.message Scenario.pp sc)
  done

(* --- Replay determinism --------------------------------------------- *)

let test_replay_identical () =
  let prng = Prng.create ~seed:21 in
  for _ = 1 to 50 do
    let sc = Scenario.generate prng in
    let a = Exec.run sc and b = Exec.run sc in
    check Alcotest.bool "same verdict" true
      (a.Exec.violations = b.Exec.violations);
    check Alcotest.bool "same event stream" true (a.Exec.events = b.Exec.events);
    check Alcotest.bool "same outputs" true (a.Exec.outputs = b.Exec.outputs)
  done

(* --- Trace round-trip ------------------------------------------------ *)

(* The finding of exec 0 of the seed-7 campaign against [mutation]. *)
let first_finding mutation =
  match (Fuzz.campaign ~mutation ~seed:7 ~execs:1 ()).findings with
  | f :: _ -> f
  | [] -> Alcotest.failf "seed-7 exec 0 no longer finds the %s bug" mutation

let failing_scenario () =
  (* First skip-read counterexample of the seed-7 campaign; deterministic. *)
  first_finding "skip-read"

(* The shrinker's cost, lexicographic: fewer nodes, then fewer steps,
   then thinner activation sets and fewer churn events (each weighs 2:
   its crash and its recovery). *)
let weight (sc : Scenario.t) =
  List.fold_left (fun acc set -> acc + 1 + List.length set) 0 sc.schedule
  + (2 * List.length sc.churn)

let size (sc : Scenario.t) = (Scenario.graph_n sc.graph, Scenario.steps sc, weight sc)

let test_trace_roundtrip () =
  let f = failing_scenario () in
  with_temp (fun path ->
      Trace.save ~path f.Fuzz.trace;
      let t = Trace.load path in
      check Alcotest.bool "trace round-trips" true (t = f.Fuzz.trace);
      (* Replaying the loaded trace reproduces verdict and event stream. *)
      let outcome, reproduced = Fuzz.replay t in
      check Alcotest.bool "violations reproduce" true reproduced;
      let original = Exec.run f.Fuzz.trace.scenario in
      check Alcotest.bool "event stream reproduces" true
        (outcome.Exec.events = original.Exec.events))

let expect_corrupt what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Corrupt" what
  | exception Checkpoint.Corrupt _ -> ()

let test_trace_corruption () =
  let f = failing_scenario () in
  with_temp (fun path ->
      Trace.save ~path f.Fuzz.shrunk;
      let bytes_of p =
        let ic = open_in_bin p in
        let len = in_channel_length ic in
        let b = really_input_string ic len in
        close_in ic;
        b
      in
      let write p s =
        let oc = open_out_bin p in
        output_string oc s;
        close_out oc
      in
      let original = bytes_of path in
      (* Flip one payload byte: digest check must catch it. *)
      let flipped = Bytes.of_string original in
      let i = String.length original - 3 in
      Bytes.set flipped i (Char.chr (Char.code (Bytes.get flipped i) lxor 0x40));
      write path (Bytes.to_string flipped);
      expect_corrupt "flipped byte" (fun () -> Trace.load path);
      (* Truncate: length check must catch it. *)
      write path (String.sub original 0 (String.length original / 2));
      expect_corrupt "truncated" (fun () -> Trace.load path);
      (* A valid container holding some other payload: fingerprint check. *)
      Checkpoint.save ~path ~version:Trace.version ("not-a-trace", 42);
      expect_corrupt "wrong fingerprint" (fun () -> Trace.load path);
      (* A structurally invalid scenario inside a valid container. *)
      let bad =
        {
          f.Fuzz.shrunk with
          Trace.scenario =
            { f.Fuzz.shrunk.scenario with Scenario.schedule = [ [ 999 ] ] };
        }
      in
      Checkpoint.save ~path ~version:Trace.version ("asyncolor-fuzz-trace", bad);
      expect_corrupt "invalid scenario" (fun () -> Trace.load path);
      (* And the pristine bytes still load. *)
      write path original;
      check Alcotest.bool "pristine still loads" true
        (Trace.load path = f.Fuzz.shrunk))

(* --- Shrinking ------------------------------------------------------- *)

let test_shrink_preserves_failure () =
  let f = failing_scenario () in
  let sc = f.Fuzz.trace.scenario in
  let invariant = f.Fuzz.invariant in
  let small, stats = Shrink.minimize sc ~invariant in
  check Alcotest.bool "shrunk still fails the same invariant" true
    (Exec.fails_invariant small ~invariant);
  check Alcotest.bool "no larger than the original" true
    (size small <= size sc);
  check Alcotest.bool "did some work" true (stats.Shrink.execs > 0);
  (* Deterministic: same input, same minimum. *)
  let small', stats' = Shrink.minimize sc ~invariant in
  check Alcotest.bool "deterministic minimum" true
    (small = small' && stats = stats')

let test_shrink_budget () =
  let f = failing_scenario () in
  let sc = f.Fuzz.trace.scenario in
  let small, stats = Shrink.minimize ~max_execs:5 sc ~invariant:f.Fuzz.invariant in
  check Alcotest.bool "budget respected" true (stats.Shrink.execs <= 5);
  check Alcotest.bool "still failing even when cut short" true
    (Exec.fails_invariant small ~invariant:f.Fuzz.invariant)

(* --- Churn dimension -------------------------------------------------- *)

let churn_events_well_formed (sc : Scenario.t) =
  let steps = Scenario.steps sc in
  List.for_all
    (fun (e : Scenario.churn_event) ->
      1 <= e.crash_at && e.crash_at <= e.recover_at && e.recover_at <= steps)
    sc.churn

let test_churn_generation () =
  (* Scenarios for a churn mutation always carry at least one event —
     that is where those bugs live — and unmutated generation mixes
     churn-bearing and static scenarios. *)
  let prng = Prng.create ~seed:23 in
  for _ = 1 to 100 do
    let sc = Scenario.generate ~mutation:"churn-zombie" prng in
    Scenario.validate sc;
    check Alcotest.bool "churn mutant scenarios churn" true (sc.churn <> [])
  done;
  let prng = Prng.create ~seed:23 in
  let with_churn = ref 0 and without = ref 0 in
  for _ = 1 to 200 do
    let sc = Scenario.generate prng in
    if sc.churn = [] then incr without else incr with_churn
  done;
  check Alcotest.bool "unmutated generation mixes both" true
    (!with_churn > 0 && !without > 0);
  (* ... and protocol mutants stay purely static, keeping their
     catch-rate calibration intact. *)
  let prng = Prng.create ~seed:23 in
  for _ = 1 to 100 do
    let sc = Scenario.generate ~mutation:"skip-read" prng in
    check Alcotest.bool "protocol mutants never churn" true (sc.churn = [])
  done

let churny_scenario () =
  let prng = Prng.create ~seed:31 in
  let rec go n =
    if n = 0 then Alcotest.fail "no churn-bearing scenario in 500 draws"
    else
      let sc = Scenario.generate ~mutation:"churn-zombie" prng in
      if List.length sc.churn >= 2 then sc else go (n - 1)
  in
  go 500

let test_drop_churn_event_atomic () =
  let sc = churny_scenario () in
  let events = List.length sc.churn in
  for i = 0 to events - 1 do
    match Scenario.drop_churn_event sc i with
    | None -> Alcotest.failf "event %d: in range but not dropped" i
    | Some sc' ->
        Scenario.validate sc';
        check Alcotest.int "exactly one pair gone" (events - 1)
          (List.length sc'.churn);
        check Alcotest.bool "strictly smaller" true
          (weight sc' < weight sc);
        check Alcotest.bool "remaining pairs intact" true
          (churn_events_well_formed sc')
  done;
  check Alcotest.bool "out of range" true
    (Scenario.drop_churn_event sc events = None)

let test_drop_steps_never_strands_a_crash () =
  (* Truncating the schedule must never leave a crash without its
     recovery: a pair whose recovery no longer fits is dropped whole. *)
  let prng = Prng.create ~seed:37 in
  for _ = 1 to 100 do
    let sc = Scenario.generate ~mutation:"churn-collide" prng in
    let steps = Scenario.steps sc in
    List.iter
      (fun (lo, len) ->
        if lo < steps && len > 0 then begin
          let len = min len (steps - lo) in
          let sc' = Scenario.drop_steps sc ~lo ~len in
          Scenario.validate sc';
          check Alcotest.bool "no stranded crash" true
            (churn_events_well_formed sc')
        end)
      [
        (0, steps);
        (0, steps / 2);
        (steps / 2, steps - (steps / 2));
        (steps / 3, steps / 3);
        (0, 1);
        (steps - 1, 1);
      ]
  done

(* The shrinker terminates because every primitive, wherever it yields
   a valid scenario, raises none of (nodes, churn events, steps,
   occupancy) and lowers at least one. *)
let measure (sc : Scenario.t) =
  [
    Scenario.graph_n sc.graph;
    List.length sc.churn;
    Scenario.steps sc;
    List.fold_left (fun acc set -> acc + List.length set) 0 sc.schedule;
  ]

let prop_primitives_shrink =
  QCheck.Test.make ~name:"every shrinking primitive shrinks the measure"
    ~count:200
    QCheck.(pair (int_range 0 1_000_000) bool)
    (fun (seed, churny) ->
      let prng = Prng.create ~seed in
      let mutation = if churny then Some "churn-zombie" else None in
      let sc = Scenario.generate ?mutation prng in
      let steps = Scenario.steps sc in
      let drops =
        List.init 4 (fun _ ->
            let lo = Prng.int prng steps in
            let len = 1 + Prng.int prng (steps - lo) in
            Some (Scenario.drop_steps sc ~lo ~len))
      in
      let thins =
        List.init 4 (fun _ ->
            let step = Prng.int prng steps in
            match List.length (List.nth sc.schedule step) with
            | 0 -> None
            | len ->
                Some (Scenario.thin_step sc ~step ~drop:(Prng.int prng len)))
      in
      let churns =
        List.mapi (fun i _ -> Scenario.drop_churn_event sc i) sc.churn
      in
      let nodes =
        List.init (Scenario.graph_n sc.graph) (Scenario.drop_node sc)
      in
      let before = measure sc in
      let shrinks c =
        match Scenario.validate c with
        | exception Invalid_argument _ -> true
        | () ->
            let after = measure c in
            List.for_all2 ( >= ) before after
            && List.exists2 ( > ) before after
      in
      List.for_all
        (function Some c -> shrinks c | None -> true)
        (drops @ thins @ churns @ nodes))

let churn_finding () =
  (* First churn-zombie counterexample of the seed-7 campaign — the same
     deterministic anchor the mutation-testing suite uses. *)
  first_finding "churn-zombie"

let test_shrink_keeps_churn_pairs () =
  let f = churn_finding () in
  let sc = f.Fuzz.trace.scenario in
  let invariant = f.Fuzz.invariant in
  check Alcotest.string "a churn detector fired" "churn-reinit" invariant;
  let small, _stats = Shrink.minimize sc ~invariant in
  (* The minimum is still a valid churn scenario: ddmin worked over
     whole crash-recovery pairs and never separated a recovery from its
     crash. *)
  Scenario.validate small;
  check Alcotest.bool "pairs survive minimisation intact" true
    (churn_events_well_formed small);
  check Alcotest.bool "the bug needs churn, so some event survives" true
    (small.churn <> []);
  check Alcotest.bool "shrunk still fails the same churn detector" true
    (Exec.fails_invariant small ~invariant);
  check Alcotest.bool "no larger than the original" true
    (size small <= size sc)

(* --- Campaigns ------------------------------------------------------- *)

let finding_summary (f : Fuzz.finding) =
  (f.exec, f.invariant, f.trace, f.shrunk, f.shrink_stats)

let test_campaign_jobs_deterministic () =
  let run jobs =
    let r = Fuzz.campaign ~jobs ~mutation:"skip-read" ~seed:7 ~execs:30 () in
    (r.execs_done, r.complete, List.map finding_summary r.findings)
  in
  let r1 = run 1 in
  check Alcotest.bool "jobs=2 identical" true (r1 = run 2);
  check Alcotest.bool "jobs=4 identical" true (r1 = run 4);
  check Alcotest.bool "found something" true
    (match r1 with _, _, _ :: _ -> true | _ -> false)

let test_campaign_clean () =
  let r = Fuzz.campaign ~jobs:2 ~seed:42 ~execs:300 () in
  check Alcotest.int "no findings on the real algorithms" 0
    (List.length r.findings);
  check Alcotest.bool "complete" true r.complete;
  check Alcotest.int "all execs done" 300 r.execs_done

let test_campaign_corpus () =
  let dir = Filename.temp_file "asyncolor-corpus" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then (
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir))
    (fun () ->
      let r =
        Fuzz.campaign ~jobs:2 ~mutation:"skip-read" ~seed:7 ~execs:5
          ~corpus_dir:dir ()
      in
      check Alcotest.bool "found something" true (r.findings <> []);
      List.iter
        (fun (f : Fuzz.finding) ->
          let raw = Filename.concat dir (Printf.sprintf "t%04d.trace" f.exec) in
          let min = Filename.concat dir (Printf.sprintf "t%04d.min.trace" f.exec) in
          check Alcotest.bool "raw trace persisted" true
            (Trace.load raw = f.trace);
          check Alcotest.bool "shrunk trace persisted" true
            (Trace.load min = f.shrunk))
        r.findings)

let test_campaign_stop () =
  let r = Fuzz.campaign ~stop:(fun () -> true) ~seed:1 ~execs:50 () in
  check Alcotest.bool "truncated" false r.complete;
  check Alcotest.int "nothing executed" 0 r.execs_done

(* --- Mutation testing ------------------------------------------------ *)

(* Each planted bug must be caught within this many execs of the fixed
   seed-7 campaign — a regression here means a detector got weaker. *)
let mutant_budget = function "guard-never" -> 12 | _ -> 8

let expected_invariant = function
  | "skip-read" | "guard-always" -> "proper"
  | "guard-never" -> "activation-bound"
  | "palette-off-by-one" -> "palette"
  | "churn-zombie" -> "churn-reinit"
  | "churn-collide" -> "churn-fresh-ident"
  | m -> Alcotest.failf "unexpected mutant %s" m

let test_mutants_caught () =
  List.iter
    (fun (i : Mutation.info) ->
      let r =
        Fuzz.campaign ~jobs:2 ~mutation:i.name ~seed:7
          ~execs:(mutant_budget i.name) ()
      in
      match r.findings with
      | [] -> Alcotest.failf "mutant %s escaped its exec budget" i.name
      | f :: _ ->
          check Alcotest.string
            (Printf.sprintf "mutant %s caught by the right detector" i.name)
            (expected_invariant i.name) f.invariant;
          (* The shrunk counterexample still exhibits the violation. *)
          check Alcotest.bool "shrunk reproduces" true
            (Exec.fails_invariant f.shrunk.scenario ~invariant:f.invariant))
    Mutation.all

(* [find] knows every listed mutant and nothing else; the churn prefix
   tells recovery bugs apart; each protocol mutant resolves for its base
   algorithm only. *)
let test_mutation_registry () =
  List.iter
    (fun (i : Mutation.info) ->
      check Alcotest.bool (i.name ^ " found") true (Mutation.find i.name = Some i);
      let churn = String.starts_with ~prefix:"churn-" i.name in
      check Alcotest.bool (i.name ^ " is_churn") churn (Mutation.is_churn i.name);
      check Alcotest.bool (i.name ^ " resolves for its base only") true
        (Option.is_some (Mutation.a1_protocol i.name)
         = (i.base = Scenario.A1 && not churn)
        && Option.is_some (Mutation.a2_protocol i.name)
           = (i.base = Scenario.A2 && not churn)))
    Mutation.all;
  check Alcotest.bool "unknown name" true (Mutation.find "no-such-bug" = None);
  check Alcotest.bool "short name is not churn" false (Mutation.is_churn "churn")

let test_graph_specs () =
  List.iter
    (fun (spec, n, max_degree) ->
      let g = Scenario.build_graph spec in
      check Alcotest.int "graph_n" n (Scenario.graph_n spec);
      check Alcotest.int "built order" n (Asyncolor_topology.Graph.n g);
      check Alcotest.int "built degree" max_degree (Asyncolor_topology.Graph.max_degree g))
    Scenario.[ (Cycle 5, 5, 2); (Path 4, 4, 2); (Complete 4, 4, 3); (Star 6, 6, 5) ];
  check Alcotest.(list string) "algo names" [ "1"; "2"; "2s"; "3" ]
    (List.map Scenario.algo_name Scenario.[ A1; A2; A2s; A3 ])

let test_unknown_mutant_rejected () =
  Alcotest.check_raises "unknown mutation"
    (Invalid_argument "Fuzz: unknown mutation \"no-such-bug\"") (fun () ->
      ignore (Fuzz.campaign ~mutation:"no-such-bug" ~seed:1 ~execs:1 ()))

let () =
  Alcotest.run "fuzz"
    [
      ( "scenario",
        [
          Alcotest.test_case "generated scenarios are valid" `Quick
            test_generate_valid;
          Alcotest.test_case "generation is seed-deterministic" `Quick
            test_generate_deterministic;
          Alcotest.test_case "validate rejects malformed scenarios" `Quick
            test_validate_rejects;
          Alcotest.test_case "graph specs" `Quick test_graph_specs;
          Alcotest.test_case "clean scenarios trip no detector" `Quick
            test_clean_scenarios_pass;
          Alcotest.test_case "replay is bit-identical" `Quick
            test_replay_identical;
        ] );
      ( "trace",
        [
          Alcotest.test_case "save/load round-trip and replay" `Quick
            test_trace_roundtrip;
          Alcotest.test_case "corrupt files are rejected" `Quick
            test_trace_corruption;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "minimum still fails, deterministically" `Quick
            test_shrink_preserves_failure;
          Alcotest.test_case "exec budget is honoured" `Quick test_shrink_budget;
          QCheck_alcotest.to_alcotest prop_primitives_shrink;
        ] );
      ( "churn",
        [
          Alcotest.test_case "generation respects the churn dimension" `Quick
            test_churn_generation;
          Alcotest.test_case "drop_churn_event is pair-atomic" `Quick
            test_drop_churn_event_atomic;
          Alcotest.test_case "drop_steps never strands a crash" `Quick
            test_drop_steps_never_strands_a_crash;
          Alcotest.test_case "minimisation keeps pairs intact" `Quick
            test_shrink_keeps_churn_pairs;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "byte-identical across --jobs" `Quick
            test_campaign_jobs_deterministic;
          Alcotest.test_case "clean algorithms yield no findings" `Quick
            test_campaign_clean;
          Alcotest.test_case "corpus persists every finding" `Quick
            test_campaign_corpus;
          Alcotest.test_case "stop flag truncates cleanly" `Quick
            test_campaign_stop;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "every planted bug is caught" `Quick
            test_mutants_caught;
          Alcotest.test_case "unknown mutants are rejected" `Quick
            test_unknown_mutant_rejected;
          Alcotest.test_case "mutation registry" `Quick test_mutation_registry;
        ] );
    ]
