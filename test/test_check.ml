(* Tests for the model checker itself, on protocols whose configuration
   graphs are known by construction. *)

module Explorer = Asyncolor_check.Explorer
module Step = Asyncolor_kernel.Step
module Adversary = Asyncolor_kernel.Adversary
module Builders = Asyncolor_topology.Builders

let check = Alcotest.check

(* Returns its identifier at the k-th activation. *)
module Count (K : sig
  val k : int
end) =
struct
  type state = { ident : int; left : int }
  type register = unit
  type output = int

  let name = "count"
  let init ~ident = { ident; left = K.k }
  let publish _ = ()

  let transition s ~view:_ =
    if s.left <= 1 then Step.Return s.ident else Step.Continue { s with left = s.left - 1 }

  let equal_state a b = a = b
  let equal_register () () = true

  let encode_state emit s =
    emit s.ident;
    emit s.left

  let encode_register _ () = ()
  let encode_output emit (c : output) = emit c
  let decode_state data pos _ = { ident = data.(pos); left = data.(pos + 1) }
  let decode_register _ _ _ = ()
  let decode_output data pos _ : output = data.(pos)
  let pp_state ppf s = Format.fprintf ppf "%d" s.left
  let pp_register ppf () = Format.pp_print_string ppf "()"
  let pp_output = Format.pp_print_int
end

(* Never returns: every configuration with a working process is a self-loop. *)
module Forever = struct
  type state = unit
  type register = unit
  type output = int

  let name = "forever"
  let init ~ident:_ = ()
  let publish () = ()
  let transition () ~view:_ = Step.Continue ()
  let equal_state () () = true
  let equal_register () () = true
  let encode_state _ () = ()
  let encode_register _ () = ()
  let encode_output emit (c : output) = emit c
  let decode_state _ _ _ = ()
  let decode_register _ _ _ = ()
  let decode_output data pos _ : output = data.(pos)
  let pp_state ppf () = Format.pp_print_string ppf "()"
  let pp_register ppf () = Format.pp_print_string ppf "()"
  let pp_output = Format.pp_print_int
end

module One = Count (struct
  let k = 1
end)

module Three = Count (struct
  let k = 3
end)

let g3 = Builders.cycle 3

let test_immediate_return () =
  let module E = Explorer.Make (One) in
  let r = E.explore g3 ~idents:[| 0; 1; 2 |] in
  check Alcotest.bool "complete" true r.complete;
  check Alcotest.bool "wait-free" true r.wait_free;
  check Alcotest.int "exact worst = 1 activation" 1 r.worst_case_activations;
  (* states are {asleep, returned}^3 minus all-asleep...: reachable are
     exactly the 8 subsets of returned processes *)
  check Alcotest.int "configs = 2^3" 8 r.configs;
  check Alcotest.int "one terminal" 1 r.terminal_configs

let test_counting_protocol_worst_case () =
  let module E = Explorer.Make (Three) in
  let r = E.explore g3 ~idents:[| 0; 1; 2 |] in
  check Alcotest.bool "wait-free" true r.wait_free;
  check Alcotest.int "exact worst = 3" 3 r.worst_case_activations;
  check Alcotest.int "configs = 4^3" 64 r.configs

let test_livelock_detected () =
  let module E = Explorer.Make (Forever) in
  let r = E.explore g3 ~idents:[| 0; 1; 2 |] in
  check Alcotest.bool "complete" true r.complete;
  check Alcotest.bool "not wait-free" false r.wait_free;
  match r.livelock with
  | None -> Alcotest.fail "lasso expected"
  | Some v ->
      check Alcotest.bool "non-empty schedule" true (v.schedule <> []);
      (* replay: the lasso's last step must activate a working process of an
         unchanged configuration — running it in an engine never returns *)
      let e = E.E.create g3 ~idents:[| 0; 1; 2 |] in
      List.iter (fun set -> E.E.activate e set) v.schedule;
      check Alcotest.bool "still unfinished" true (E.E.unfinished e <> [])

let test_singleton_mode_smaller () =
  let module E = Explorer.Make (Three) in
  let all = E.explore g3 ~idents:[| 0; 1; 2 |] in
  let single = E.explore ~mode:`Singletons g3 ~idents:[| 0; 1; 2 |] in
  check Alcotest.bool "both complete" true (all.complete && single.complete);
  check Alcotest.bool "singleton graph no bigger" true (single.transitions <= all.transitions);
  check Alcotest.int "same worst case (independent steps)" all.worst_case_activations
    single.worst_case_activations

let test_safety_violation_reported_with_schedule () =
  let module E = Explorer.Make (Asyncolor_shm.Mis.Greedy.P) in
  let check_outputs outs =
    if Asyncolor_shm.Mis.valid g3 outs then None else Some "MIS violated"
  in
  let r = E.explore g3 ~idents:[| 0; 1; 2 |] ~check_outputs in
  check Alcotest.bool "violations found" true (r.safety <> []);
  let v = List.hd r.safety in
  check Alcotest.string "message" "MIS violated" v.message;
  (* the witness schedule must actually reproduce the violation *)
  let module GE = Asyncolor_shm.Mis.Greedy.E in
  let e = GE.create g3 ~idents:[| 0; 1; 2 |] in
  let res = GE.run e (Adversary.finite v.schedule) in
  check Alcotest.bool "replayed violation" false
    (Asyncolor_shm.Mis.valid g3 res.outputs)

let test_max_configs_truncation () =
  let module E = Explorer.Make (Three) in
  let r = E.explore ~max_configs:10 g3 ~idents:[| 0; 1; 2 |] in
  check Alcotest.bool "incomplete" false r.complete;
  check Alcotest.bool "capped" true (r.configs <= 10);
  check Alcotest.int "worst undefined when incomplete" (-1) r.worst_case_activations

let test_deep_path_livelock_dfs () =
  (* regression for the explicit-stack cycle-detection DFS: one Count
     process with a huge activation budget makes the configuration graph a
     single path of 200k nodes — native recursion would overflow the stack
     at this depth, the explicit stack must not *)
  let module Deep = Count (struct
    let k = 200_000
  end) in
  let module E = Explorer.Make (Deep) in
  let r = E.explore ~max_configs:300_000 (Builders.path 1) ~idents:[| 7 |] in
  check Alcotest.bool "complete" true r.complete;
  check Alcotest.bool "wait-free" true r.wait_free;
  check Alcotest.int "configs = k+1" 200_001 r.configs;
  check Alcotest.int "exact worst = k" 200_000 r.worst_case_activations

let test_truncation_sentinel_both_impls () =
  (* the -1 sentinel contract of report.worst_case_activations: a tiny cap
     must yield complete = false and the sentinel, on both implementations
     and for any jobs value *)
  let module E = Explorer.Make (Three) in
  List.iter
    (fun (impl, jobs) ->
      let r = E.explore ~impl ~jobs ~max_configs:5 g3 ~idents:[| 0; 1; 2 |] in
      check Alcotest.bool "truncated" false r.complete;
      check Alcotest.int "sentinel worst case" (-1) r.worst_case_activations)
    [ (`Reference, 1); (`Hashcons, 1); (`Hashcons, 4) ]

let test_max_violations_cap () =
  let module E = Explorer.Make (Asyncolor_shm.Mis.Greedy.P) in
  let check_outputs outs =
    if Asyncolor_shm.Mis.valid g3 outs then None else Some "v"
  in
  let r = E.explore ~max_violations:2 g3 ~idents:[| 0; 1; 2 |] ~check_outputs in
  check Alcotest.bool "capped at 2" true (List.length r.safety <= 2)

(* --- packed activation-subset enumeration ------------------------------ *)

let qtest t = QCheck_alcotest.to_alcotest t

(* A working-process mask with at most 8 set bits, anywhere in the word. *)
let arb_unfinished_mask =
  let gen =
    QCheck.Gen.(
      int_range 0 8 >>= fun k ->
      let rec pick acc = function
        | 0 -> return acc
        | left ->
            int_range 0 (Sys.int_size - 2) >>= fun p ->
            if acc land (1 lsl p) <> 0 then pick acc left
            else pick (acc lor (1 lsl p)) (left - 1)
      in
      pick 0 k)
  in
  QCheck.make ~print:(Printf.sprintf "0x%x") gen

(* [masks_of] must enumerate exactly the subsets [subsets_of] does — not
   only as a set (what correctness needs) but in the same order (what the
   determinism guarantee needs: the order fixes BFS discovery and ids). *)
let prop_masks_match_subsets mode m =
  let procs = Explorer.subset_of_mask m in
  let lists = Explorer.subsets_of mode procs in
  let masks = Array.to_list (Explorer.masks_of mode m) in
  List.map Explorer.mask_of_subset lists = masks
  && List.map Explorer.subset_of_mask masks = lists

let test_masks_all_subsets =
  QCheck.Test.make ~name:"masks_of = subsets_of (all-subsets, k <= 8)"
    ~count:300 arb_unfinished_mask (prop_masks_match_subsets `All_subsets)

let test_masks_singletons =
  QCheck.Test.make ~name:"masks_of = subsets_of (singletons, k <= 8)"
    ~count:300 arb_unfinished_mask (prop_masks_match_subsets `Singletons)

(* --- differential: packed parallel BFS vs the reference Map ------------ *)

(* The packed parallel explorer must be report-identical (counts, verdicts,
   witness schedules, the config ids embedded in livelock messages —
   everything) to the seed [`Reference] implementation on the exhaustive
   instances the paper claims rest on (E6, E13, E16, E17), and identical to
   itself for every [jobs] value and execution policy: the
   deterministic-output guarantee of the pipelined FIFO merge. *)
let diff_report (type s r o)
    (module P : Asyncolor_kernel.Protocol.S
      with type state = s and type register = r and type output = o)
    ?max_configs ?check_outputs ~mode graph ~idents () =
  let module E = Explorer.Make (P) in
  let explore ?jobs ?policy impl =
    E.explore ?max_configs ?check_outputs ~mode ~impl ?jobs ?policy graph
      ~idents
  in
  let report = Alcotest.testable E.pp_report ( = ) in
  let reference = explore `Reference in
  check report "hash-consed jobs=1 = reference" reference (explore `Hashcons);
  check report "hash-consed jobs=2 = reference" reference
    (explore ~jobs:2 `Hashcons);
  check report "hash-consed jobs=4 = reference" reference
    (explore ~jobs:4 `Hashcons);
  (* the full policy × jobs matrix of the async execution core *)
  List.iter
    (fun (name, jobs, policy) ->
      check report (name ^ " = reference") reference
        (explore ~jobs ~policy `Hashcons))
    [
      ("serial", 1, Asyncolor_util.Executor.Serial);
      ("sync jobs=2", 2, Asyncolor_util.Executor.Synchronous);
      ("sync jobs=4", 4, Asyncolor_util.Executor.Synchronous);
      ( "async κ=0.5 jobs=1",
        1,
        Asyncolor_util.Executor.asynchronous ~kappa:0.5 ~jobs:1 () );
      ( "async κ=0.5 jobs=2",
        2,
        Asyncolor_util.Executor.asynchronous ~kappa:0.5 ~jobs:2 () );
      ( "async κ=0.5 jobs=4",
        4,
        Asyncolor_util.Executor.asynchronous ~kappa:0.5 ~jobs:4 () );
      ( "async κ=0 jobs=4",
        4,
        Asyncolor_util.Executor.asynchronous ~kappa:0.0 ~jobs:4 () );
    ]

let test_differential_alg2_c3 () =
  (* the E6/E13 instances: every C3 identifier assignment the experiments
     quote, in both schedule spaces *)
  let c3 = Builders.cycle 3 in
  List.iter
    (fun idents ->
      List.iter
        (fun mode -> diff_report (module Asyncolor.Algorithm2.P) ~mode c3 ~idents ())
        [ `All_subsets; `Singletons ])
    [ [| 5; 1; 9 |]; [| 0; 1; 2 |]; [| 2; 0; 1 |]; [| 7; 3; 5 |] ]

let test_differential_c4 () =
  let c4 = Builders.cycle 4 in
  diff_report (module Asyncolor.Algorithm1.P) ~mode:`Singletons c4
    ~idents:[| 5; 1; 9; 4 |] ();
  diff_report (module Asyncolor.Algorithm2.P) ~mode:`All_subsets c4
    ~idents:[| 5; 1; 9; 4 |] ()

let test_differential_alg3_alg2s () =
  (* E6's Algorithm 3 instance and E17's rank-offset repair (the monotone
     C4 refutation instance) *)
  diff_report (module Asyncolor.Algorithm3.P) ~mode:`All_subsets (Builders.cycle 3)
    ~idents:[| 12; 47; 30 |] ();
  diff_report (module Asyncolor.Algorithm2s.P) ~mode:`All_subsets (Builders.cycle 4)
    ~idents:[| 0; 1; 2; 3 |] ()

let test_differential_e16_k4 () =
  (* the E16 open-problem instance family: Algorithm 2 on a clique under
     interleaved schedules, with the full 2Δ+1 palette/properness predicate
     riding along as a safety check *)
  let k4 = Builders.complete 4 in
  let delta = Asyncolor_topology.Graph.max_degree k4 in
  let check_outputs outs =
    let v =
      Asyncolor.Checker.check ~equal:Int.equal
        ~in_palette:(Asyncolor.Algorithm2.in_general_palette ~max_degree:delta)
        k4 outs
    in
    if Asyncolor.Checker.ok v then None
    else Some (Format.asprintf "%a" Asyncolor.Checker.pp v)
  in
  diff_report (module Asyncolor.Algorithm2.P) ~check_outputs ~mode:`Singletons k4
    ~idents:[| 3; 7; 1; 9 |] ()

let test_differential_safety_and_truncation () =
  (* safety-violation schedules and the max_configs cut-off must agree too *)
  let g = Builders.cycle 3 in
  let check_outputs outs =
    if Asyncolor_shm.Mis.valid g outs then None else Some "MIS violated"
  in
  diff_report (module Asyncolor_shm.Mis.Greedy.P) ~check_outputs ~mode:`All_subsets g
    ~idents:[| 0; 1; 2 |] ();
  diff_report (module Three) ~max_configs:10 ~mode:`All_subsets g ~idents:[| 0; 1; 2 |]
    ()

(* --- crash safety: checkpoints, resume, budgets ------------------------ *)

module Budget = Asyncolor_resilience.Budget
module Checkpoint = Asyncolor_resilience.Checkpoint

let with_temp_ckpt f =
  let path = Filename.temp_file "asyncolor-explorer" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

module E3 = Explorer.Make (Three)

let report3 = Alcotest.testable E3.pp_report ( = )
let baseline3 () = E3.explore g3 ~idents:[| 0; 1; 2 |]

let test_resume_identical_at_every_cut () =
  (* The central resume property: interrupt the exploration after [cut]
     interned configurations — at *every* possible cut of the 64-config
     graph — checkpointing at every boundary, then resume; the final
     report must equal the uninterrupted one, whatever the degree of
     parallelism on the resuming side. *)
  let baseline = baseline3 () in
  with_temp_ckpt (fun path ->
      for cut = 1 to 63 do
        let truncated =
          E3.explore ~checkpoint:(path, 1)
            ~stop:(fun ~configs -> configs >= cut)
            g3 ~idents:[| 0; 1; 2 |]
        in
        check Alcotest.bool
          (Printf.sprintf "cut %d: stop fired at the threshold" cut)
          true
          (truncated.configs >= cut);
        List.iter
          (fun jobs ->
            check report3
              (Printf.sprintf "cut %d resumed with jobs=%d = uninterrupted"
                 cut jobs)
              baseline
              (E3.explore_resume ~jobs path))
          [ 1; 2; 4 ]
      done)

let test_resume_after_parallel_interrupt () =
  (* Interrupt a jobs=4 run (its expansions run ahead of the merge on
     worker domains), resume sequentially and in parallel: same report. *)
  let baseline = baseline3 () in
  with_temp_ckpt (fun path ->
      List.iter
        (fun cut ->
          ignore
            (E3.explore ~jobs:4 ~checkpoint:(path, 1)
               ~stop:(fun ~configs -> configs >= cut)
               g3 ~idents:[| 0; 1; 2 |]);
          check report3
            (Printf.sprintf "parallel cut %d, sequential resume" cut)
            baseline (E3.explore_resume path);
          check report3
            (Printf.sprintf "parallel cut %d, parallel resume" cut)
            baseline
            (E3.explore_resume ~jobs:4 path))
        [ 5; 20; 45 ])

let test_resume_chained () =
  (* A resumed run can itself checkpoint and be interrupted again. *)
  let baseline = baseline3 () in
  with_temp_ckpt (fun path ->
      ignore
        (E3.explore ~checkpoint:(path, 1)
           ~stop:(fun ~configs -> configs >= 15)
           g3 ~idents:[| 0; 1; 2 |]);
      ignore
        (E3.explore_resume ~checkpoint:(path, 1)
           ~stop:(fun ~configs -> configs >= 40)
           path);
      check report3 "two interruptions deep" baseline (E3.explore_resume path))

let test_resume_safety_checks_continue () =
  (* Safety predicates cannot be serialised; re-supplying them on resume
     must reproduce the uninterrupted violation list, ids included. *)
  let module EG = Explorer.Make (Asyncolor_shm.Mis.Greedy.P) in
  let check_outputs outs =
    if Asyncolor_shm.Mis.valid g3 outs then None else Some "MIS violated"
  in
  let report = Alcotest.testable EG.pp_report ( = ) in
  let baseline = EG.explore g3 ~idents:[| 0; 1; 2 |] ~check_outputs in
  with_temp_ckpt (fun path ->
      List.iter
        (fun cut ->
          ignore
            (EG.explore ~checkpoint:(path, 1)
               ~stop:(fun ~configs -> configs >= cut)
               g3 ~idents:[| 0; 1; 2 |] ~check_outputs);
          let resumed = EG.explore_resume path ~check_outputs in
          check report
            (Printf.sprintf "cut %d: violations survive the resume" cut)
            baseline resumed;
          check Alcotest.bool "violations actually present" true
            (resumed.safety <> []))
        [ 3; 10; 30 ])

(* The layout of a version 2 checkpoint payload (the explorer's [ckpt]
   record of that version), with the configurations left opaque: enough
   to read the committed v2 fixture, alter it, and write it back. *)
type v2_payload = {
  v_protocol : string;
  v_graph : Asyncolor_topology.Graph.t;
  v_idents : int array;
  v_mode : [ `All_subsets | `Singletons ];
  v_max_configs : int;
  v_max_violations : int;
  v_next_id : int;
  v_transitions : int;
  v_terminal : int;
  v_complete : bool;
  v_parent_pred : int array;
  v_parent_mask : int array;
  v_adj_off : int array;
  v_adj_data : int array;
  v_safety_rev : (string * int) list;
  v_symmetry : bool;
  v_orbit : int array;
  v_expanded : int * int * int;
  v_keys : int array array;
  v_pending : (int * Obj.t) array;
}

module EA2 = Explorer.Make (Asyncolor.Algorithm2.P)

(* Written by an earlier build: check -a 2 --idents 5,1,9,4 --checkpoint
   ... --checkpoint-every 400 --kill-after 900.  Found next to the test
   executable, where the build copies it. *)
let v2_fixture =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    "../bin/fixtures/ckpt-alg2-c4.bin"

(* A v2 file resumes from the keys of its pending ids; the marshalled
   configurations are only checked against them.  Re-saved unchanged it
   resumes to the uninterrupted report; with two pending configurations
   swapped, each disagrees with the key of its id and the load fails. *)
let test_resume_v2_pending_checked () =
  let (c : v2_payload) = Checkpoint.load ~path:v2_fixture ~version:2 () in
  check Alcotest.bool "fixture has pending entries" true
    (Array.length c.v_pending >= 2);
  let baseline = EA2.explore (Builders.cycle 4) ~idents:[| 5; 1; 9; 4 |] in
  let report = Alcotest.testable EA2.pp_report ( = ) in
  with_temp_ckpt (fun path ->
      Checkpoint.save ~path ~version:2 c;
      check report "unchanged v2 payload resumes" baseline
        (EA2.explore_resume path);
      let pending = Array.copy c.v_pending in
      let (i0, c0), (i1, c1) = (pending.(0), pending.(1)) in
      pending.(0) <- (i0, c1);
      pending.(1) <- (i1, c0);
      Checkpoint.save ~path ~version:2 { c with v_pending = pending };
      match EA2.explore_resume path with
      | _ -> Alcotest.fail "a pending configuration off its key was resumed"
      | exception Checkpoint.Corrupt msg ->
          check Alcotest.bool "says which id" true
            (Astring.String.is_infix ~affix:"disagrees with its key" msg))

let test_resume_info_describes_checkpoint () =
  with_temp_ckpt (fun path ->
      ignore
        (E3.explore ~checkpoint:(path, 1)
           ~stop:(fun ~configs -> configs >= 10)
           g3 ~idents:[| 0; 1; 2 |]);
      let info = E3.resume_info path in
      check Alcotest.int "n" 3 (Asyncolor_topology.Graph.n info.ri_graph);
      check Alcotest.(array int) "idents" [| 0; 1; 2 |] info.ri_idents;
      check Alcotest.bool "progress recorded" true (info.ri_configs >= 10);
      check Alcotest.bool "work left" true (info.ri_pending > 0))

let test_resume_rejects_other_protocol () =
  (* A checkpoint carries its protocol's name; resuming it under another
     protocol functor must fail cleanly, not misinterpret the payload. *)
  with_temp_ckpt (fun path ->
      ignore
        (E3.explore ~checkpoint:(path, 1)
           ~stop:(fun ~configs -> configs >= 10)
           g3 ~idents:[| 0; 1; 2 |]);
      let module EF = Explorer.Make (Forever) in
      match EF.explore_resume path with
      | _ -> Alcotest.fail "expected Corrupt"
      | exception Checkpoint.Corrupt _ -> ())

let test_budget_truncates_cleanly () =
  (* An already-exhausted wall budget must yield a well-formed truncated
     report — complete=false, the -1 sentinel — and no exception, with
     expansion inline (jobs=1) and on worker domains (jobs=4). *)
  List.iter
    (fun jobs ->
      let r =
        E3.explore ~jobs
          ~budget:(Budget.create ~time_s:0.0 ())
          g3 ~idents:[| 0; 1; 2 |]
      in
      check Alcotest.bool "incomplete" false r.complete;
      check Alcotest.int "sentinel" (-1) r.worst_case_activations;
      check Alcotest.bool "root interned" true (r.configs >= 1))
    [ 1; 4 ]

let test_stop_callback_equivalent_to_max_configs_contract () =
  (* Stopping via the callback and truncating via max_configs both leave
     a usable report over a prefix of the same BFS order. *)
  let stopped =
    E3.explore ~stop:(fun ~configs -> configs >= 10) g3 ~idents:[| 0; 1; 2 |]
  in
  check Alcotest.bool "incomplete" false stopped.complete;
  check Alcotest.bool "prefix explored" true
    (stopped.configs >= 10 && stopped.configs < 64)

let test_reference_rejects_crash_options () =
  let expected =
    Invalid_argument
      "Explorer.explore: the `Reference oracle supports neither checkpoints, \
       budgets, stop callbacks, execution policies, symmetry reduction, \
       spilling nor fault injection (use `Hashcons)"
  in
  Alcotest.check_raises "reference oracle has no checkpoint support" expected
    (fun () ->
      ignore
        (E3.explore ~impl:`Reference
           ~stop:(fun ~configs:_ -> false)
           g3 ~idents:[| 0; 1; 2 |]));
  Alcotest.check_raises "reference oracle has no policy support" expected
    (fun () ->
      ignore
        (E3.explore ~impl:`Reference ~policy:Asyncolor_util.Executor.Serial g3
           ~idents:[| 0; 1; 2 |]))

let test_lockhunt_budget_truncates () =
  let module H = Asyncolor_check.Lockhunt.Make (Asyncolor.Algorithm2.P) in
  let g = Builders.cycle 16 in
  let idents = Asyncolor_workload.Idents.increasing 16 in
  let all = H.hunt g ~idents in
  check Alcotest.int "16 edges probed" 16 (List.length all);
  let cut = H.hunt ~budget:(Budget.create ~time_s:0.0 ()) g ~idents in
  check Alcotest.(list (pair int int)) "exhausted budget probes nothing" []
    (H.locked cut);
  check Alcotest.int "no probes ran" 0 (List.length cut);
  let n = ref 0 in
  let some = H.hunt ~stop:(fun () -> incr n; !n > 5) g ~idents in
  check Alcotest.bool "stop callback cuts the hunt short" true
    (List.length some < 16 && List.length some > 0)

(* --- chaos: injected faults are invisible in the report ---------------- *)

module Chaos = Asyncolor_resilience.Chaos
module Spill = Asyncolor_resilience.Spill
module Exec = Asyncolor_util.Executor

(* Checkpoint recovery leaves quarantine/ subdirectories behind. *)
let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_temp_dir f =
  let dir = Filename.temp_file "asyncolor-chaos" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () -> f dir)

let chaos_legs =
  [
    (1, Exec.Serial);
    (2, Exec.Synchronous);
    (4, Exec.Synchronous);
    (2, Exec.asynchronous ~kappa:0.5 ~jobs:2 ());
    (4, Exec.asynchronous ~kappa:0.5 ~jobs:4 ());
  ]

(* One chaos leg, run the way a real disk fault is recovered from:
   nothing is retried, so an injected fault truncates a hop (or, while
   the analyses read spilled levels back, ends it with [Corrupt]); the
   next hop resumes from the last good checkpoint, or starts afresh if
   none was saved yet.  Hop [h] draws its faults from [seed + h], since
   the fault schedule restarts with every injector.  Returns the
   completing hop's report and the number of truncated hops, or [None]
   if no hop completed within [max_hops]. *)
let chaos_hops ~seed ~rate ~max_hops ~jobs ~policy =
  with_temp_dir (fun dir ->
      let ckpt = Filename.concat dir "c.ckpt" in
      let rec hop h =
        if h = max_hops then None
        else
          let chaos = Chaos.create ~seed:(seed + h) ~rate () in
          let spill = (Spill.create ~chaos ~dir:(Filename.concat dir "spill") (), 0) in
          let checkpoint = (ckpt, 8) in
          match
            if
              Sys.file_exists ckpt
              || Sys.file_exists (Checkpoint.rotated_path ckpt)
            then E3.explore_resume ~jobs ~policy ~checkpoint ~spill ~chaos ckpt
            else
              E3.explore ~jobs ~policy ~checkpoint ~spill ~chaos g3
                ~idents:[| 0; 1; 2 |]
          with
          | r when r.complete -> Some (r, h)
          | _ | (exception Checkpoint.Corrupt _) -> hop (h + 1)
      in
      hop 0)

(* S3: the report reached through resume hops equals the fault-free one,
   with checkpoint saves and spilling both armed, across jobs 1/2/4 and
   all three execution policies.  Each leg draws from its own seeds.  At
   this rate one leg in ten goes untruncated and legs take two hops on
   average, ten at most over 500 sampled legs: all five legs escape
   truncation about once in 10^5 cases, and the bound is far out of
   reach. *)
let prop_chaos_differential =
  QCheck.Test.make ~count:4
    ~name:"fault-injected report = fault-free report by resume hops"
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let baseline = baseline3 () in
      let truncated = ref 0 in
      let agree =
        List.for_all
          (fun (i, (jobs, policy)) ->
            match
              chaos_hops ~seed:(seed + (1000 * i)) ~rate:0.01 ~max_hops:32
                ~jobs ~policy
            with
            | Some (r, hops) ->
                truncated := !truncated + hops;
                r = baseline
            | None -> false)
          (List.mapi (fun i leg -> (i, leg)) chaos_legs)
      in
      agree && !truncated > 0)

let test_chaos_failed_save_truncates_cleanly () =
  (* A failed checkpoint save is not an error: the run ends early with
     complete=false, no exception, no stale tmp. *)
  with_temp_dir (fun dir ->
      let ckpt = Filename.concat dir "c.ckpt" in
      let chaos = Chaos.create ~seed:3 ~rate:1.0 ~sites:[ "checkpoint" ] () in
      let r = E3.explore ~checkpoint:(ckpt, 8) ~chaos g3 ~idents:[| 0; 1; 2 |] in
      check Alcotest.bool "report truncated, not crashed" false r.complete;
      check Alcotest.int "truncation sentinel" (-1) r.worst_case_activations;
      check Alcotest.bool "prefix explored before the cut" true (r.configs >= 8);
      check Alcotest.bool "no stale tmp left behind" false
        (Sys.file_exists (ckpt ^ ".tmp")))

let test_chaos_spill_failure_truncates_at_seal () =
  (* S1: a spill write that fails — including the background writes the
     parallel builder hands to the executor — surfaces as a clean
     truncation at the seal/merge boundary, never as a crash. *)
  List.iter
    (fun jobs ->
      with_temp_dir (fun dir ->
          let chaos =
            Chaos.create ~seed:5 ~rate:1.0 ~sites:[ "spill.write" ] ()
          in
          let sp = Spill.create ~chaos ~dir:(Filename.concat dir "spill") () in
          let r = E3.explore ~jobs ~spill:(sp, 0) ~chaos g3 ~idents:[| 0; 1; 2 |] in
          check Alcotest.bool
            (Printf.sprintf "jobs=%d: truncated cleanly" jobs)
            false r.complete;
          check Alcotest.bool "made progress before the failure" true
            (r.configs >= 1)))
    [ 1; 4 ]

(* Every spilled level is read back for the analyses after the BFS; a
   level that cannot be read ends the run with [Corrupt] naming its file
   (the CLI turns it into an [io:] line and exit 2), never as an internal
   error. *)
let test_chaos_spill_read_failure_names_file () =
  List.iter
    (fun jobs ->
      with_temp_dir (fun dir ->
          let chaos = Chaos.create ~seed:5 ~rate:1.0 ~sites:[ "spill.read" ] () in
          let sp = Spill.create ~chaos ~dir:(Filename.concat dir "spill") () in
          match E3.explore ~jobs ~spill:(sp, 0) ~chaos g3 ~idents:[| 0; 1; 2 |] with
          | _ -> Alcotest.failf "jobs=%d: expected Corrupt" jobs
          | exception Checkpoint.Corrupt msg ->
              check Alcotest.bool
                (Printf.sprintf "jobs=%d: message names a level file (%s)" jobs msg)
                true
                (Astring.String.is_infix ~affix:(Filename.concat dir "spill") msg
                && Astring.String.is_infix ~affix:".spill" msg)))
    [ 1; 4 ]

(* --- lockhunt ---------------------------------------------------------- *)

let test_lockhunt_alg1_immune () =
  let module H = Asyncolor_check.Lockhunt.Make (Asyncolor.Algorithm1.P) in
  let g = Builders.cycle 16 in
  let idents = Asyncolor_workload.Idents.random_permutation
      (Asyncolor_util.Prng.create ~seed:42) 16
  in
  check Alcotest.(list (pair int int)) "no pair locks Algorithm 1" []
    (H.locked (H.hunt g ~idents))

let test_lockhunt_alg2_finds_locks () =
  let module H = Asyncolor_check.Lockhunt.Make (Asyncolor.Algorithm2.P) in
  let g = Builders.cycle 32 in
  let idents = Asyncolor_workload.Idents.random_permutation
      (Asyncolor_util.Prng.create ~seed:33) 32
  in
  let findings = H.hunt g ~idents in
  let locked = H.locked findings in
  check Alcotest.bool "at least one pair locks" true (locked <> []);
  (* every reported lock is genuine: both processes worked for ~the whole
     step budget without returning *)
  List.iter
    (fun (f : H.finding) ->
      if f.locked then begin
        let a, b = f.pair_activations in
        check Alcotest.bool "pair really worked" true (a > 100 && b > 100)
      end)
    findings

let test_lockhunt_probe_single_pair () =
  let module H = Asyncolor_check.Lockhunt.Make (Asyncolor.Algorithm2.P) in
  let g = Builders.cycle 3 in
  (* the F1 pair on C3 (5,1,9): isolating (1,2) drains p0 then locks *)
  let f = H.probe g ~idents:[| 5; 1; 9 |] (1, 2) in
  check Alcotest.bool "locks" true f.locked

(* --- adaptive adversary ------------------------------------------------- *)

module Adaptive2 = Asyncolor_check.Adaptive.Make (Asyncolor.Algorithm2.P)
module Adaptive1 = Asyncolor_check.Adaptive.Make (Asyncolor.Algorithm1.P)

let test_adaptive_matches_exact_worst () =
  (* greedy one-step lookahead achieves the exhaustive exact worst case on
     C3 (3 activations, from E6/E13) *)
  let r =
    Adaptive2.worst_rounds ~mode:`Singletons (Builders.cycle 3) ~idents:[| 5; 1; 9 |]
  in
  check Alcotest.bool "terminates" true r.all_returned;
  check Alcotest.int "matches exact worst" 3 r.rounds

let test_adaptive_rediscovers_phase_lock () =
  (* with simultaneous sets allowed, the greedy scheduler drives Algorithm 2
     into the F1 livelock on its own *)
  let r =
    Adaptive2.worst_rounds ~mode:`All_subsets ~max_steps:300 (Builders.cycle 3)
      ~idents:[| 5; 1; 9 |]
  in
  check Alcotest.bool "never terminates" false r.all_returned;
  check Alcotest.int "ran to the cap" 300 r.steps

let test_adaptive_cannot_lock_alg1 () =
  let r =
    Adaptive1.worst_rounds ~mode:`All_subsets ~max_steps:300 (Builders.cycle 8)
      ~idents:(Asyncolor_workload.Idents.random_permutation
                 (Asyncolor_util.Prng.create ~seed:5) 8)
  in
  check Alcotest.bool "Algorithm 1 terminates even under the malicious scheduler"
    true r.all_returned

let test_adaptive_singleton_monotone_growth () =
  (* the greedy interleaved worst case grows with n on monotone rings *)
  let worst n =
    (Adaptive2.worst_rounds ~mode:`Singletons (Builders.cycle n)
       ~idents:(Asyncolor_workload.Idents.increasing n))
      .rounds
  in
  let w4 = worst 4 and w16 = worst 16 in
  check Alcotest.bool "grows" true (w16 > w4);
  check Alcotest.bool "bounded by theorem" true
    (w16 <= Asyncolor.Algorithm2.activation_bound 16)

(* --- observability: run-shape counters ---------------------------------- *)

module Obs = Asyncolor_obs.Obs
module E2 = Explorer.Make (Asyncolor.Algorithm2.P)

let traced_c3 ?jobs ?policy () =
  let obs = Obs.create () in
  ignore (E2.explore ?jobs ?policy ~obs g3 ~idents:[| 5; 1; 9 |]);
  Obs.metrics obs

let test_peak_heap_sampled_on_small_runs () =
  (* A C3 run merges far fewer than 1024 entries; the sample taken where
     the loop exits must still land. *)
  let heap = List.assoc "explorer.peak_heap_words" (traced_c3 ()) in
  check Alcotest.bool "explorer.peak_heap_words > 0" true (heap > 0)

let test_level_accounting_policy_independent () =
  (* Levels are read off the one merge order, so every policy and job
     count reports the same BFS shape. *)
  let module Exec = Asyncolor_util.Executor in
  let shape (name, jobs, policy) =
    let m = traced_c3 ~jobs ~policy () in
    ( name,
      (List.assoc "explorer.levels" m, List.assoc "explorer.frontier_max" m) )
  in
  let rows =
    List.map shape
      [
        ("serial", 1, Exec.Serial);
        ("sync jobs=2", 2, Exec.Synchronous);
        ("sync jobs=4", 4, Exec.Synchronous);
        ("async κ=0.5 jobs=1", 1, Exec.asynchronous ~kappa:0.5 ~jobs:1 ());
        ("async κ=0.5 jobs=2", 2, Exec.asynchronous ~kappa:0.5 ~jobs:2 ());
        ("async κ=0.5 jobs=4", 4, Exec.asynchronous ~kappa:0.5 ~jobs:4 ());
        ("async κ=0 jobs=4", 4, Exec.asynchronous ~kappa:0.0 ~jobs:4 ());
      ]
  in
  let _, ((levels, frontier) as first) = List.hd rows in
  check Alcotest.bool "levels > 0" true (levels > 0);
  check Alcotest.bool "frontier_max > 0" true (frontier > 0);
  List.iter
    (fun (name, row) ->
      check Alcotest.(pair int int) (name ^ ": (levels, frontier_max)") first row)
    rows

let () =
  Alcotest.run "check"
    [
      ( "adaptive",
        [
          Alcotest.test_case "matches exact worst" `Quick test_adaptive_matches_exact_worst;
          Alcotest.test_case "rediscovers F1 lock" `Quick
            test_adaptive_rediscovers_phase_lock;
          Alcotest.test_case "cannot lock alg1" `Quick test_adaptive_cannot_lock_alg1;
          Alcotest.test_case "monotone growth" `Quick
            test_adaptive_singleton_monotone_growth;
        ] );
      ( "lockhunt",
        [
          Alcotest.test_case "alg1 immune" `Quick test_lockhunt_alg1_immune;
          Alcotest.test_case "alg2 locks found" `Quick test_lockhunt_alg2_finds_locks;
          Alcotest.test_case "probe F1 pair" `Quick test_lockhunt_probe_single_pair;
        ] );
      ( "explorer",
        [
          Alcotest.test_case "immediate return" `Quick test_immediate_return;
          Alcotest.test_case "counting worst case" `Quick
            test_counting_protocol_worst_case;
          Alcotest.test_case "livelock detected" `Quick test_livelock_detected;
          Alcotest.test_case "singleton mode" `Quick test_singleton_mode_smaller;
          Alcotest.test_case "safety with witness schedule" `Quick
            test_safety_violation_reported_with_schedule;
          Alcotest.test_case "max_configs truncation" `Quick
            test_max_configs_truncation;
          Alcotest.test_case "truncation sentinel (both impls)" `Quick
            test_truncation_sentinel_both_impls;
          Alcotest.test_case "deep-path explicit-stack DFS" `Quick
            test_deep_path_livelock_dfs;
          Alcotest.test_case "max_violations cap" `Quick test_max_violations_cap;
        ] );
      ( "packed-enumeration",
        [ qtest test_masks_all_subsets; qtest test_masks_singletons ] );
      ( "differential",
        [
          Alcotest.test_case "alg2 on C3 (E6/E13)" `Quick test_differential_alg2_c3;
          Alcotest.test_case "alg1/alg2 on C4" `Quick test_differential_c4;
          Alcotest.test_case "alg3 & alg2s (E6/E17)" `Quick
            test_differential_alg3_alg2s;
          Alcotest.test_case "alg2 on K4 (E16)" `Quick test_differential_e16_k4;
          Alcotest.test_case "safety schedules & truncation" `Quick
            test_differential_safety_and_truncation;
        ] );
      ( "crash-safety",
        [
          Alcotest.test_case "resume identical at every cut" `Quick
            test_resume_identical_at_every_cut;
          Alcotest.test_case "resume after parallel interrupt" `Quick
            test_resume_after_parallel_interrupt;
          Alcotest.test_case "chained interruptions" `Quick test_resume_chained;
          Alcotest.test_case "safety checks survive resume" `Quick
            test_resume_safety_checks_continue;
          Alcotest.test_case "resume_info metadata" `Quick
            test_resume_info_describes_checkpoint;
          Alcotest.test_case "v2 pending checked against keys" `Quick
            test_resume_v2_pending_checked;
          Alcotest.test_case "protocol mismatch rejected" `Quick
            test_resume_rejects_other_protocol;
          Alcotest.test_case "budget truncates cleanly" `Quick
            test_budget_truncates_cleanly;
          Alcotest.test_case "stop callback contract" `Quick
            test_stop_callback_equivalent_to_max_configs_contract;
          Alcotest.test_case "reference rejects crash options" `Quick
            test_reference_rejects_crash_options;
          Alcotest.test_case "lockhunt budget/stop truncation" `Quick
            test_lockhunt_budget_truncates;
        ] );
      ( "chaos",
        [
          qtest prop_chaos_differential;
          Alcotest.test_case "failed save truncates cleanly" `Quick
            test_chaos_failed_save_truncates_cleanly;
          Alcotest.test_case "spill failure truncates at seal" `Quick
            test_chaos_spill_failure_truncates_at_seal;
          Alcotest.test_case "spill read failure names the file" `Quick
            test_chaos_spill_read_failure_names_file;
        ] );
      ( "observability",
        [
          Alcotest.test_case "peak heap sampled on small runs" `Quick
            test_peak_heap_sampled_on_small_runs;
          Alcotest.test_case "level accounting policy-independent" `Quick
            test_level_accounting_policy_independent;
        ] );
    ]
