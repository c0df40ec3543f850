(* Benchmark harness.

   Running `dune exec bench/main.exe` does two things:

   1. regenerates every experiment of the reproduction index (DESIGN.md /
      EXPERIMENTS.md) at full size, printing the tables the paper's claims
      are checked against — this is the analogue of "reproducing every
      table and figure";

   2. times a representative kernel of each experiment with Bechamel (one
      Test.make per experiment, plus micro-benchmarks of the simulation
      engine itself), reporting ns/run estimates;

   3. runs the explore-scale section: wall-clock measurements of the
      parallel packed explorer on the exhaustive frontier instances
      (K4-K6 quick; C6 full-model and K7 at full size).  Each instance
      runs three legs — jobs=1 Serial, jobs=4 Synchronous (level
      barrier) and jobs=4 Asynchronous (κ-overlapped pipeline) — all
      three reports are asserted identical, and the per-level barrier
      wait of the two parallel legs is compared off the explorer.wait_ns
      obs counter (also recorded under "explore_scale" in the --json
      output).

   4. runs the churn-scale section: activation throughput and
      recovery-latency percentiles of the crash-recovery session engine
      (quick: C20; full: the acceptance-scale C62 campaigns), serial vs
      jobs=4 with the reports asserted identical.  The rows land under
      "churn" in the --json record and feed the CI perf-regression gate
      (scripts/check_bench_regression.py vs BENCH_seed.json).

   Flags: --quick (reduced experiment sizes), --no-bench, --no-experiments,
   --scale-only (skip the experiments and the Bechamel kernels: only the
   explore-scale section runs — the CI quick-bench legs),
   --exec-policy sync|async (which jobs=4 leg the --trace-out trace and
   the jobs4_seconds JSON key follow; default sync), --kappa K (overlap
   fraction of the async leg; default 0.5),
   --seed N (base offset added to every kernel's PRNG seed; default 0
   keeps the historical workloads — the effective value is printed on
   stderr so any run is reproducible),
   --csv DIR (also dump every experiment table as CSV into DIR),
   --json PATH (dump a machine-readable record of every experiment row and
   benchmark estimate to PATH), --jobs N (domains for the experiment fan-out;
   defaults to 1 so the timings stay on an otherwise-idle machine),
   --time-budget SEC (wall-clock budget for the explore-scale section:
   instances that would overrun are cut short with a note instead of
   blowing a CI job timeout), --checkpoint PATH (explore-scale instances
   checkpoint to PATH so a cancelled deep run leaves a resumable
   artifact behind — see HACKING.md, "Crash-safe model checking"),
   --trace-out PATH (Chrome trace_event trace of the explore-scale
   section, for Perfetto; enables the obs sink), --metrics (record the
   obs counter/gauge totals — with --json they land under "obs_metrics"
   in the report, otherwise they print to stderr).

   The symmetry-scale section (see run_symmetry_scale) adds:
   --mem-budget-mb N (override the per-instance heap budgets its legs run
   under — the CI memory-capped leg), --spill-dir DIR (where the
   symmetry+spill legs put their level files; default a pid-suffixed
   directory under the system temp dir), --spill-threshold-mb N (level
   size for those legs; default 1 MB so every full-size leg actually
   spills), --sym-full (run the full-size C7/C8 symmetry instances even
   under --quick — how the committed BENCH baseline gets its headline
   rows without dragging the full K7 explore-scale leg along).  Its
   per-instance "symmetry reduction:" stdout lines and the
   "symmetry_scale" JSON list are what the CI reduction check parses. *)

open Bechamel
open Toolkit
module Adversary = Asyncolor_kernel.Adversary
module Builders = Asyncolor_topology.Builders
module Idents = Asyncolor_workload.Idents
module Prng = Asyncolor_util.Prng
module Table = Asyncolor_workload.Table
module Obs = Asyncolor_obs.Obs
module Oclock = Asyncolor_obs.Clock
module Trace_export = Asyncolor_obs.Trace_export
module Executor = Asyncolor_util.Executor

(* --- benchmark kernels, one per experiment --------------------------- *)

(* Base offset for every PRNG seed below, settable with --seed.  The
   default of 0 keeps the historical seeds (1..12), so default output is
   unchanged; any other value re-randomises every kernel reproducibly.
   The effective value is announced on stderr (see main). *)
let seed_base = ref 0

let seed k = !seed_base + k

let run_alg1 n =
  let idents = Idents.increasing n in
  fun () -> ignore (Asyncolor.Algorithm1.run_on_cycle ~idents Adversary.synchronous)

let run_alg2 n =
  let idents = Idents.increasing n in
  fun () -> ignore (Asyncolor.Algorithm2.run_on_cycle ~idents Adversary.synchronous)

let run_alg3 n =
  let idents = Idents.increasing n in
  fun () -> ignore (Asyncolor.Algorithm3.run_on_cycle ~idents Adversary.synchronous)

let e2_palette_check () =
  let n = 32 in
  let graph = Builders.cycle n in
  let idents = Idents.random_permutation (Prng.create ~seed:(seed 1)) n in
  let r = Asyncolor.Algorithm1.run_on_cycle ~idents Adversary.synchronous in
  fun () ->
    ignore
      (Asyncolor.Checker.check
         ~equal:(fun a b -> a = b)
         ~in_palette:(Asyncolor.Color.pair_in_palette ~budget:2)
         graph r.outputs)

let e5_crossover () =
  let idents = Idents.increasing 256 in
  fun () ->
    ignore (Asyncolor.Algorithm2.run_on_cycle ~idents Adversary.synchronous);
    ignore (Asyncolor.Algorithm3.run_on_cycle ~idents Adversary.synchronous)

let e6_exhaustive_c3 () =
  let module Exp = Asyncolor_check.Explorer.Make (Asyncolor.Algorithm2.P) in
  let g = Builders.cycle 3 in
  fun () -> ignore (Exp.explore ~mode:`Singletons g ~idents:[| 5; 1; 9 |])

let e7_mis_explore () =
  let module Exp = Asyncolor_check.Explorer.Make (Asyncolor_shm.Mis.Greedy.P) in
  let g = Builders.cycle 4 in
  fun () -> ignore (Exp.explore g ~idents:[| 0; 1; 2; 3 |])

let e8_crash_run () =
  let n = 256 in
  let idents = Idents.random_permutation (Prng.create ~seed:(seed 2)) n in
  fun () ->
    let adv =
      Adversary.random_crashes (Prng.create ~seed:(seed 3)) ~n ~rate:0.3 ~horizon:10
        (Adversary.random_subsets (Prng.create ~seed:(seed 4)) ~p:0.7)
    in
    ignore (Asyncolor.Algorithm3.run_on_cycle ~max_steps:100_000 ~idents adv)

let e9_cv_reduction () =
  let prng = Prng.create ~seed:(seed 5) in
  let pairs =
    Array.init 4_096 (fun _ -> (Prng.int prng (1 lsl 50), Prng.int prng (1 lsl 50)))
  in
  fun () -> Array.iter (fun (x, y) -> ignore (Asyncolor_cv.Reduce.f x y)) pairs

let e10_general () =
  let g = Builders.grid 8 8 in
  let idents = Idents.random_permutation (Prng.create ~seed:(seed 6)) 64 in
  fun () -> ignore (Asyncolor.Algorithm4.run g ~idents Adversary.synchronous)

let e11_local_cv () =
  let idents = Idents.random_permutation (Prng.create ~seed:(seed 7)) 65_536 in
  fun () -> ignore (Asyncolor_local.Cole_vishkin_ring.three_color idents)

let e12_renaming () =
  let idents = Idents.random_sparse (Prng.create ~seed:(seed 8)) ~n:16 ~universe:1_000 in
  fun () -> ignore (Asyncolor_shm.Renaming.run ~n:16 ~idents Adversary.synchronous)

let e13_locked_stepping () =
  let module E2 = Asyncolor.Algorithm2.E in
  fun () ->
    let e = E2.create (Builders.cycle 3) ~idents:[| 5; 1; 9 |] in
    E2.activate e [ 0 ];
    E2.activate e [ 1 ];
    E2.activate e [ 2 ];
    for _ = 1 to 200 do
      E2.activate e [ 1; 2 ]
    done

let e14_decoupled () =
  let n = 4_096 in
  let prng = Prng.create ~seed:(seed 9) in
  let universe = 4 * n in
  let idents = Idents.random_sparse prng ~n ~universe in
  fun () ->
    let d = Asyncolor_local.Decoupled_ring.create ~idents ~universe in
    ignore (Asyncolor_local.Decoupled_ring.run Adversary.synchronous d)

let e15_linial () =
  let g = Builders.grid 8 8 in
  let idents = Idents.random_permutation (Prng.create ~seed:(seed 10)) 64 in
  fun () -> ignore (Asyncolor_local.Linial.color_delta_plus_one g ~idents)

let e16_alg2_general () =
  let g = Builders.complete 8 in
  let idents = Idents.random_permutation (Prng.create ~seed:(seed 11)) 8 in
  fun () ->
    ignore (Asyncolor.Algorithm2.run_on_graph g ~idents Adversary.synchronous)

let e17_alg2s () =
  let idents = Idents.increasing 256 in
  fun () -> ignore (Asyncolor.Algorithm2s.run_on_cycle ~idents Adversary.synchronous)

let e18_bit_accounting () =
  let prng = Prng.create ~seed:(seed 12) in
  let xs = Array.init 4_096 (fun _ -> Prng.int prng (1 lsl 50)) in
  fun () -> Array.iter (fun x -> ignore (Asyncolor_cv.Bits.length x)) xs

let engine_activate_throughput () =
  let module E3 = Asyncolor.Algorithm3.E in
  let n = 1_024 in
  let g = Builders.cycle n in
  let idents = Idents.increasing n in
  let all = List.init n Fun.id in
  fun () ->
    let e = E3.create g ~idents in
    E3.activate e all

let mex_kernel () =
  let lists = Array.init 256 (fun i -> [ i mod 5; (i + 1) mod 7; i mod 3; 0; 1 ]) in
  fun () -> Array.iter (fun l -> ignore (Asyncolor_util.Mex.of_list l)) lists

(* A function, not a value: the kernels above draw from their PRNGs when
   instantiated, which must happen after --seed is parsed. *)
let tests () =
  [
    Test.make ~name:"e1_alg1_termination(n=64)" (Staged.stage (run_alg1 64));
    Test.make ~name:"e2_alg1_palette(n=32)" (Staged.stage (e2_palette_check ()));
    Test.make ~name:"e3_alg2_linear(n=128)" (Staged.stage (run_alg2 128));
    Test.make ~name:"e4_alg3_logstar(n=4096)" (Staged.stage (run_alg3 4096));
    Test.make ~name:"e5_crossover(n=256)" (Staged.stage (e5_crossover ()));
    Test.make ~name:"e6_c3_exhaustive" (Staged.stage (e6_exhaustive_c3 ()));
    Test.make ~name:"e7_mis_explore(C4)" (Staged.stage (e7_mis_explore ()));
    Test.make ~name:"e8_crash_tolerance(n=256)" (Staged.stage (e8_crash_run ()));
    Test.make ~name:"e9_cv_reduction(4096 pairs)" (Staged.stage (e9_cv_reduction ()));
    Test.make ~name:"e10_general_graphs(grid8x8)" (Staged.stage (e10_general ()));
    Test.make ~name:"e11_local_cv(n=65536)" (Staged.stage (e11_local_cv ()));
    Test.make ~name:"e12_renaming(n=16)" (Staged.stage (e12_renaming ()));
    Test.make ~name:"e13_locked_stepping(200 rounds)"
      (Staged.stage (e13_locked_stepping ()));
    Test.make ~name:"e14_decoupled(n=4096)" (Staged.stage (e14_decoupled ()));
    Test.make ~name:"e15_linial(grid8x8,to Δ+1)" (Staged.stage (e15_linial ()));
    Test.make ~name:"e16_alg2_general(K8)" (Staged.stage (e16_alg2_general ()));
    Test.make ~name:"e17_alg2s(n=256)" (Staged.stage (e17_alg2s ()));
    Test.make ~name:"e18_bit_accounting(4096)" (Staged.stage (e18_bit_accounting ()));
    Test.make ~name:"engine_activate(n=1024)"
      (Staged.stage (engine_activate_throughput ()));
    Test.make ~name:"mex(256 lists)" (Staged.stage (mex_kernel ()));
  ]

(* --- explore-scale: wall-clock scaling of the parallel explorer ------- *)

(* The exhaustive frontier the parallel packed explorer is meant to push:
   the E16 renaming cliques under interleaved schedules (quick: K4-K6;
   full: K7, the past-n=5 headline instance) and the E17 cycles in the
   full simultaneous model (full: C6).  Each instance runs at --jobs 1 and
   --jobs 4 and the two reports are asserted identical — the bench doubles
   as an end-to-end determinism check on real workloads. *)
let explore_scale_instances ~quick =
  let base =
    [
      ("K4/interleaved", Builders.complete 4, [| 3; 7; 1; 9 |], `Singletons,
       2_000_000);
      ("K5/interleaved", Builders.complete 5, [| 3; 7; 1; 9; 5 |], `Singletons,
       2_000_000);
      ("K6/interleaved", Builders.complete 6, [| 3; 7; 1; 9; 5; 11 |],
       `Singletons, 2_000_000);
    ]
  in
  if quick then base
  else
    base
    @ [
        ("C6/simultaneous", Builders.cycle 6, [| 5; 1; 9; 4; 7; 2 |],
         `All_subsets, 2_000_000);
        ("K7/interleaved", Builders.complete 7, [| 3; 7; 1; 9; 5; 11; 2 |],
         `Singletons, 40_000_000);
      ]

(* Everything the JSON record needs about one explore-scale instance:
   timings of the three legs and the per-level barrier-wait accounting of
   the two parallel ones.  Wait fields are [None] when the obs sink was
   off (no --trace-out/--metrics): the explorer.wait_ns counter only
   accumulates on an enabled sink. *)
type scale_record = {
  sr_name : string;
  sr_configs : int;
  sr_transitions : int;
  sr_complete : bool;
  sr_serial_s : float;
  sr_sync_s : float;
  sr_async_s : float;
  sr_levels : int;
  sr_sync_wait_ns : int option;
  sr_async_wait_ns : int option;
  sr_overlap_submits : int option;
  sr_peak_live_words : int;
      (* major-heap footprint of the serial leg (Gc.quick_stat after the
         run, Gc.compact before it), the number a --mem-budget-mb limit
         is compared against *)
  sr_orbit_ratio : float;
      (* expanded/interned configs; 1.0 for these unreduced legs *)
}

(* Peak-footprint probe shared by the scale sections: compact, note the
   baseline the previous legs left behind (compaction does not always
   return every fragmented pool, so the baseline is rarely zero), run
   the leg, report the leg's own footprint growth.  The heap never
   shrinks between compactions, so the post-run read is the leg's
   high-water mark. *)
(* Run [f] on a freshly compacted heap: its result, its wall-clock
   seconds and its heap growth in words.  The clock starts after the
   compaction, so a leg's time is the leg's own work. *)
let timed_with_peak_words f =
  Gc.compact ();
  let base = (Gc.quick_stat ()).Gc.heap_words in
  let t0 = Oclock.monotonic () in
  let r = f () in
  let dt = Int64.to_float (Int64.sub (Oclock.monotonic ()) t0) /. 1e9 in
  (r, dt, max 0 ((Gc.quick_stat ()).Gc.heap_words - base))

let run_explore_scale ~quick ~budget ~checkpoint ~obs ~traced_policy ~kappa =
  let module Exp = Asyncolor_check.Explorer.Make (Asyncolor.Algorithm2.P) in
  print_endline
    "\n\
     === explore-scale: parallel packed explorer, wall clock (serial / sync \
     j4 / async j4) ===";
  let table =
    Table.create
      ~headers:
        [
          "instance"; "configs"; "complete"; "serial (s)"; "sync j4 (s)";
          "async j4 (s)"; "speedup (async)"; "wait/level sync";
          "wait/level async";
        ]
  in
  let ckpt = Option.map (fun path -> (path, 500_000)) checkpoint in
  let metric m name = Option.value ~default:0 (List.assoc_opt name m) in
  let records =
    List.map
      (fun (name, graph, idents, mode, cap) ->
        (* Timings come off the obs layer's monotonic clock (see
           EXPERIMENTS.md).  The leg matching --exec-policy writes into
           the shared --trace-out sink; the other parallel leg gets a
           private sink so its wait counters are still measured without
           polluting the trace.  Per-leg counter values are deltas, so
           the shared (accumulating) sink reads the same as a private
           one. *)
        let time ~policy ~jobs ~leg_obs =
          let before = Obs.metrics leg_obs in
          let r, dt, peak =
            timed_with_peak_words (fun () ->
                Exp.explore ~mode ~max_configs:cap ~jobs ~policy ?budget
                  ?checkpoint:ckpt ~obs:leg_obs graph ~idents)
          in
          let after = Obs.metrics leg_obs in
          let d name = metric after name - metric before name in
          (r, dt, d "explorer.wait_ns", d "explorer.levels",
           d "explorer.overlap_submits", peak)
        in
        let leg_obs leg =
          if not (Obs.enabled obs) then Obs.disabled
          else if leg = traced_policy then obs
          else Obs.create ()
        in
        let r1, dt1, _, _, _, peak1 =
          time ~policy:Executor.Serial ~jobs:1 ~leg_obs:Obs.disabled
        in
        let rs, dts, wait_s, levels, _, _ =
          time ~policy:Executor.Synchronous ~jobs:4 ~leg_obs:(leg_obs "sync")
        in
        let ra, dta, wait_a, _, overlap, _ =
          time
            ~policy:(Executor.asynchronous ~kappa ~jobs:4 ())
            ~jobs:4 ~leg_obs:(leg_obs "async")
        in
        (* A tripped budget cuts the legs at different points, so the
           byte-identity assertion only applies to complete runs. *)
        if r1.complete && rs.complete && r1 <> rs then
          failwith (name ^ ": serial and sync reports differ (determinism bug)");
        if r1.complete && ra.complete && r1 <> ra then
          failwith (name ^ ": serial and async reports differ (determinism bug)");
        if (not r1.complete) || (not rs.complete) || not ra.complete then
          Printf.printf "%s: cut short (budget or cap) — partial timings\n" name;
        let measured = Obs.enabled obs in
        let per_level w =
          if not measured then "-"
          else
            Printf.sprintf "%.2fms"
              (float_of_int w /. Float.max (float_of_int levels) 1. /. 1e6)
        in
        Table.add_row table
          [
            name;
            string_of_int r1.configs;
            string_of_bool r1.complete;
            Printf.sprintf "%.2f" dt1;
            Printf.sprintf "%.2f" dts;
            Printf.sprintf "%.2f" dta;
            Printf.sprintf "%.2fx" (dt1 /. Float.max dta 1e-9);
            per_level wait_s;
            per_level wait_a;
          ];
        {
          sr_name = name;
          sr_configs = r1.configs;
          sr_transitions = r1.transitions;
          sr_complete = r1.complete;
          sr_serial_s = dt1;
          sr_sync_s = dts;
          sr_async_s = dta;
          sr_levels = levels;
          sr_sync_wait_ns = (if measured then Some wait_s else None);
          sr_async_wait_ns = (if measured then Some wait_a else None);
          sr_overlap_submits = (if measured then Some overlap else None);
          sr_peak_live_words = peak1;
          sr_orbit_ratio =
            (match r1.orbit with
            | Some o when r1.configs > 0 ->
                float_of_int o.expanded_configs /. float_of_int r1.configs
            | _ -> 1.0);
        })
      (explore_scale_instances ~quick)
  in
  Table.print table;
  (if Obs.enabled obs then
     let total f = List.fold_left (fun acc r -> acc + f r) 0 records in
     let ws = total (fun r -> Option.value ~default:0 r.sr_sync_wait_ns) in
     let wa = total (fun r -> Option.value ~default:0 r.sr_async_wait_ns) in
     let lv = max 1 (total (fun r -> r.sr_levels)) in
     Printf.printf
       "barrier wait per level: sync %.2fms, async(κ=%.2f) %.2fms (%s)\n"
       (float_of_int ws /. float_of_int lv /. 1e6)
       kappa
       (float_of_int wa /. float_of_int lv /. 1e6)
       (if wa < ws then "overlap wins" else "overlap did not pay off here"));
  records

(* --- symmetry-scale: dihedral orbit reduction + spill-to-disk --------- *)

(* The instances the symmetry reduction is for: uniform identifiers make
   the cycle maximally symmetric (full dihedral group, order 2n), which
   is exactly where the unreduced explorer hits its memory ceiling first.
   Quick keeps both legs completable in seconds for CI; full runs the
   headline scale-up — the C7 full model and the n = 8 interleaved cycle,
   each with a per-instance memory budget chosen so the unreduced leg
   exceeds it while the reduced+spilled leg completes (the probe data
   behind the budgets is in EXPERIMENTS.md).  [cap] is a config-count
   safety net well above the reduced size. *)
let symmetry_scale_instances ~quick =
  let uniform = Idents.uniform ?ident:None in
  let base =
    [
      ("C5/simultaneous/uniform", Builders.cycle 5, uniform 5, `All_subsets,
       5_000_000, 512);
      ("C6/interleaved/uniform", Builders.cycle 6, uniform 6, `Singletons,
       5_000_000, 512);
    ]
  in
  if quick then base
  else
    base
    @ [
        ("C7/simultaneous/uniform", Builders.cycle 7, uniform 7, `All_subsets,
         20_000_000, 3_072);
        ("C8/interleaved/uniform", Builders.cycle 8, uniform 8, `Singletons,
         5_000_000, 256);
      ]

type sym_record = {
  sy_name : string;
  sy_n : int;
  sy_budget_mb : int;
  sy_group : int;
  sy_off_configs : int;
  sy_off_complete : bool;
  sy_off_s : float;
  sy_off_peak : int;
  sy_on_configs : int;
  sy_on_complete : bool;
  sy_on_s : float;
  sy_on_peak : int;
  sy_spill_s : float;
  sy_spill_peak : int;
  sy_spill_bytes : int;
  sy_spill_levels : int;
  sy_expanded_configs : int;
  sy_orbit_ratio : float;
}

let run_symmetry_scale ~quick ~budget ~mem_budget_mb ~spill_dir
    ~spill_threshold_words ~obs ~kappa =
  let module Exp = Asyncolor_check.Explorer.Make (Asyncolor.Algorithm2.P) in
  print_endline
    "\n\
     === symmetry-scale: dihedral orbit reduction + spill (off / on / \
     on+spill, mem-budgeted) ===";
  let table =
    Table.create
      ~headers:
        [
          "instance"; "budget"; "off configs"; "off done"; "on configs";
          "ratio"; "G"; "off peak Mw"; "on peak Mw"; "spill peak Mw";
          "spilled";
        ]
  in
  let records =
    List.filter_map
      (fun (name, graph, idents, mode, cap, default_mb) ->
        (* Respect the section-wide wall budget: a slow runner skips the
           remaining instances instead of tripping the CI job timeout. *)
        match budget with
        | Some b when Asyncolor_resilience.Budget.exceeded b ->
            Printf.printf "%s: skipped (time budget exhausted)\n" name;
            None
        | _ ->
            let n = Array.length idents in
            let budget_mb = Option.value ~default:default_mb mem_budget_mb in
            let leg ?spill ~symmetry ~jobs ~policy ~leg_obs () =
              (* Fresh budget per leg (budgets are sticky; the point is
                 comparing the legs under the SAME cap), measured as
                 footprint growth over the leg's compacted baseline:
                 Budget reads the absolute heap_words, and whatever
                 fragmented footprint earlier legs could not return must
                 not count against this one. *)
              Gc.compact ();
              let base = (Gc.quick_stat ()).Gc.heap_words in
              let mem =
                Asyncolor_resilience.Budget.create
                  ~mem_words:
                    (base
                    + Asyncolor_resilience.Budget.mem_words_of_mb budget_mb)
                  ()
              in
              let t0 = Oclock.monotonic () in
              let r =
                Exp.explore ~mode ~max_configs:cap ~jobs ~policy ~budget:mem
                  ~symmetry ?spill ~obs:leg_obs graph ~idents
              in
              let dt =
                Int64.to_float (Int64.sub (Oclock.monotonic ()) t0) /. 1e9
              in
              (r, dt, max 0 ((Gc.quick_stat ()).Gc.heap_words - base))
            in
            let r_off, dt_off, peak_off =
              leg ~symmetry:false ~jobs:1 ~policy:Executor.Serial
                ~leg_obs:Obs.disabled ()
            in
            let r_on, dt_on, peak_on =
              leg ~symmetry:true ~jobs:1 ~policy:Executor.Serial
                ~leg_obs:Obs.disabled ()
            in
            (* The spill leg runs the κ-overlapped pipeline so the
               background spill task actually overlaps expansion, and it
               owns the shared obs sink — its spans/counters are what the
               --trace-out trace shows. *)
            let spill_store =
              (* one subdirectory per instance — '/'-separated instance
                 names would otherwise all collapse to their last
                 component and share level files *)
              let sub = String.map (fun c -> if c = '/' then '-' else c) name in
              Asyncolor_resilience.Spill.create
                ~dir:(Filename.concat spill_dir sub)
                ()
            in
            let r_spill, dt_spill, peak_spill =
              leg
                ~spill:(spill_store, spill_threshold_words)
                ~symmetry:true ~jobs:4
                ~policy:(Executor.asynchronous ~kappa ~jobs:4 ())
                ~leg_obs:obs ()
            in
            (* Soundness gates, not just measurements: a complete reduced
               run must expand to the unreduced counts, spilling must not
               change a field, and the reduction must actually deliver
               (ratio >= n on these fully symmetric instances, strictly
               fewer interned configs than the unreduced leg). *)
            if r_on.complete && r_spill.complete && r_on <> r_spill then
              failwith (name ^ ": spill changed the report (spill bug)");
            let expanded, ratio =
              match r_on.orbit with
              | Some o when r_on.configs > 0 ->
                  ( o.expanded_configs,
                    float_of_int o.expanded_configs
                    /. float_of_int r_on.configs )
              | _ -> (0, 1.0)
            in
            let group =
              match r_on.orbit with Some o -> o.group_order | None -> 1
            in
            if r_on.complete then begin
              if ratio < float_of_int n then
                failwith
                  (Printf.sprintf
                     "%s: orbit ratio %.2f < n=%d (reduction under-delivered)"
                     name ratio n);
              if r_off.complete then begin
                if r_on.configs >= r_off.configs then
                  failwith (name ^ ": symmetry-on did not reduce configs");
                if expanded <> r_off.configs then
                  failwith
                    (Printf.sprintf
                       "%s: orbit expansion %d <> unreduced configs %d \
                        (quotient bug)"
                       name expanded r_off.configs)
              end
            end;
            Printf.printf
              "symmetry reduction: %s %s -> %d configs (ratio %.1f, group \
               %d, off %s under %d MB, on %s)\n"
              name
              (if r_off.complete then string_of_int r_off.configs
               else Printf.sprintf "budget-exceeded@%d" r_off.configs)
              r_on.configs ratio group
              (if r_off.complete then "completed" else "truncated")
              budget_mb
              (if r_spill.complete then "completed" else "truncated");
            Table.add_row table
              [
                name;
                Printf.sprintf "%dMB" budget_mb;
                string_of_int r_off.configs;
                string_of_bool r_off.complete;
                string_of_int r_on.configs;
                Printf.sprintf "%.1f" ratio;
                string_of_int group;
                Printf.sprintf "%.0f" (float_of_int peak_off /. 1e6);
                Printf.sprintf "%.0f" (float_of_int peak_on /. 1e6);
                Printf.sprintf "%.0f" (float_of_int peak_spill /. 1e6);
                Printf.sprintf "%.1fMB"
                  (float_of_int
                     (Asyncolor_resilience.Spill.bytes_written spill_store)
                  /. 1048576.);
              ];
            Some
              {
                sy_name = name;
                sy_n = n;
                sy_budget_mb = budget_mb;
                sy_group = group;
                sy_off_configs = r_off.configs;
                sy_off_complete = r_off.complete;
                sy_off_s = dt_off;
                sy_off_peak = peak_off;
                sy_on_configs = r_on.configs;
                sy_on_complete = r_on.complete;
                sy_on_s = dt_on;
                sy_on_peak = peak_on;
                sy_spill_s = dt_spill;
                sy_spill_peak = peak_spill;
                sy_spill_bytes =
                  Asyncolor_resilience.Spill.bytes_written spill_store;
                sy_spill_levels =
                  Asyncolor_resilience.Spill.levels_on_disk spill_store;
                sy_expanded_configs = expanded;
                sy_orbit_ratio = ratio;
              })
      (symmetry_scale_instances ~quick)
  in
  Table.print table;
  records

(* --- churn-scale: sustained crash-recovery sessions ------------------- *)

(* The churn engine's headline numbers: raw activation throughput of a
   long-lived crash-recovery campaign and the recovery-latency tail
   (activations from reset to return).  Quick runs a small ring so CI
   stays fast; full runs the acceptance-scale C62 campaigns (1M
   activations per algorithm).  Each instance runs serial and jobs=4
   synchronous and the two reports are asserted identical — the same
   end-to-end determinism gate as explore-scale.  The rows land under
   "churn" in the --json record; scripts/check_bench_regression.py
   compares them against BENCH_seed.json. *)
type churn_record = {
  cr_name : string;
  cr_activations : int;
  cr_crashes : int;
  cr_recoveries : int;
  cr_serial_s : float;
  cr_jobs4_s : float;
  cr_latency : Asyncolor_workload.Stats.summary option;
}

let churn_scale_instances ~quick =
  let open Asyncolor_churn.Session in
  let cfg algo n horizon = { default with algo; n; horizon } in
  if quick then
    [
      ("C20/a2", cfg A2 20 20_000, 2);
      ("C20/a3", cfg A3 20 20_000, 2);
    ]
  else
    [
      ("C62/a2", cfg A2 62 250_000, 4);
      ("C62/a3", cfg A3 62 250_000, 4);
    ]

let run_churn_scale ~quick ~budget =
  print_endline
    "\n\
     === churn-scale: crash-recovery sessions, wall clock (serial / sync \
     j4) ===";
  let table =
    Table.create
      ~headers:
        [
          "instance"; "activations"; "crashes"; "serial (s)"; "sync j4 (s)";
          "acts/sec"; "p50"; "p95"; "p99";
        ]
  in
  List.filter_map
    (fun (name, cfg, sessions) ->
      match budget with
      | Some b when Asyncolor_resilience.Budget.exceeded b ->
          Printf.printf "%s: skipped (time budget exhausted)\n" name;
          None
      | _ ->
          let time ~policy ~jobs =
            let t0 = Oclock.monotonic () in
            let r : Asyncolor_churn.Session.report =
              Asyncolor_churn.Session.campaign ~jobs ~policy cfg ~seed:1
                ~sessions ()
            in
            (r, Int64.to_float (Int64.sub (Oclock.monotonic ()) t0) /. 1e9)
          in
          let r1, dt1 = time ~policy:Executor.Serial ~jobs:1 in
          let r4, dt4 = time ~policy:Executor.Synchronous ~jobs:4 in
          if r1 <> r4 then
            failwith (name ^ ": serial and sync churn reports differ (determinism bug)");
          if r1.violations <> [] then
            failwith (name ^ ": clean churn campaign reported violations");
          let acts_per_sec =
            float_of_int r1.total_activations /. Float.max dt1 1e-9
          in
          let lat f =
            match r1.latency with
            | Some s -> string_of_int (f s)
            | None -> "-"
          in
          Table.add_row table
            [
              name;
              string_of_int r1.total_activations;
              string_of_int r1.total_crashes;
              Printf.sprintf "%.2f" dt1;
              Printf.sprintf "%.2f" dt4;
              Printf.sprintf "%.0f" acts_per_sec;
              lat (fun s -> s.Asyncolor_workload.Stats.p50);
              lat (fun s -> s.Asyncolor_workload.Stats.p95);
              lat (fun s -> s.Asyncolor_workload.Stats.p99);
            ];
          Some
            {
              cr_name = name;
              cr_activations = r1.total_activations;
              cr_crashes = r1.total_crashes;
              cr_recoveries = r1.total_recoveries;
              cr_serial_s = dt1;
              cr_jobs4_s = dt4;
              cr_latency = r1.latency;
            })
    (churn_scale_instances ~quick)
  |> fun records ->
  Table.print table;
  records

(* --- chaos-overhead: the injector's cost when armed but silent -------- *)

(* The resilience layer's "free when off" claim, measured: an injector
   armed at rate 0 is consulted once per checkpoint/spill I/O operation
   and returns before touching its PRNG.  This run does no such I/O, so
   its cost against a fully disabled run is what merely arming --chaos
   charges the exploration path.  The reports must
   match exactly -- an armed-but-silent injector is invisible on the
   result (the explore-scale determinism gate, extended to chaos). *)
type chaos_record = {
  co_instance : string;
  co_off_s : float;
  co_armed_s : float;
  co_ratio : float;
}

let run_chaos_overhead ~quick ~budget () =
  let module Exp = Asyncolor_check.Explorer.Make (Asyncolor.Algorithm2.P) in
  print_endline
    "\n=== chaos-overhead: injector armed at rate 0 vs disabled (sync j2) ===";
  let name, graph, idents =
    if quick then ("C4/simultaneous", Builders.cycle 4, [| 5; 1; 9; 4 |])
    else ("C5/simultaneous", Builders.cycle 5, [| 5; 1; 9; 4; 7 |])
  in
  let time ~chaos =
    let t0 = Oclock.monotonic () in
    let r =
      Exp.explore ~max_configs:2_000_000 ~jobs:2 ~policy:Executor.Synchronous
        ?budget ~chaos graph ~idents
    in
    (r, Int64.to_float (Int64.sub (Oclock.monotonic ()) t0) /. 1e9)
  in
  let r_off, dt_off = time ~chaos:Asyncolor_resilience.Chaos.disabled in
  let armed = Asyncolor_resilience.Chaos.create ~rate:0.0 ~seed:1 () in
  let r_armed, dt_armed = time ~chaos:armed in
  if r_off.complete && r_armed.complete && r_off <> r_armed then
    failwith "chaos-overhead: armed rate-0 injector changed the report";
  let st = Asyncolor_resilience.Chaos.stats armed in
  if st.injected <> 0 then
    failwith "chaos-overhead: a rate-0 injector delivered a fault";
  let ratio = dt_armed /. Float.max dt_off 1e-9 in
  Printf.printf "%s: disabled %.3fs, armed(rate=0) %.3fs, overhead %.2fx\n"
    name dt_off dt_armed ratio;
  { co_instance = name; co_off_s = dt_off; co_armed_s = dt_armed;
    co_ratio = ratio }

(* Runs every benchmark, prints the timing table, and returns the raw
   (name, ns/run, r²) estimates for the --json record. *)
let run_benchmarks () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true () in
  let table = Table.create ~headers:[ "benchmark"; "ns/run"; "r²" ] in
  let records = ref [] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analysis = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          let ns =
            match Analyze.OLS.estimates ols_result with
            | Some (est :: _) -> Some est
            | _ -> None
          in
          let r2 = Analyze.OLS.r_square ols_result in
          records := (name, ns, r2) :: !records;
          Table.add_row table
            [
              name;
              (match ns with Some e -> Printf.sprintf "%.0f" e | None -> "-");
              (match r2 with Some r -> Printf.sprintf "%.4f" r | None -> "-");
            ])
        analysis)
    (tests ());
  print_endline "\n=== Bechamel timings (monotonic clock, OLS vs runs) ===";
  Table.print table;
  List.rev !records

let () =
  let argv = Array.to_list Sys.argv in
  let quick = List.mem "--quick" argv in
  let no_bench = List.mem "--no-bench" argv in
  let no_experiments = List.mem "--no-experiments" argv in
  let find_opt flag =
    let rec find = function
      | f :: v :: _ when f = flag -> Some v
      | _ :: rest -> find rest
      | [] -> None
    in
    find argv
  in
  let csv_dir = find_opt "--csv" in
  let json_path = find_opt "--json" in
  let scale_only = List.mem "--scale-only" argv in
  let sym_full = List.mem "--sym-full" argv in
  let jobs =
    match find_opt "--jobs" with Some n -> int_of_string n | None -> 1
  in
  let traced_policy =
    match find_opt "--exec-policy" with
    | Some ("sync" | "synchronous") | None -> "sync"
    | Some ("async" | "asynchronous") -> "async"
    | Some p -> failwith (Printf.sprintf "--exec-policy %s: want sync or async" p)
  in
  let kappa =
    match find_opt "--kappa" with Some k -> float_of_string k | None -> 0.5
  in
  (match find_opt "--seed" with
  | Some s -> seed_base := int_of_string s
  | None -> ());
  Printf.eprintf "effective seed: %d\n%!" !seed_base;
  let budget =
    match find_opt "--time-budget" with
    | Some s ->
        Some (Asyncolor_resilience.Budget.create ~time_s:(float_of_string s) ())
    | None -> None
  in
  let checkpoint = find_opt "--checkpoint" in
  let mem_budget_mb = Option.map int_of_string (find_opt "--mem-budget-mb") in
  let spill_dir =
    match find_opt "--spill-dir" with
    | Some d -> d
    | None ->
        (* Default somewhere disposable: the spill files of a bench run
           are a measurement by-product, not an artifact, unless CI asks
           for them with an explicit --spill-dir. *)
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "asyncolor-bench-spill-%d" (Unix.getpid ()))
  in
  let spill_threshold_words =
    match find_opt "--spill-threshold-mb" with
    | Some mb -> int_of_string mb * 1024 * 1024 / 8
    | None -> 131_072 (* 1 MB: small enough that every full leg spills *)
  in
  (if not (Sys.file_exists spill_dir) then
     try Unix.mkdir spill_dir 0o755 with Unix.Unix_error _ -> ());
  let outcomes =
    if no_experiments || scale_only then []
    else begin
      print_endline "=== Reproduction experiments (see DESIGN.md / EXPERIMENTS.md) ===";
      let outcomes = Asyncolor_experiments.Registry.run_all ~quick ~jobs () in
      (match csv_dir with
      | None -> ()
      | Some dir ->
          let written =
            List.concat_map (Asyncolor_experiments.Outcome.write_csvs ~dir) outcomes
          in
          Printf.printf "\nwrote %d CSV files to %s\n" (List.length written) dir);
      Printf.printf "\nexperiments reproduced: %d/%d\n"
        (List.length
           (List.filter (fun (o : Asyncolor_experiments.Outcome.t) -> o.ok) outcomes))
        (List.length outcomes);
      outcomes
    end
  in
  let trace_out = find_opt "--trace-out" in
  let metrics = List.mem "--metrics" argv in
  let obs =
    if trace_out <> None || metrics then Obs.create () else Obs.disabled
  in
  let scale_records =
    if no_bench then []
    else run_explore_scale ~quick ~budget ~checkpoint ~obs ~traced_policy ~kappa
  in
  let sym_records =
    if no_bench then []
    else
      run_symmetry_scale
        ~quick:(quick && not sym_full)
        ~budget ~mem_budget_mb ~spill_dir ~spill_threshold_words ~obs ~kappa
  in
  let churn_records =
    if no_bench then [] else run_churn_scale ~quick ~budget
  in
  let chaos_records =
    if no_bench then [] else [ run_chaos_overhead ~quick ~budget () ]
  in
  let bench_records =
    if no_bench || scale_only then [] else run_benchmarks ()
  in
  (match trace_out with
  | None -> ()
  | Some path ->
      Trace_export.write_chrome obs ~path;
      Printf.eprintf "wrote Chrome trace to %s (%d spans)\n%!" path
        (List.length (Obs.spans obs)));
  if metrics && json_path = None then
    prerr_string (Trace_export.metrics_table obs);
  (match json_path with
  | None -> ()
  | Some path ->
      let module J = Asyncolor_util.Jsonout in
      let bench_json (name, ns, r2) =
        let num = function Some f -> J.Float f | None -> J.Null in
        J.Obj
          [ ("name", J.String name); ("ns_per_run", num ns); ("r_square", num r2) ]
      in
      let scale_json (r : scale_record) =
        (* jobs4_seconds / speedup_jobs4 / configs_per_sec_jobs4 follow
           the --exec-policy leg, keeping the historical keys meaningful
           for dashboards that predate the policy split. *)
        let dt4 =
          if traced_policy = "async" then r.sr_async_s else r.sr_sync_s
        in
        let opt_ns = function Some w -> J.Int w | None -> J.Null in
        let per_level = function
          | Some w -> J.Float (float_of_int w /. float_of_int (max 1 r.sr_levels))
          | None -> J.Null
        in
        J.Obj
          [
            ("instance", J.String r.sr_name);
            ("configs", J.Int r.sr_configs);
            ("transitions", J.Int r.sr_transitions);
            ("complete", J.Bool r.sr_complete);
            ("exec_policy", J.String traced_policy);
            ("kappa", J.Float kappa);
            ("jobs1_seconds", J.Float r.sr_serial_s);
            ("jobs4_seconds", J.Float dt4);
            ("sync_seconds", J.Float r.sr_sync_s);
            ("async_seconds", J.Float r.sr_async_s);
            ("speedup_jobs4", J.Float (r.sr_serial_s /. Float.max dt4 1e-9));
            ( "configs_per_sec_jobs4",
              J.Float (float_of_int r.sr_configs /. Float.max dt4 1e-9) );
            ("levels", J.Int r.sr_levels);
            ("sync_wait_ns", opt_ns r.sr_sync_wait_ns);
            ("async_wait_ns", opt_ns r.sr_async_wait_ns);
            ("sync_wait_per_level_ns", per_level r.sr_sync_wait_ns);
            ("async_wait_per_level_ns", per_level r.sr_async_wait_ns);
            ("overlap_submits", opt_ns r.sr_overlap_submits);
            ("peak_live_words", J.Int r.sr_peak_live_words);
            ("orbit_ratio", J.Float r.sr_orbit_ratio);
          ]
      in
      let churn_json (r : churn_record) =
        let lat f =
          match r.cr_latency with
          | Some s -> J.Int (f s)
          | None -> J.Null
        in
        J.Obj
          [
            ("instance", J.String r.cr_name);
            ("activations", J.Int r.cr_activations);
            ("crashes", J.Int r.cr_crashes);
            ("recoveries", J.Int r.cr_recoveries);
            ("jobs1_seconds", J.Float r.cr_serial_s);
            ("jobs4_seconds", J.Float r.cr_jobs4_s);
            ( "activations_per_sec",
              J.Float
                (float_of_int r.cr_activations /. Float.max r.cr_serial_s 1e-9)
            );
            ("recovery_p50", lat (fun s -> s.Asyncolor_workload.Stats.p50));
            ("recovery_p95", lat (fun s -> s.Asyncolor_workload.Stats.p95));
            ("recovery_p99", lat (fun s -> s.Asyncolor_workload.Stats.p99));
            ( "recovery_max",
              lat (fun s -> s.Asyncolor_workload.Stats.max) );
          ]
      in
      let chaos_json (r : chaos_record) =
        J.Obj
          [
            ("instance", J.String r.co_instance);
            ("seconds_disabled", J.Float r.co_off_s);
            ("seconds_armed_rate0", J.Float r.co_armed_s);
            ("overhead_ratio", J.Float r.co_ratio);
          ]
      in
      let sym_json (r : sym_record) =
        J.Obj
          [
            ("instance", J.String r.sy_name);
            ("n", J.Int r.sy_n);
            ("mem_budget_mb", J.Int r.sy_budget_mb);
            ("group_order", J.Int r.sy_group);
            ("configs_off", J.Int r.sy_off_configs);
            ("complete_off", J.Bool r.sy_off_complete);
            ("seconds_off", J.Float r.sy_off_s);
            ("peak_live_words_off", J.Int r.sy_off_peak);
            ("configs_on", J.Int r.sy_on_configs);
            ("complete_on", J.Bool r.sy_on_complete);
            ("seconds_on", J.Float r.sy_on_s);
            ("peak_live_words_on", J.Int r.sy_on_peak);
            ("seconds_on_spill", J.Float r.sy_spill_s);
            ("peak_live_words_on_spill", J.Int r.sy_spill_peak);
            ("spill_bytes_written", J.Int r.sy_spill_bytes);
            ("spill_levels", J.Int r.sy_spill_levels);
            ("expanded_configs", J.Int r.sy_expanded_configs);
            ("orbit_ratio", J.Float r.sy_orbit_ratio);
          ]
      in
      (* The flat obs metrics ride along in the machine-readable record:
         one integer per counter/gauge, sorted by name (the same rows
         Trace_export.metrics_table prints).  Empty unless the sink was
         enabled with --trace-out/--metrics. *)
      let obs_metrics =
        J.Obj (List.map (fun (name, v) -> (name, J.Int v)) (Obs.metrics obs))
      in
      J.write path
        (J.Obj
           [
             ( "experiments",
               J.List (List.map Asyncolor_experiments.Outcome.to_json outcomes) );
             ("exec_policy", J.String traced_policy);
             ("kappa", J.Float kappa);
             ("explore_scale", J.List (List.map scale_json scale_records));
             ("symmetry_scale", J.List (List.map sym_json sym_records));
             ("churn", J.List (List.map churn_json churn_records));
             ("chaos_overhead", J.List (List.map chaos_json chaos_records));
             ("benchmarks", J.List (List.map bench_json bench_records));
             ("obs_metrics", obs_metrics);
           ]);
      Printf.printf "\nwrote JSON report to %s\n" path);
  if not (Asyncolor_experiments.Outcome.all_ok outcomes) then exit 1
