(* Benchmark harness.

   Running `dune exec bench/main.exe` does two things:

   1. regenerates every experiment of the reproduction index (DESIGN.md /
      EXPERIMENTS.md) at full size, printing the tables the paper's claims
      are checked against — this is the analogue of "reproducing every
      table and figure";

   2. times a representative kernel of each experiment with Bechamel (one
      Test.make per experiment, plus micro-benchmarks of the simulation
      engine itself), reporting ns/run estimates.

   The explorer's and churn engine's end-to-end speed is measured by
   perfbench/ (the benchmark of record, see BENCHMARK.json), and CI gates
   on its rows with scripts/check_bench_regression.py; this harness only
   reproduces the tables and times the kernels.

   Flags: --quick (reduced experiment sizes), --no-bench (skip the
   Bechamel kernels), --no-experiments,
   --seed N (base offset added to every kernel's PRNG seed; default 0
   keeps the historical workloads — the effective value is printed on
   stderr so any run is reproducible),
   --csv DIR (also dump every experiment table as CSV into DIR),
   --json PATH (dump a machine-readable record of every experiment row and
   benchmark estimate to PATH, under the keys "experiments" and
   "benchmarks"), --jobs N (domains for the experiment fan-out; defaults
   to 1 so the timings stay on an otherwise-idle machine). *)

open Bechamel
open Toolkit
module Adversary = Asyncolor_kernel.Adversary
module Builders = Asyncolor_topology.Builders
module Idents = Asyncolor_workload.Idents
module Prng = Asyncolor_util.Prng
module Table = Asyncolor_workload.Table

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
  let jobs =
    match find_opt "--jobs" with Some n -> int_of_string n | None -> 1
  in
  (match find_opt "--seed" with
  | Some s -> seed_base := int_of_string s
  | None -> ());
  Printf.eprintf "effective seed: %d\n%!" !seed_base;
  let outcomes =
    if no_experiments then []
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
  let bench_records = if no_bench then [] else run_benchmarks () in
  (match json_path with
  | None -> ()
  | Some path ->
      let module J = Asyncolor_util.Jsonout in
      let bench_json (name, ns, r2) =
        let num = function Some f -> J.Float f | None -> J.Null in
        J.Obj
          [ ("name", J.String name); ("ns_per_run", num ns); ("r_square", num r2) ]
      in
      J.write path
        (J.Obj
           [
             ( "experiments",
               J.List (List.map Asyncolor_experiments.Outcome.to_json outcomes) );
             ("benchmarks", J.List (List.map bench_json bench_records));
           ]);
      Printf.printf "\nwrote JSON report to %s\n" path);
  if not (Asyncolor_experiments.Outcome.all_ok outcomes) then exit 1
