(* asyncolor — command-line front end.

   Subcommands:
     run          one execution of an algorithm on a topology, with a chosen
                  identifier workload and adversary; prints the colouring
     sweep        rounds-vs-n table for an algorithm over the adversary suite
     check        exhaustive model checking on a small cycle
     fuzz         randomized fault-injection campaigns with shrinking
     churn        long-lived crash-recovery sessions with self-healing checks
     replay       re-execute an explicit schedule or a recorded fuzz trace
     experiments  run the reproduction experiments (DESIGN.md index)      *)

module Adversary = Asyncolor_kernel.Adversary
module Prng = Asyncolor_util.Prng
module Graph = Asyncolor_topology.Graph
module Builders = Asyncolor_topology.Builders
module Idents = Asyncolor_workload.Idents
module Table = Asyncolor_workload.Table
module Checker = Asyncolor.Checker
module Budget = Asyncolor_resilience.Budget
module Stop = Asyncolor_resilience.Stop
module Diag = Asyncolor_resilience.Diag
module Chaos = Asyncolor_resilience.Chaos
module Checkpoint = Asyncolor_resilience.Checkpoint
module Fz = Asyncolor_fuzz
module Churn = Asyncolor_churn
module Obs = Asyncolor_obs.Obs
module Oclock = Asyncolor_obs.Clock
module Trace_export = Asyncolor_obs.Trace_export

(* Every randomized subcommand announces the seed it actually used on
   stderr, so any run — including one that used the default — can be
   reproduced by pasting the seed back with --seed. *)
let announce_seed seed = Diag.printf "effective seed: %d\n" seed

(* A flag value the command cannot use ends it as a value the flag's
   converter rejects does: one line naming the flag on stderr and
   cmdliner's command-line-error exit code, 124. *)
let usage_error ~flag fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "asyncolor: option '%s': %s\n" flag msg;
      exit 124)
    fmt

let make_idents ~kind ~seed n =
  match kind with
  | "increasing" -> Idents.increasing n
  | "decreasing" -> Idents.decreasing n
  | "zigzag" -> Idents.zigzag n
  | "random" -> Idents.random_permutation (Prng.create ~seed) n
  | "sparse" -> Idents.random_sparse (Prng.create ~seed) ~n ~universe:(max 64 (n * n))
  | "bit-adversarial" -> Idents.bit_adversarial n
  | k -> usage_error ~flag:"--idents" "unknown identifier workload %S" k

let make_adversary ~kind ~seed ~n =
  match String.split_on_char ':' kind with
  | [ "sync" ] -> Adversary.synchronous
  | [ "seq" ] -> Adversary.sequential
  | [ "rr" ] -> Adversary.round_robin
  | [ "singletons" ] -> Adversary.singletons (Prng.create ~seed)
  | [ "staircase" ] -> Adversary.staircase
  | [ "waves" ] -> Adversary.alternating_waves
  | [ "random"; p ] when Option.is_some (float_of_string_opt p) ->
      Adversary.random_subsets (Prng.create ~seed) ~p:(float_of_string p)
  | [ "crash"; rate ] when Option.is_some (float_of_string_opt rate) ->
      Adversary.random_crashes (Prng.create ~seed) ~n ~rate:(float_of_string rate)
        ~horizon:20 (Adversary.random_subsets (Prng.create ~seed:(seed + 1)) ~p:0.7)
  | _ ->
      usage_error ~flag:"--adversary"
        "unknown adversary %S (try sync, seq, rr, singletons, staircase, waves, \
         random:P, crash:RATE)"
        kind

let make_graph ~kind ~seed n =
  match kind with
  | "cycle" -> Builders.cycle n
  | "path" -> Builders.path n
  | "complete" -> Builders.complete n
  | "star" -> Builders.star n
  | "petersen" -> Builders.petersen ()
  | "hypercube" -> Builders.hypercube n
  | "random3" -> Builders.random_regular (Prng.create ~seed) ~n ~d:3
  | k -> usage_error ~flag:"--graph" "unknown graph %S" k

(* The table entry [-a] names.  [run] and [replay] take every numbered
   algorithm; [sweep], [check] and [lockhunt] (cycle-only commands, on
   which Algorithm 4 is Algorithm 1) take 1-3. *)
let algorithm ?cmd alg =
  match (Asyncolor.Algos.find (string_of_int alg), cmd) with
  | Some entry, None -> entry
  | Some entry, Some _ when alg <= 3 -> entry
  | _, None -> usage_error ~flag:"-a" "unknown algorithm %d (1-4)" alg
  | _, Some cmd ->
      usage_error ~flag:"-a" "%s supports algorithms 1-3, not %d" cmd alg

(* One execution, judged by the algorithm's palette claim on the graph. *)
let run_algorithm (Asyncolor.Algos.Any alg) ~graph ~on_cycle ~idents ~adv
    ~max_steps ~verbose =
  let (module P) = alg.protocol in
  let module E = Asyncolor_kernel.Engine.Make (P) in
  let show o = Format.asprintf "%a" P.pp_output o in
  let engine = E.create ~record_trace:verbose graph ~idents in
  let r = E.run ~max_steps engine adv in
  let verdict =
    Checker.check ~equal:alg.equal
      ~in_palette:(alg.palette graph ~on_cycle)
      graph r.outputs
  in
  if verbose then Format.printf "%a@.@." E.pp_spacetime engine;
  if verbose then
    List.iter
      (fun (e : E.event) ->
        Printf.printf "t=%-4d activated={%s}%s\n" e.time
          (String.concat "," (List.map string_of_int e.activated))
          (match e.returned with
          | [] -> ""
          | l ->
              " returned: "
              ^ String.concat ", "
                  (List.map (fun (p, o) -> Printf.sprintf "p%d=%s" p (show o)) l)))
      (E.trace engine);
  Array.iteri
    (fun p out ->
      Printf.printf "p%-4d id=%-8d %s\n" p idents.(p)
        (match out with
        | Some o -> "colour " ^ show o
        | None -> "did not return (crashed or cut off)"))
    r.outputs;
  Printf.printf
    "steps=%d rounds(max activations)=%d all_returned=%b proper=%b palette_ok=%b \
     distinct=%d\n"
    r.steps r.rounds r.all_returned verdict.Checker.proper
    (verdict.Checker.off_palette = [])
    verdict.Checker.distinct_colors;
  if not (Checker.ok verdict) then (
    Format.printf "VIOLATION: %a@." Checker.pp verdict;
    exit 1)

open Cmdliner

let alg_arg =
  Arg.(value & opt int 3 & info [ "a"; "algorithm" ] ~docv:"N" ~doc:"Algorithm 1-4.")

let n_arg = Arg.(value & opt int 12 & info [ "n" ] ~docv:"N" ~doc:"Number of nodes.")
let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"PRNG seed.")

let idents_arg =
  Arg.(
    value
    & opt string "random"
    & info [ "i"; "idents" ] ~docv:"KIND"
        ~doc:
          "Identifier workload: increasing, decreasing, zigzag, random, sparse, \
           bit-adversarial.")

let adv_arg =
  Arg.(
    value
    & opt string "random:0.5"
    & info [ "d"; "adversary" ] ~docv:"KIND"
        ~doc:"Schedule: sync, seq, rr, singletons, staircase, waves, random:P, crash:RATE.")

let graph_arg =
  Arg.(
    value
    & opt string "cycle"
    & info [ "g"; "graph" ] ~docv:"KIND"
        ~doc:"Topology: cycle, path, complete, star, petersen, hypercube, random3.")

let max_steps_arg =
  Arg.(value & opt int 1_000_000 & info [ "max-steps" ] ~doc:"Schedule length cap.")

let verbose_arg = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print the trace.")

let jobs_arg =
  Arg.(
    value
    & opt int (Asyncolor_util.Executor.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the parallel subcommands (sweep, check, lockhunt, \
           experiments, fuzz, churn).  Defaults to the recommended domain \
           count.  Deterministic-output guarantee: stdout is byte-identical \
           for every value — the exhaustive explorer merges discoveries in a \
           jobs-independent order (so even configuration ids match), and the \
           other fan-outs merge results by input index.  Timing/rate \
           diagnostics go to stderr.")

let time_budget_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "time-budget" ] ~docv:"SEC"
        ~doc:
          "Wall-clock budget.  When it runs out the exploration stops at the \
           next loop boundary and prints a clean truncated report \
           (complete=false), exit code 0.")

let mem_budget_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "mem-budget-mb" ] ~docv:"MB"
        ~doc:
          "Major-heap budget in megabytes (garbage included — the figure the \
           OOM killer sees).  Same clean-truncation contract as \
           $(b,--time-budget).")

let make_budget ~time_s ~mem_mb =
  match (time_s, mem_mb) with
  | None, None -> None
  | _ ->
      Some
        (Budget.create ?time_s
           ?mem_words:(Option.map Budget.mem_words_of_mb mem_mb)
           ())

(* --- observability plumbing (check / lockhunt / fuzz) ------------------

   Tracing and metrics are strictly out-of-band: the trace goes to a
   file, the metrics table to stderr through the line-atomic sink, and
   stdout — the surface under the byte-determinism diff tests — is
   untouched whether the sink is enabled or not. *)

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"PATH"
        ~doc:
          "Write a Chrome trace_event JSON trace of the run to PATH — load \
           it in Perfetto or chrome://tracing, or sanity-check it with \
           $(b,asyncolor tracecheck).  Enables the observability sink; the \
           report on stdout is byte-identical with or without it.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Print the flat metrics table (counter and gauge totals, sorted \
           by name) to stderr after the run.")

(* Only the trace exporter reads span records: a [--metrics] run alone
   keeps its counters and gauges and records no spans. *)
let make_obs ~trace_out ~metrics =
  if Option.is_some trace_out then Obs.create ()
  else if metrics then Obs.create ~spans:false ()
  else Obs.disabled

let finish_obs obs ~trace_out ~metrics =
  (match trace_out with
  | None -> ()
  | Some path ->
      Trace_export.write_chrome obs ~path;
      Diag.printf "trace written to %s (%d spans)\n" path
        (List.length (Obs.spans obs)));
  if metrics then
    let table = Trace_export.metrics_table obs in
    if table <> "" then Asyncolor_obs.Sink.emit table

(* Elapsed seconds for the stderr rate diagnostics, off the obs layer's
   monotonic clock so a suspended or ntp-stepped run can't go negative. *)
let elapsed_s t0 = Int64.to_float (Int64.sub (Oclock.monotonic ()) t0) /. 1e9

(* --- chaos plumbing (check) ---------------------------------------------

   The injector is armed from one flag so the CI differential legs can
   toggle it without touching anything else.  The stats line goes to
   stderr through [Diag] -- stdout remains the byte-determinism surface,
   identical with and without faults. *)

(* "seed:N,rate:R" in any order; R must be a number in [0, 1]. *)
let chaos_conv =
  let parse spec =
    let kv acc field =
      match (acc, String.index_opt field ':') with
      | Error _, _ -> acc
      | Ok _, None -> Error "expected seed:N,rate:R"
      | Ok (seed, rate), Some i -> (
          let v = String.sub field (i + 1) (String.length field - i - 1) in
          match String.sub field 0 i with
          | "seed" -> (
              match int_of_string_opt v with
              | Some n -> Ok (Some n, rate)
              | None -> Error (Printf.sprintf "seed %S is not an integer" v))
          | "rate" -> (
              match float_of_string_opt v with
              | Some r when r >= 0.0 && r <= 1.0 -> Ok (seed, Some r)
              | _ -> Error (Printf.sprintf "rate %S is not a number in [0, 1]" v))
          | k -> Error (Printf.sprintf "unknown key %S" k))
    in
    match List.fold_left kv (Ok (None, None)) (String.split_on_char ',' spec) with
    | Ok (Some seed, Some rate) -> Ok (seed, rate)
    | Ok (None, _) -> Error (`Msg "missing seed:N")
    | Ok (_, None) -> Error (`Msg "missing rate:R")
    | Error m -> Error (`Msg m)
  in
  let print ppf (seed, rate) = Format.fprintf ppf "seed:%d,rate:%g" seed rate in
  Arg.conv (parse, print)

let chaos_arg =
  Arg.(
    value
    & opt (some chaos_conv) None
    & info [ "chaos" ] ~docv:"seed:N,rate:R"
        ~doc:
          "Arm the environment-fault injector: every checkpoint/spill I/O \
           operation draws a fault with probability R (in [0,1]) from a \
           PRNG stream derived from (N, site).  Schedules are deterministic \
           in the seed.  Nothing is retried: a fault truncates the run as a \
           real disk fault would (complete=false, or exit 2 when the \
           analyses cannot read a spilled level back), and resuming from \
           the last good $(b,--checkpoint) with a fresh seed, as many times \
           as it takes, ends in the fault-free report byte for byte.")

let make_chaos ~obs = function
  | None -> Chaos.disabled
  | Some (seed, rate) -> Chaos.create ~obs ~rate ~seed ()

let chaos_stats_line chaos =
  if Chaos.enabled chaos then begin
    let { Chaos.injected; quarantined } = Chaos.stats chaos in
    Diag.printf "chaos: injected=%d quarantined=%d\n" injected quarantined
  end

(* [--csv] and [--spill-dir] name a directory the command writes into.
   It is made here, before any work, if it is missing (its parent must
   exist), so a path that cannot be one ends the command with one line
   on stderr and exit 2, not an exception after the work is done. *)
let ensure_dir ~flag dir =
  let fail msg =
    Printf.eprintf "%s %s\n" flag msg;
    exit 2
  in
  match if not (Sys.file_exists dir) then Sys.mkdir dir 0o755 with
  | () -> if not (Sys.is_directory dir) then fail (dir ^ ": not a directory")
  | exception Sys_error msg -> fail msg

(* [--checkpoint], [--trace-out], [--min-out] and [--save-trace] name a
   file the command writes, some of them only after all the work: its
   directory must exist before any work starts. *)
let ensure_parent ~flag path =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir && Sys.is_directory dir) then begin
    Printf.eprintf "%s %s: no directory %s\n" flag path dir;
    exit 2
  end

(* An unreadable checkpoint or spilled level ends [check] with no
   report.  The diagnostic names the file (in [msg]) and the first of
   [candidates] (the run's own checkpoint, then the one it resumed) of
   which a generation is still on disk. *)
let io_exit_code = 2

let io_exit ~chaos ~candidates msg =
  let on_disk p =
    Sys.file_exists p || Sys.file_exists (Checkpoint.rotated_path p)
  in
  (match List.find_opt on_disk candidates with
  | Some p -> Diag.printf "io: %s; no report, resume with --resume %s\n" msg p
  | None -> Diag.printf "io: %s; no report, and no checkpoint to resume from\n" msg);
  chaos_stats_line chaos;
  exit io_exit_code

(* The memory companion of the rate line: the major heap's peak (not
   its size after the run, which the analyses have already shrunk), the
   explorer's stores per configuration when an enabled sink
   ([--metrics] or [--trace]) gauged them, and what spilling moved to
   disk.  Diagnostics only — stderr, never part of the report. *)
let memory_pressure_line ?(per_config = []) ?spill () =
  let mib w = float_of_int w /. (1024. *. 1024.) in
  let peak_b = (Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8) in
  let stores =
    String.concat ""
      (List.map
         (fun (store, b) -> Printf.sprintf ", %s %.0f B/config" store b)
         per_config)
  in
  match spill with
  | None ->
      Printf.sprintf "memory: %.1f MiB peak heap%s, 0 B on disk" (mib peak_b)
        stores
  | Some (sp, _) ->
      Printf.sprintf
        "memory: %.1f MiB peak heap%s, %.1f MiB on disk (%d spill levels, \
         %.1f MiB read back)"
        (mib peak_b) stores
        (mib (Asyncolor_resilience.Spill.bytes_written sp))
        (Asyncolor_resilience.Spill.levels_on_disk sp)
        (mib (Asyncolor_resilience.Spill.bytes_read sp))

let run_cmd =
  let doc = "run one execution and print the colouring" in
  let f alg n seed idents_kind adv_kind graph_kind max_steps verbose =
    announce_seed seed;
    let graph = make_graph ~kind:graph_kind ~seed n in
    let n = Graph.n graph in
    let idents = make_idents ~kind:idents_kind ~seed n in
    let adv = make_adversary ~kind:adv_kind ~seed ~n in
    run_algorithm (algorithm alg) ~graph ~on_cycle:(graph_kind = "cycle")
      ~idents ~adv ~max_steps ~verbose
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const f $ alg_arg $ n_arg $ seed_arg $ idents_arg $ adv_arg $ graph_arg
      $ max_steps_arg $ verbose_arg)

let sweep_cmd =
  let doc = "rounds-vs-n table over the adversary suite" in
  let sizes_arg =
    Arg.(
      value
      & opt (list int) [ 4; 8; 16; 32; 64; 128 ]
      & info [ "sizes" ] ~docv:"N,N,..." ~doc:"Cycle sizes.")
  in
  let f alg seed idents_kind sizes jobs =
    announce_seed seed;
    let (Asyncolor.Algos.Any alg) = algorithm ~cmd:"sweep" alg in
    let (module P) = alg.protocol in
    let module S = Asyncolor_experiments.Harness.Sweep (P) in
    (* Each size is one self-contained cell: it builds its own graph,
       identifiers and (seed-derived) adversary suite, so the cells fan
       out across domains and the rows merge back in size order — the
       table is byte-identical for every --jobs value. *)
    let row n =
      let graph = Builders.cycle n in
      let idents = make_idents ~kind:idents_kind ~seed n in
      let suite = Asyncolor_experiments.Harness.adversary_suite ~seed in
      let summary =
        S.run ~equal:alg.equal
          ~in_palette:(alg.palette graph ~on_cycle:true)
          ~graph ~idents suite
      in
      [
        string_of_int n;
        string_of_int summary.worst_rounds;
        String.concat ";" summary.livelocked_names;
      ]
    in
    let rows = Asyncolor_experiments.Harness.map_cells ~jobs row sizes in
    let table = Table.create ~headers:[ "n"; "worst rounds"; "locked schedules" ] in
    List.iter (Table.add_row table) rows;
    Table.print table
  in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(const f $ alg_arg $ seed_arg $ idents_arg $ sizes_arg $ jobs_arg)

let check_cmd =
  let doc = "exhaustively model-check a small cycle over all schedules" in
  let idents_csv =
    Arg.(
      value
      & opt (list int) [ 5; 1; 9 ]
      & info [ "idents" ] ~docv:"X,X,..." ~doc:"Identifiers around the cycle.")
  in
  let mode_arg =
    Arg.(
      value
      & opt (enum [ ("simultaneous", `All_subsets); ("interleaved", `Singletons) ])
          `All_subsets
      & info [ "mode" ] ~doc:"Schedule space: simultaneous (full model) or interleaved.")
  in
  let max_configs_arg =
    Arg.(
      value
      & opt int 500_000
      & info [ "max-configs" ] ~docv:"N"
          ~doc:
            "Truncate the exploration after N configurations; the report then \
             carries complete=false and the worst_case_activations=-1 sentinel.")
  in
  let checkpoint_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"PATH"
          ~doc:
            "Periodically persist the exploration state to PATH (written \
             atomically: temp file + rename, checksummed).  A final \
             checkpoint is also written when the run is stopped early by a \
             budget, SIGINT/SIGTERM or $(b,--kill-after).")
  in
  let checkpoint_every_arg =
    Arg.(
      value
      & opt int 10_000
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:
            "Checkpoint whenever at least N new configurations have been \
             interned since the last save (deterministic, unlike a timer).")
  in
  let resume_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"PATH"
          ~doc:
            "Resume the exploration stored at PATH and run it to completion \
             (or to the next budget/checkpoint boundary).  Graph, \
             identifiers, mode and caps come from the checkpoint; \
             $(b,--idents), $(b,--mode) and $(b,--max-configs) are ignored.  \
             The final report is byte-identical to an uninterrupted run, \
             for any $(b,--jobs) on either side of the interruption.")
  in
  let kill_after_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "kill-after" ] ~docv:"N"
          ~doc:
            "Testing hook: SIGKILL this very process once N configurations \
             have been interned — a real crash, not an exception.  Combine \
             with $(b,--checkpoint) and restart with $(b,--resume).")
  in
  let symmetry_arg =
    Arg.(
      value
      & opt (enum [ ("on", true); ("off", false) ]) false
      & info [ "symmetry" ] ~docv:"on|off"
          ~doc:
            "Quotient the exploration by the cycle's ident-preserving \
             dihedral automorphisms: every configuration is canonicalized \
             to the lexicographically least member of its orbit before \
             interning, cutting the state space by up to 2n on symmetric \
             identifier assignments.  Verdicts are unchanged; the report \
             counts representatives and adds an orbit-expansion line.  \
             Ignored on $(b,--resume) (recorded in the checkpoint).")
  in
  let spill_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "spill-dir" ] ~docv:"DIR"
          ~doc:
            "Spill closed BFS levels of the adjacency stream to \
             checksummed files of the level log's varint bytes under \
             DIR (created if missing).  Only the adjacency leaves the \
             heap: the intern store, the per-configuration arrays and \
             the frontier stay resident and grow with the \
             configurations explored.  \
             Combine with $(b,--mem-budget-mb) to run instances whose \
             full adjacency would not fit in memory.")
  in
  let spill_threshold_mb_arg =
    Arg.(
      value
      & opt int 8
      & info [ "spill-threshold-mb" ] ~docv:"MB"
          ~doc:
            "Close and spill a level once the resident adjacency tail \
             holds MB megabytes of entries counted at 8 bytes each (an \
             edge is 2 entries, 3 under symmetry; its varint bytes take \
             a fraction of that).  0 spills at every merge boundary — \
             only useful for exercising the spill path in tests.")
  in
  let f alg idents mode max_configs jobs ckpt_path ckpt_every resume time_s
      mem_mb kill_after symmetry spill_dir spill_threshold_mb chaos_spec
      trace_out metrics =
    let obs = make_obs ~trace_out ~metrics in
    let chaos = make_chaos ~obs chaos_spec in
    let idents = Array.of_list idents in
    let n = Array.length idents in
    if n < 3 then usage_error ~flag:"--idents" "need at least 3 identifiers";
    if n > Sys.int_size - 1 then
      usage_error ~flag:"--idents"
        "too many identifiers for packed activation masks (n <= 62)";
    let (Asyncolor.Algos.Any alg) = algorithm ~cmd:"check" alg in
    if spill_threshold_mb < 0 then
      usage_error ~flag:"--spill-threshold-mb" "must be >= 0, not %d"
        spill_threshold_mb;
    Option.iter (ensure_dir ~flag:"--spill-dir") spill_dir;
    Option.iter (ensure_parent ~flag:"--checkpoint") ckpt_path;
    Option.iter (ensure_parent ~flag:"--trace-out") trace_out;
    let checkpoint = Option.map (fun p -> (p, ckpt_every)) ckpt_path in
    let budget = make_budget ~time_s ~mem_mb in
    let spill =
      Option.map
        (fun dir ->
          (* MB -> entries of 8 bytes, the level log's threshold unit. *)
          ( Asyncolor_resilience.Spill.create ~chaos ~dir (),
            spill_threshold_mb * 1024 * 1024 / 8 ))
        spill_dir
    in
    (* Polled by the explorer at expansion boundaries: a genuine SIGKILL
       for the crash-safety tests, then the signal-fed stop flag. *)
    let stop ~configs =
      (match kill_after with
      | Some k when configs >= k -> Unix.kill (Unix.getpid ()) Sys.sigkill
      | _ -> ());
      Stop.requested ()
    in
    let (module P) = alg.protocol in
    let module Exp = Asyncolor_check.Explorer.Make (P) in
    (* The safety predicate is rebuilt against whichever graph the run
       actually uses — the CLI-provided cycle for a fresh run, the
       stored one for --resume — so fresh and resumed runs share every
       line of the reporting path below. *)
    let coloring_check graph =
      let in_palette = alg.palette graph ~on_cycle:true in
      fun outs ->
        let v = Checker.check ~equal:alg.equal ~in_palette graph outs in
        if Checker.ok v then None else Some (Format.asprintf "%a" Checker.pp v)
    in
    let t0 = Oclock.monotonic () in
    let r =
      match
        Stop.with_signals (fun () ->
            match resume with
            | Some path ->
                let info = Exp.resume_info path in
                Diag.printf
                  "resuming %s: %d configs interned, %d pending (n=%d)\n"
                  path info.ri_configs info.ri_pending
                  (Graph.n info.ri_graph);
                Exp.explore_resume ~jobs ?checkpoint ?budget ~stop ?spill
                  ~chaos
                  ~check_outputs:(coloring_check info.ri_graph) ~obs path
            | None ->
                let graph = Builders.cycle n in
                Exp.explore ~mode ~max_configs ~jobs ?checkpoint ?budget
                  ~stop ~symmetry ?spill ~chaos
                  ~check_outputs:(coloring_check graph) ~obs graph ~idents)
      with
      | r -> r
      | exception Checkpoint.Corrupt msg ->
          io_exit ~chaos
            ~candidates:(Option.to_list ckpt_path @ Option.to_list resume)
            msg
    in
    let dt = elapsed_s t0 in
    Diag.printf "explored %d configs in %.3fs (%.0f configs/sec, jobs=%d)\n"
      r.configs dt
      (float_of_int r.configs /. Float.max dt 1e-9)
      jobs;
    let per_config =
      let metrics = Obs.metrics obs in
      List.filter_map
        (fun (store, gauge) ->
          match List.assoc_opt gauge metrics with
          | Some b when r.configs > 0 ->
              Some (store, float_of_int b /. float_of_int r.configs)
          | _ -> None)
        [
          ("intern store", "explorer.intern_bytes");
          ("adjacency", "explorer.adj_bytes");
          ("tables", "explorer.table_bytes");
        ]
    in
    Diag.printf "%s\n" (memory_pressure_line ~per_config ?spill ());
    chaos_stats_line chaos;
    finish_obs obs ~trace_out ~metrics;
    (match budget with
    | Some b when Budget.exceeded b ->
        Diag.printf "budget exceeded (%s): truncated report\n"
          (Budget.describe b)
    | _ -> ());
    Format.printf "%a@." Exp.pp_report r;
    (match r.livelock with
    | Some v ->
        Format.printf "lasso schedule: %s@."
          (String.concat " "
             (List.map
                (fun l -> "{" ^ String.concat "," (List.map string_of_int l) ^ "}")
                v.schedule))
    | None -> ());
    List.iter (fun (v : Exp.violation) -> Format.printf "violation: %s@." v.message) r.safety
  in
  let exits =
    Cmd.Exit.info io_exit_code
      ~doc:
        "when a checkpoint or spilled level could not be read and the run \
         ended without a report; the $(b,io:) line on stderr names the file \
         and the checkpoint to $(b,--resume) from."
    :: Cmd.Exit.defaults
  in
  Cmd.v (Cmd.info "check" ~doc ~exits)
    Term.(
      const f $ alg_arg $ idents_csv $ mode_arg $ max_configs_arg $ jobs_arg
      $ checkpoint_arg $ checkpoint_every_arg $ resume_arg $ time_budget_arg
      $ mem_budget_arg $ kill_after_arg $ symmetry_arg $ spill_dir_arg
      $ spill_threshold_mb_arg $ chaos_arg $ trace_out_arg $ metrics_arg)

let lockhunt_cmd =
  let doc = "attack every adjacent pair with the isolate-pair schedule (finding F1)" in
  let f alg n seed idents_kind jobs time_s mem_mb trace_out metrics =
    Option.iter (ensure_parent ~flag:"--trace-out") trace_out;
    announce_seed seed;
    let obs = make_obs ~trace_out ~metrics in
    let graph = Builders.cycle n in
    let idents = make_idents ~kind:idents_kind ~seed n in
    let budget = make_budget ~time_s ~mem_mb in
    let table = Table.create ~headers:[ "pair"; "locked"; "steps"; "pair activations" ] in
    let (Asyncolor.Algos.Any alg) = algorithm ~cmd:"lockhunt" alg in
    let (module P) = alg.protocol in
    let module H = Asyncolor_check.Lockhunt.Make (P) in
    let t0 = Oclock.monotonic () in
    let findings =
      Stop.with_signals (fun () ->
          H.hunt ~jobs ?budget ~stop:Stop.requested ~obs graph ~idents)
    in
    let dt = elapsed_s t0 in
    Diag.printf "%d probes in %.3fs (%.0f probes/sec, jobs=%d)\n"
      (List.length findings) dt
      (float_of_int (List.length findings) /. Float.max dt 1e-9)
      jobs;
    Diag.printf "%s\n" (memory_pressure_line ());
    let nedges = List.length (Graph.edges graph) in
    if List.length findings < nedges then
      Printf.printf "hunt cut short: probed %d/%d pairs\n"
        (List.length findings) nedges;
    List.iter
      (fun (f : H.finding) ->
        if f.locked then
          Table.add_row table
            [
              Printf.sprintf "(%d,%d)" (fst f.pair) (snd f.pair);
              "yes";
              string_of_int f.steps;
              Printf.sprintf "(%d,%d)" (fst f.pair_activations) (snd f.pair_activations);
            ])
      findings;
    Printf.printf "%d/%d pairs lock\n"
      (List.length (H.locked findings))
      (List.length findings);
    Table.print table;
    finish_obs obs ~trace_out ~metrics
  in
  Cmd.v (Cmd.info "lockhunt" ~doc)
    Term.(
      const f $ alg_arg $ n_arg $ seed_arg $ idents_arg $ jobs_arg
      $ time_budget_arg $ mem_budget_arg $ trace_out_arg $ metrics_arg)

let fuzz_cmd =
  let doc = "randomized fault-injection fuzzing with replayable, shrunk traces" in
  let execs_arg =
    Arg.(
      value
      & opt int 500
      & info [ "execs" ] ~docv:"N" ~doc:"Number of random executions to attempt.")
  in
  let max_n_arg =
    Arg.(
      value
      & opt int 10
      & info [ "max-n" ] ~docv:"N" ~doc:"Largest instance size to generate.")
  in
  let algos_arg =
    Arg.(
      value
      & opt (list string) [ "1"; "2"; "2s"; "3" ]
      & info [ "algos" ] ~docv:"A,A,..."
          ~doc:"Algorithms to draw scenarios from: 1, 2, 2s, 3.")
  in
  let mutant_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "mutant" ] ~docv:"NAME"
          ~doc:
            "Mutation-test the detectors: fuzz a deliberately broken variant \
             (see $(b,--list-mutants)) and expect a finding.  Exit 0 iff the \
             mutant is caught.")
  in
  let list_mutants_arg =
    Arg.(
      value & flag
      & info [ "list-mutants" ] ~doc:"List the known mutations and exit.")
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Save every finding to DIR as it is found — tNNNN.trace (raw) and \
             tNNNN.min.trace (shrunk), keyed by exec index.")
  in
  let min_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "min-out" ] ~docv:"PATH"
          ~doc:"Write the first finding's shrunk trace to PATH.")
  in
  let f seed execs max_n algos mutant corpus min_out jobs time_s mem_mb
      list_mutants trace_out metrics =
    if list_mutants then
      List.iter
        (fun (i : Fz.Mutation.info) ->
          Printf.printf "%-20s (algorithm %s) %s\n" i.name
            (Fz.Scenario.algo_name i.base) i.describe)
        Fz.Mutation.all
    else begin
      Option.iter (ensure_parent ~flag:"--trace-out") trace_out;
      Option.iter (ensure_parent ~flag:"--min-out") min_out;
      Option.iter (ensure_dir ~flag:"--corpus") corpus;
      announce_seed seed;
      let algos =
        List.map
          (function
            | "1" -> Fz.Scenario.A1
            | "2" -> Fz.Scenario.A2
            | "2s" -> Fz.Scenario.A2s
            | "3" -> Fz.Scenario.A3
            | a -> usage_error ~flag:"--algos" "unknown algorithm %S (1, 2, 2s, 3)" a)
          algos
      in
      let budget = make_budget ~time_s ~mem_mb in
      let obs = make_obs ~trace_out ~metrics in
      let t0 = Oclock.monotonic () in
      let report =
        Stop.with_signals (fun () ->
            Fz.Fuzz.campaign ~jobs ?budget ~stop:Stop.requested
              ?corpus_dir:corpus ?mutation:mutant ~algos ~max_n ~obs ~seed
              ~execs ())
      in
      let dt = elapsed_s t0 in
      Diag.printf "%d execs in %.3fs (%.0f execs/sec, jobs=%d)\n"
        report.execs_done dt
        (float_of_int report.execs_done /. Float.max dt 1e-9)
        jobs;
      (match budget with
      | Some b when Budget.exceeded b ->
          Diag.printf "budget exceeded (%s): truncated campaign\n"
            (Budget.describe b)
      | _ -> ());
      List.iter
        (fun (fd : Fz.Fuzz.finding) ->
          Printf.printf
            "finding: exec=%d invariant=%s shrink: %d->%d steps, n=%d (%d \
             shrink execs)\n"
            fd.exec fd.invariant
            (Fz.Scenario.steps fd.trace.scenario)
            (Fz.Scenario.steps fd.shrunk.scenario)
            (Fz.Scenario.graph_n fd.shrunk.scenario.graph)
            fd.shrink_stats.execs;
          Format.printf "%a@." Fz.Trace.pp fd.shrunk)
        report.findings;
      (match (min_out, report.findings) with
      | Some path, fd :: _ ->
          Fz.Trace.save ~path fd.shrunk;
          Diag.printf "shrunk trace written to %s\n" path
      | Some _, [] -> ()
      | None, _ -> ());
      Printf.printf "fuzz: seed=%d execs=%d/%d findings=%d complete=%b\n"
        report.seed report.execs_done report.execs_requested
        (List.length report.findings)
        report.complete;
      (* Before the verdict: findings exit 1 below, and a trace of the
         failing campaign is precisely the artifact worth keeping. *)
      finish_obs obs ~trace_out ~metrics;
      (* In mutation mode a finding is the expected outcome (the detectors
         caught the planted bug); in normal mode it is a real violation. *)
      match (mutant, report.findings) with
      | Some _, [] ->
          prerr_endline "mutant escaped: no invariant violation found";
          exit 1
      | Some _, _ :: _ -> ()
      | None, _ :: _ -> exit 1
      | None, [] -> ()
    end
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(
      const f $ seed_arg $ execs_arg $ max_n_arg $ algos_arg $ mutant_arg
      $ corpus_arg $ min_out_arg $ jobs_arg $ time_budget_arg $ mem_budget_arg
      $ list_mutants_arg $ trace_out_arg $ metrics_arg)

let churn_cmd =
  let doc = "long-lived churn sessions: crash-recovery with self-healing re-coloring" in
  let algo_arg =
    Arg.(
      value
      & opt string "2"
      & info [ "algo" ] ~docv:"A"
          ~doc:
            "Algorithm under churn: $(b,2) or $(b,3) — the wait-free cycle \
             algorithms, whose activation bounds the recovery invariant \
             checks against.")
  in
  let churn_n_arg =
    Arg.(
      value & opt int 62
      & info [ "n" ] ~docv:"N"
          ~doc:
            "Ring size, 3-62: every activation goes through the packed \
             one-word activation masks.")
  in
  let horizon_arg =
    Arg.(
      value & opt int 250_000
      & info [ "horizon" ] ~docv:"N" ~doc:"Target activations per session.")
  in
  let crash_rate_arg =
    Arg.(
      value & opt float 0.3
      & info [ "crash-rate" ] ~docv:"P"
          ~doc:"Per-step probability that a crash event fires during a churn window.")
  in
  let recover_rate_arg =
    Arg.(
      value & opt float 0.5
      & info [ "recover-rate" ] ~docv:"P"
          ~doc:"Per-step recovery probability of each crashed node.")
  in
  let burst_arg =
    Arg.(
      value & opt int 1
      & info [ "burst" ] ~docv:"K" ~doc:"Nodes taken down by one crash event.")
  in
  let sessions_arg =
    Arg.(
      value & opt int 4
      & info [ "sessions" ] ~docv:"N" ~doc:"Independent sessions in the campaign.")
  in
  let mutant_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "mutant" ] ~docv:"NAME"
          ~doc:
            "Mutation-test the recovery detectors: plant a recovery bug \
             (see $(b,--list-mutants)) and expect a violation.  Exit 0 iff \
             the bug is caught.")
  in
  let list_mutants_arg =
    Arg.(
      value & flag
      & info [ "list-mutants" ]
          ~doc:"List the planted recovery bugs and their pinned detectors, then exit.")
  in
  let save_trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "save-trace" ] ~docv:"PATH"
          ~doc:
            "Persist the campaign's violations as a replayable churn trace \
             (crash-safe checkpoint container).")
  in
  let replay_trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"PATH"
          ~doc:
            "Replay a churn trace: re-run the recorded campaign and check \
             the recorded violations reproduce byte-for-byte.  Exit 0 on \
             reproduction, 1 on mismatch, 2 on a corrupt file.")
  in
  let f algo n horizon crash_rate recover_rate burst sessions seed jobs mutant
      list_mutants save_trace replay trace_out metrics =
    if list_mutants then
      List.iter
        (fun b ->
          Printf.printf "%-18s caught by %s\n"
            (Churn.Session.bug_name b)
            (Churn.Session.bug_detector b))
        Churn.Session.bugs
    else begin
      Option.iter (ensure_parent ~flag:"--trace-out") trace_out;
      Option.iter (ensure_parent ~flag:"--save-trace") save_trace;
      let obs = make_obs ~trace_out ~metrics in
      match replay with
      | Some path -> (
          match Churn.Trace.load path with
          | exception Checkpoint.Corrupt msg ->
              Printf.eprintf "corrupt churn trace %s: %s\n" path msg;
              exit 2
          | t ->
              Format.printf "%a@." Churn.Trace.pp t;
              let _report, reproduced = Churn.Trace.replay ~jobs ~obs t in
              Printf.printf "reproduced=%b\n" reproduced;
              finish_obs obs ~trace_out ~metrics;
              if not reproduced then exit 1)
      | None ->
          announce_seed seed;
          let algo =
            match Churn.Session.algo_of_string algo with
            | Some a -> a
            | None ->
                usage_error ~flag:"--algo" "churn supports algorithms 2 and 3, not %S"
                  algo
          in
          let bug =
            Option.map
              (fun name ->
                match Churn.Session.bug_of_string name with
                | Some b -> b
                | None ->
                    usage_error ~flag:"--mutant"
                      "unknown recovery bug %S (see --list-mutants)" name)
              mutant
          in
          let cfg =
            {
              Churn.Session.algo;
              n;
              horizon;
              crash_rate;
              recover_rate;
              burst;
              mutant = bug;
            }
          in
          let t0 = Oclock.monotonic () in
          let report : Churn.Session.report =
            Stop.with_signals (fun () ->
                Churn.Session.campaign ~jobs ~obs cfg ~seed ~sessions ())
          in
          let dt = elapsed_s t0 in
          Diag.printf "%d activations in %.3fs (%.0f activations/sec, jobs=%d)\n"
            report.total_activations dt
            (float_of_int report.total_activations /. Float.max dt 1e-9)
            jobs;
          Format.printf "%a@." Churn.Session.pp_report report;
          (match save_trace with
          | None -> ()
          | Some path ->
              Churn.Trace.save ~path (Churn.Trace.of_report report);
              Diag.printf "churn trace written to %s\n" path);
          finish_obs obs ~trace_out ~metrics;
          (* As for fuzz --mutant: a violation is the expected outcome when
             a recovery bug is planted, a failure otherwise. *)
          match (bug, report.violations) with
          | Some _, [] ->
              prerr_endline "recovery bug escaped: no detector fired";
              exit 1
          | Some _, _ :: _ -> ()
          | None, _ :: _ -> exit 1
          | None, [] -> ()
    end
  in
  Cmd.v (Cmd.info "churn" ~doc)
    Term.(
      const f $ algo_arg $ churn_n_arg $ horizon_arg $ crash_rate_arg
      $ recover_rate_arg $ burst_arg $ sessions_arg $ seed_arg $ jobs_arg
      $ mutant_arg $ list_mutants_arg $ save_trace_arg $ replay_trace_arg
      $ trace_out_arg $ metrics_arg)

let replay_cmd =
  let doc = "replay an explicit schedule (e.g. a lasso printed by check) or a fuzz trace" in
  let sched_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "schedule" ] ~docv:"SCHED" ~doc:"Schedule, e.g. \"{0} {1} {1,2}\".")
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"PATH"
          ~doc:
            "Replay a trace recorded by $(b,fuzz).  The stored scenario is \
             re-executed byte-identically; exit 0 iff the recorded violations \
             reproduce, 1 on mismatch, 2 on a corrupt file.")
  in
  let f alg n seed idents_kind sched trace verbose =
    match (trace, sched) with
    | Some path, None -> (
        match Fz.Trace.load path with
        | exception Checkpoint.Corrupt msg ->
            Printf.eprintf "corrupt trace %s: %s\n" path msg;
            exit 2
        | t ->
            Format.printf "%a@." Fz.Trace.pp t;
            let outcome, reproduced = Fz.Fuzz.replay t in
            List.iter
              (fun (v : Fz.Exec.violation) ->
                Printf.printf "replayed violation[%s]: %s\n" v.invariant v.message)
              outcome.violations;
            Printf.printf "reproduced=%b\n" reproduced;
            if not reproduced then exit 1)
    | None, Some sched ->
        let graph = Builders.cycle n in
        let idents = make_idents ~kind:idents_kind ~seed n in
        let adv = Adversary.finite (Adversary.parse sched) in
        run_algorithm (algorithm alg) ~graph ~on_cycle:true ~idents ~adv
          ~max_steps:1_000_000 ~verbose
    | _ ->
        usage_error ~flag:"--trace" "replay needs exactly one of --schedule and --trace"
  in
  Cmd.v (Cmd.info "replay" ~doc)
    Term.(
      const f $ alg_arg $ n_arg $ seed_arg $ idents_arg $ sched_arg $ trace_arg
      $ verbose_arg)

let tracecheck_cmd =
  let doc = "validate a Chrome trace_event file written by --trace-out" in
  let path_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"PATH" ~doc:"Trace file to validate.")
  in
  let f path =
    (* Same spirit as Checkpoint's digest check, for an artifact whose
       reader (Perfetto) we do not control: reject truncation or
       corruption with a one-line reason.  Exit 0 valid, 2 invalid. *)
    match Trace_export.validate path with
    | Ok events -> Printf.printf "trace ok: %d events\n" events
    | Error msg ->
        Printf.eprintf "invalid trace %s: %s\n" path msg;
        exit 2
  in
  Cmd.v (Cmd.info "tracecheck" ~doc) Term.(const f $ path_arg)

let experiments_cmd =
  let doc = "run the reproduction experiments (E1-E18)" in
  let quick_arg = Arg.(value & flag & info [ "quick" ] ~doc:"Reduced sizes.") in
  let only_arg =
    Arg.(value & opt (some string) None & info [ "only" ] ~docv:"ID" ~doc:"Run one experiment.")
  in
  let csv_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"DIR"
          ~doc:
            "Also write every table of the run as a CSV file under DIR \
             (created if missing), one file per table.")
  in
  (* The [wrote …] and [memory:] lines go to stderr, as [check]'s do:
     stdout stays the report alone. *)
  let f quick only jobs csv =
    Option.iter (ensure_dir ~flag:"--csv") csv;
    let outcomes =
      match only with
      | None -> Asyncolor_experiments.Registry.run_all ~quick ~jobs ()
      | Some id -> (
          match Asyncolor_experiments.Registry.find id with
          | None ->
              Printf.eprintf "no experiment %S\n" id;
              exit 2
          | Some e ->
              let outcome = e.run ~quick () in
              Asyncolor_experiments.Outcome.print outcome;
              [ outcome ])
    in
    Option.iter
      (fun dir ->
        let written =
          List.concat_map (Asyncolor_experiments.Outcome.write_csvs ~dir) outcomes
        in
        Diag.printf "wrote %d CSV files to %s\n" (List.length written) dir)
      csv;
    Diag.printf "%s\n" (memory_pressure_line ());
    if not (Asyncolor_experiments.Outcome.all_ok outcomes) then exit 1
  in
  Cmd.v (Cmd.info "experiments" ~doc)
    Term.(const f $ quick_arg $ only_arg $ jobs_arg $ csv_arg)

let () =
  let doc = "wait-free colouring of the asynchronous cycle (PODC 2022 reproduction)" in
  let info = Cmd.info "asyncolor" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd;
            sweep_cmd;
            check_cmd;
            lockhunt_cmd;
            fuzz_cmd;
            churn_cmd;
            replay_cmd;
            tracecheck_cmd;
            experiments_cmd;
          ]))
