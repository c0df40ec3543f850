(* The repository benchmark: three cycle workloads, end-to-end metrics from
   untraced runs and per-layer costs from a separate traced run.

   Usage (normally through run.py, which builds this executable, runs it
   once per timed call, adds each process's peak RSS, takes low
   percentiles and prints the final result line):

     bench.exe --workload NAME [--seed N] [--mode call|trace]
               [--scale full|toy] [--untraced-* ...]

   [--mode call] makes one untraced timed call and prints one sample line;
   [--mode trace] makes one traced call, runs the layer probes and prints
   the per-layer result line, given the untraced call's sample.

   Every layer cost is measured from outside the library: by timing calls
   into the layer's public functions on inputs shaped like the workload's,
   and by reading the obs sink ([~obs]) the library already has.  Nothing
   here adds tracing inside the library.

   {1 Workloads}

   - [explore-c5-full]: Algorithm 2 on C5, idents 5,1,9,4,7, every
     activation subset (the paper's full model), symmetry off, no spill,
     one job on the Serial policy.  97,197 configurations and 580,965
     transitions, ending in the F1 lasso.  Why: it is the pure checker hot
     loop (restore -> activate_mask -> config_key -> intern -> merge ->
     livelock analysis).  The symmetry group is trivial, nothing touches
     disk and no domain is spawned, so engine and intern costs dominate;
     canonicalisation, spill and the executor do no work.
   - [explore-c5-sym-j2]: Algorithm 2 on C5, uniform idents, every
     activation subset, symmetry on (group order 10), spill threshold
     64 KB, two jobs on the Asynchronous policy with kappa = 0.5.  5,952
     representatives, 60,157 transitions; orbit-expanded, 57,010
     configurations and 559,860 transitions, the counts of the unreduced
     C5 uniform full model.  Why: it loads what the first workload
     bypasses: per-successor canonicalisation, spill writes and
     reassembly, and fine-grained expansion futures on both cores.  It is
     where "make parallelism pay" shows.
   - [churn-c62-j2]: Algorithm 3 on C62, the default churn rates, 4
     sessions of 31.25k activations each (125k per call; short calls give
     each run enough of them for a steady estimate on a shared two-core
     machine), the schedule seeded from --seed, two jobs on the
     Synchronous policy.  Why: it uses the engine
     differently: long-lived activate_mask plus reset, and never snapshot,
     restore, key or intern.  Its executor tasks are coarse (one session
     each), so an engine change that helps restore-heavy exploration but
     costs the write path, or an executor change tuned for tiny tasks,
     shows here.

   Both explore workloads are on C5 rather than C6: a C6 call takes 4-8 s
   and holds 200-300 MB, so a run gets too few calls for a steady
   estimate and its speed follows how busy the shared host's caches are;
   a C5 call takes 0.3-2.5 s and runs the same code paths.

   The explore workloads are deterministic; their identifier assignments
   are recorded above and echoed in the output.  The seed only drives the
   churn schedule.

   {1 Layer metric -> the end-to-end metric it should move}

   - engine.activate_ns, engine.minor_words_per_activate: ops_per_s on
     explore-c5-full and on churn-c62-j2.
   - engine.restore_ns, engine.snapshot_ns: ops_per_s on explore-c5-full;
     predicted no change on churn, which never calls them.
   - engine.reset_ns: ops_per_s on churn.
   - explorer.key_ns, explorer.intern_ns: ops_per_s on explore-c5-full;
     explorer.dup_ratio (exact, 1 - configs/transitions) explains the
     intern load.
   - explorer.canon_ns, explorer.orbit_ratio: ops_per_s on
     explore-c5-sym-j2; predicted no change on explore-c5-full.
   - explorer.analyze_livelock_s, explorer.analyze_worstcase_s: wall_s on
     both explore workloads.
   - explorer.levels, explorer.wait_ms: wall_s on explore-c5-sym-j2.
   - exec.roundtrip_ns (the grain-size floor), exec.task_p50_us,
     exec.task_p99_us, exec.tasks, exec.steals, exec.wait_ms: ops_per_s
     and cpu_s on explore-c5-sym-j2; predicted no change on churn, whose
     tasks are seconds long.
   - spill.bytes_written, spill.levels, spill.write_mb_per_s,
     spill.read_mb_per_s: wall_s on explore-c5-sym-j2 only.
   - churn.epoch_p50_ms, churn.epoch_p99_ms, churn.session_overhead_ns:
     ops_per_s on churn.  churn.recovery_p50_acts and
     churn.recovery_p99_acts are exact protocol counts and must not move.
   - gc.minor_words_per_op, gc.promoted_words_per_op,
     gc.major_collections: cpu_s and throughput on the two-job workloads,
     where a minor collection stops both domains.
   - trace_overhead: traced wall / untraced wall.
   - host.reference_ms: one pass of the host reference kernel (see
     [reference_pass]), which run.py scales the end-to-end times by; it
     reads how busy the shared host was, and no program change moves it.
   - layers.*_s and layers.other_frac: the blocking-path share of each
     layer; a faster layer can raise an end-to-end metric by at most that
     share.  other_frac = 1 - sum(layers)/wall_s says how much of the wall
     clock the probes explain.

   A layer metric is 0 exactly when the workload never calls the layer
   (no restore on churn, no executor on explore-c5-full, ...). *)

module Obs = Asyncolor_obs.Obs
module Clock = Asyncolor_obs.Clock
module Executor = Asyncolor_util.Executor
module Prng = Asyncolor_util.Prng
module Sharded_tbl = Asyncolor_util.Sharded_tbl
module Spill = Asyncolor_resilience.Spill
module Builders = Asyncolor_topology.Builders
module Idents = Asyncolor_workload.Idents
module Stats = Asyncolor_workload.Stats
module Session = Asyncolor_churn.Session
module Exp = Asyncolor_check.Explorer.Make (Asyncolor.Algorithm2.P)
module E = Exp.E
module E3 = Asyncolor_kernel.Engine.Make (Asyncolor.Algorithm3.P)

(* --- small utilities ----------------------------------------------------- *)

let now () = Clock.monotonic ()
let secs_since t0 = Int64.to_float (Int64.sub (now ()) t0) /. 1e9

let median = function
  | [] -> 0.0
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* nearest-rank percentile of unsorted samples, 0 on no samples *)
let percentile q = function
  | [] -> 0.0
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float n)) - 1)))

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

(* Scratch space for spill files, relative to the checkout root. *)
let tmp_root = ".perfbench_tmp"

(* --- workloads ----------------------------------------------------------- *)

type scale = Full | Toy

type explore_spec = {
  graph : Asyncolor_topology.Graph.t;
  idents : int array;
  symmetry : bool;
  spill_words : int option;
  jobs : int;
  policy : Executor.policy;
  expect : string;  (** the report digest every timed run must reproduce *)
}

type churn_spec = {
  cfg : Session.config;
  sessions : int;
  cjobs : int;
  cpolicy : Executor.policy;
  expect_by_seed : (int * string) list;
      (** digests recorded for seeds 0-20; other seeds are checked against
          the seed-independent invariants and across repeated calls *)
}

type spec = Explore of explore_spec | Churn of churn_spec

let workload_names = [ "explore-c5-full"; "explore-c5-sym-j2"; "churn-c62-j2" ]
let default_seed = 1

let async2 = Executor.asynchronous ~kappa:0.5 ~jobs:2 ()

let spec_of ~scale name =
  match (name, scale) with
  | "explore-c5-full", Full ->
      Explore
        {
          graph = Builders.cycle 5;
          idents = [| 5; 1; 9; 4; 7 |];
          symmetry = false;
          spill_words = None;
          jobs = 1;
          policy = Executor.Serial;
          expect =
            "configs=97197 transitions=580965 terminal=1424 complete=true \
             wait_free=false worst=-1 lasso={0} {1} {1} {2} {3} {4} {3,4} \
             {3,4} {3,4} orbit=none";
        }
  | "explore-c5-full", Toy ->
      Explore
        {
          graph = Builders.cycle 4;
          idents = [| 5; 1; 9; 4 |];
          symmetry = false;
          spill_words = None;
          jobs = 1;
          policy = Executor.Serial;
          expect =
            "configs=2938 transitions=11728 terminal=110 complete=true \
             wait_free=false worst=-1 lasso={0} {1} {2} {3} {1,2} {1,2} \
             {1,2} orbit=none";
        }
  | "explore-c5-sym-j2", Full ->
      Explore
        {
          graph = Builders.cycle 5;
          idents = Idents.uniform 5;
          symmetry = true;
          spill_words = Some (64 * 1024 / 8) (* 64 KB *);
          jobs = 2;
          policy = async2;
          expect =
            "configs=5952 transitions=60157 terminal=9 complete=true \
             wait_free=false worst=-1 lasso={0} {0} {0} {0} {0} {0} {0} \
             {0} {0} {0,1} {0,1} {0,1} orbit=g10/57010/559860/90";
        }
  | "explore-c5-sym-j2", Toy ->
      Explore
        {
          graph = Builders.cycle 4;
          idents = Idents.uniform 4;
          symmetry = true;
          spill_words = Some 1024;
          jobs = 2;
          policy = async2;
          expect =
            "configs=933 transitions=5425 terminal=12 complete=true \
             wait_free=false worst=-1 lasso={0} {0} {0} {0} {0,1} {0} \
             {0,1,2} {0,1,2} orbit=g8/6039/34429/44";
        }
  | "churn-c62-j2", Full ->
      Churn
        {
          cfg = { Session.default with algo = Session.A3; horizon = 31_250 };
          sessions = 4;
          cjobs = 2;
          cpolicy = Executor.Synchronous;
          expect_by_seed =
            [
              ( 0,
                "activations=125009 steps=375042 crashes=72314 recoveries=72314 \
                 latency=71834/1/2/2/2/5 radius=18917/0/0/0/0/0 violations=0" );
              ( 1,
                "activations=125005 steps=374482 crashes=72185 recoveries=72185 \
                 latency=71702/1/2/2/2/5 radius=19127/0/0/0/0/0 violations=0" );
              ( 2,
                "activations=125018 steps=374617 crashes=72388 recoveries=72388 \
                 latency=71896/1/2/2/2/4 radius=18883/0/0/0/0/0 violations=0" );
              ( 3,
                "activations=125013 steps=375781 crashes=72361 recoveries=72361 \
                 latency=71938/1/2/2/2/6 radius=18570/0/0/0/0/0 violations=0" );
              ( 4,
                "activations=125004 steps=374916 crashes=72272 recoveries=72272 \
                 latency=71804/1/2/2/2/4 radius=18871/0/0/0/0/0 violations=0" );
              ( 5,
                "activations=125010 steps=373813 crashes=72324 recoveries=72324 \
                 latency=71836/1/2/2/2/6 radius=18759/0/0/0/0/0 violations=0" );
              ( 6,
                "activations=125008 steps=375834 crashes=72310 recoveries=72310 \
                 latency=71857/1/2/2/2/5 radius=18895/0/0/0/0/0 violations=0" );
              ( 7,
                "activations=125009 steps=375283 crashes=72167 recoveries=72167 \
                 latency=71717/1/2/2/2/5 radius=19207/0/0/0/0/0 violations=0" );
              ( 8,
                "activations=125005 steps=376810 crashes=72501 recoveries=72501 \
                 latency=72017/1/2/2/2/5 radius=18540/0/0/0/0/0 violations=0" );
              ( 9,
                "activations=125003 steps=374789 crashes=72256 recoveries=72256 \
                 latency=71734/1/2/2/2/5 radius=18946/0/0/0/0/0 violations=0" );
              ( 10,
                "activations=125017 steps=376630 crashes=72353 recoveries=72353 \
                 latency=71879/1/2/2/2/6 radius=18788/0/0/0/0/0 violations=0" );
              ( 11,
                "activations=125005 steps=374813 crashes=72196 recoveries=72196 \
                 latency=71707/1/2/2/2/5 radius=18875/0/0/0/0/0 violations=0" );
              ( 12,
                "activations=125011 steps=374357 crashes=72399 recoveries=72399 \
                 latency=71913/1/2/2/2/4 radius=18692/0/0/0/0/0 violations=0" );
              ( 13,
                "activations=125009 steps=375928 crashes=72297 recoveries=72297 \
                 latency=71827/1/2/2/2/5 radius=19202/0/0/0/0/0 violations=0" );
              ( 14,
                "activations=125007 steps=375092 crashes=72400 recoveries=72400 \
                 latency=71915/1/2/2/2/4 radius=18974/0/0/0/0/0 violations=0" );
              ( 15,
                "activations=125006 steps=376209 crashes=72251 recoveries=72251 \
                 latency=71805/1/2/2/2/5 radius=18857/0/0/0/0/0 violations=0" );
              ( 16,
                "activations=125011 steps=375065 crashes=72282 recoveries=72282 \
                 latency=71762/1/2/2/2/4 radius=18567/0/0/0/0/0 violations=0" );
              ( 17,
                "activations=125014 steps=375437 crashes=72418 recoveries=72418 \
                 latency=71892/1/2/2/2/6 radius=19013/0/0/0/0/0 violations=0" );
              ( 18,
                "activations=125004 steps=377132 crashes=72419 recoveries=72419 \
                 latency=71955/1/2/2/2/5 radius=18896/0/0/0/0/0 violations=0" );
              ( 19,
                "activations=125010 steps=375765 crashes=72363 recoveries=72363 \
                 latency=71858/1/2/2/2/7 radius=19077/0/0/0/0/0 violations=0" );
              ( 20,
                "activations=125017 steps=374937 crashes=72429 recoveries=72429 \
                 latency=71962/1/2/2/2/5 radius=18792/0/0/0/0/0 violations=0" );
            ];
        }
  | "churn-c62-j2", Toy ->
      Churn
        {
          cfg = { Session.default with algo = Session.A3; n = 12; horizon = 5_000 };
          sessions = 2;
          cjobs = 2;
          cpolicy = Executor.Synchronous;
          expect_by_seed =
            [
              ( 1,
                "activations=10007 steps=30217 crashes=5855 recoveries=5855 \
                 latency=5657/1/2/2/3/4 radius=1747/0/0/0/0/0 violations=0" );
            ];
        }
  | _ -> invalid_arg ("unknown workload " ^ name)

(* The instance a workload runs, as echoed in the output. *)
let describe = function
  | Explore x ->
      Printf.sprintf "Alg2 C%d idents=%s all-subsets symmetry=%b spill=%s jobs=%d %s"
        (Array.length x.idents)
        (String.concat "," (Array.to_list (Array.map string_of_int x.idents)))
        x.symmetry
        (match x.spill_words with None -> "off" | Some w -> Printf.sprintf "%dw" w)
        x.jobs (Executor.policy_name x.policy)
  | Churn c ->
      Format.asprintf "Alg3 churn %a sessions=%d jobs=%d %s" Session.pp_config c.cfg
        c.sessions c.cjobs (Executor.policy_name c.cpolicy)

(* --- digests ------------------------------------------------------------- *)

let explore_digest (r : Exp.report) =
  let sets s =
    String.concat " "
      (List.map
         (fun set -> "{" ^ String.concat "," (List.map string_of_int set) ^ "}")
         s)
  in
  Printf.sprintf
    "configs=%d transitions=%d terminal=%d complete=%b wait_free=%b worst=%d \
     lasso=%s orbit=%s"
    r.configs r.transitions r.terminal_configs r.complete r.wait_free
    r.worst_case_activations
    (match r.livelock with None -> "none" | Some v -> sets v.schedule)
    (match r.orbit with
    | None -> "none"
    | Some o ->
        Printf.sprintf "g%d/%d/%d/%d" o.group_order o.expanded_configs
          o.expanded_transitions o.expanded_terminal)

let summary_digest = function
  | None -> "-"
  | Some (s : Stats.summary) ->
      Printf.sprintf "%d/%d/%d/%d/%d/%d" s.count s.min s.p50 s.p95 s.p99 s.max

let churn_steps (r : Session.report) =
  List.fold_left (fun a (s : Session.result) -> a + s.steps) 0 r.results

let churn_digest (r : Session.report) =
  Printf.sprintf
    "activations=%d steps=%d crashes=%d recoveries=%d latency=%s radius=%s \
     violations=%d"
    r.total_activations (churn_steps r) r.total_crashes r.total_recoveries
    (summary_digest r.latency) (summary_digest r.radius)
    (List.length r.violations)

(* Seed-independent checks of a churn report: the self-healing detectors
   found nothing, every session reached its horizon, every crash was
   recovered, recovery stayed within Algorithm 3's bound and repair was
   local. *)
let churn_invariants (c : churn_spec) (r : Session.report) =
  let bound = Asyncolor.Algorithm3.activation_bound c.cfg.n in
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if r.violations <> [] then fail "%d violations" (List.length r.violations)
  else if List.length r.results <> c.sessions then fail "session count"
  else if
    List.exists (fun (s : Session.result) -> s.activations < c.cfg.horizon) r.results
  then fail "a session stopped short of its horizon"
  else if r.total_crashes <> r.total_recoveries then fail "unrecovered crashes"
  else
    match (r.latency, r.radius) with
    | Some l, Some rd when l.max <= bound && rd.max = 0 -> Ok ()
    | Some l, _ when l.max > bound -> fail "recovery latency %d > bound %d" l.max bound
    | _ -> fail "missing or non-local latency/radius summary"

(* --- one timed call ------------------------------------------------------ *)

type timed = {
  reference_s : float list;
  setup_s : float list;
  wall_s : float;
  cpu_s : float;
  ops : int;
  minor_words : float;
  promoted_words : float;
  major_collections : int;
  digest : string;
  result : [ `Explore of Exp.report | `Churn of Session.report ];
  spill : Spill.t option;
}

(* An empty spill store in the scratch directory. *)
let fresh_store name =
  let dir = Filename.concat tmp_root (name ^ "-spill") in
  rm_rf dir;
  if not (Sys.file_exists tmp_root) then Unix.mkdir tmp_root 0o755;
  Spill.create ~dir ()

(* Set-up: everything before the first timed call.  Builds the instance,
   empties and opens the spill store, runs the toy-sized warm-up of the
   same workload and compacts the heap, so the timed call starts from the
   same state every time. *)
let setup ~name spec =
  let t0 = now () in
  let spill =
    match spec with
    | Explore { spill_words = Some words; _ } -> Some (fresh_store name, words)
    | _ -> None
  in
  (* The toy shape of the workload is its warm-up: same functor, same
     policy, same code paths, a few milliseconds of work. *)
  (match spec_of ~scale:Toy name with
  | Explore w ->
      let spill =
        Option.map (fun words -> (fresh_store (name ^ "-warmup"), words)) w.spill_words
      in
      ignore
        (Exp.explore ~jobs:w.jobs ~policy:w.policy ~symmetry:w.symmetry ?spill
           w.graph ~idents:w.idents)
  | Churn w ->
      ignore
        (Session.campaign ~jobs:w.cjobs ~policy:w.cpolicy w.cfg ~seed:default_seed
           ~sessions:w.sessions ()));
  Gc.compact ();
  (secs_since t0, spill)

(* The host reference: a fixed, allocation-heavy kernel that calls no
   library code (add/remove churn on a Stdlib map of 4096 int keys: minor
   collections, promotion, pointer chasing).  Every call times a few passes
   of it on a fresh heap before its set-ups; run.py scales the call's times
   by it, so that a neighbour slowing the shared host for minutes slows
   the reference too and mostly cancels out. *)
module Int_map = Map.Make (Int)

let reference_pass () =
  let t0 = now () in
  let m = ref Int_map.empty and x = ref 12345 in
  for i = 0 to 99_999 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let k = !x land 4095 in
    m := if i land 1 = 0 then Int_map.add k [ i ] !m else Int_map.remove k !m
  done;
  ignore (Sys.opaque_identity !m);
  secs_since t0

let reference_passes = 5
let setups_per_call = 5

let timed_call ?(obs = Obs.disabled) ~name ~seed spec =
  let reference_s = List.init reference_passes (fun _ -> reference_pass ()) in
  let setups, spill =
    let rec go k acc =
      let s, spill = setup ~name spec in
      if k <= 1 then (List.rev (s :: acc), spill) else go (k - 1) (s :: acc)
    in
    go setups_per_call []
  in
  let gc0 = Gc.quick_stat () in
  let cpu0 = cpu_now () in
  let t0 = now () in
  let result =
    match spec with
    | Explore x ->
        `Explore
          (Exp.explore ~jobs:x.jobs ~policy:x.policy ~symmetry:x.symmetry ?spill
             ~obs x.graph ~idents:x.idents)
    | Churn c ->
        `Churn
          (Session.campaign ~jobs:c.cjobs ~policy:c.cpolicy ~obs c.cfg ~seed
             ~sessions:c.sessions ())
  in
  let wall_s = secs_since t0 in
  let cpu_s = cpu_now () -. cpu0 in
  let gc1 = Gc.quick_stat () in
  let ops, digest =
    match result with
    | `Explore r -> (r.configs, explore_digest r)
    | `Churn r -> (r.total_activations, churn_digest r)
  in
  {
    reference_s;
    setup_s = setups;
    wall_s;
    cpu_s;
    ops;
    minor_words = gc1.minor_words -. gc0.minor_words;
    promoted_words = gc1.promoted_words -. gc0.promoted_words;
    major_collections = gc1.major_collections - gc0.major_collections;
    digest;
    result;
    spill = Option.map fst spill;
  }

(* The correctness verdict of one timed call: the digest must equal the
   one fixed above.  Churn digests are fixed for the recorded seeds; on
   every seed the invariants must hold, and run.py checks that repeated
   calls agree. *)
let check ~seed spec t =
  match (spec, t.result) with
  | Explore x, `Explore _ ->
      if t.digest = x.expect then Ok ()
      else Error (Printf.sprintf "digest mismatch: got %S" t.digest)
  | Churn c, `Churn r -> (
      match churn_invariants c r with
      | Error _ as e -> e
      | Ok () -> (
          match List.assoc_opt seed c.expect_by_seed with
          | Some d when d <> t.digest ->
              Error (Printf.sprintf "digest mismatch: got %S" t.digest)
          | _ -> Ok ()))
  | _ -> Error "result does not match the workload"

(* --- output lines --------------------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | ' ' .. '~' -> Buffer.add_char b c
      | c -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c)))
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float v =
  let v = if Float.is_finite v then v else 0.0 in
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, unit_, v) ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
          (json_float v) (json_string unit_))
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " m)

(* --- call mode: one untraced timed call ------------------------------------ *)

(* One sample for run.py, which repeats calls in fresh processes (so every
   call starts from the same cold heap) and reports low percentiles over them.
   A failed call — digest mismatch or exception — prints ok=false and is
   never part of a reported value. *)
let call_mode ~name ~seed spec =
  let fields =
    match timed_call ~name ~seed spec with
    | t ->
        let error =
          match check ~seed spec t with Ok () -> "" | Error msg -> msg
        in
        [
          ("instance", json_string (describe spec));
          ("ok", string_of_bool (error = ""));
          ("error", json_string error);
          ("digest", json_string t.digest);
          ( "reference_s",
            "[" ^ String.concat ", " (List.map json_float t.reference_s) ^ "]" );
          ( "setup_s",
            "[" ^ String.concat ", " (List.map json_float t.setup_s) ^ "]" );
          ("wall_s", json_float t.wall_s);
          ("cpu_s", json_float t.cpu_s);
          ("ops", string_of_int t.ops);
          ("minor_words", json_float t.minor_words);
          ("promoted_words", json_float t.promoted_words);
          ("major_collections", string_of_int t.major_collections);
        ]
    | exception e ->
        [ ("ok", "false"); ("error", json_string (Printexc.to_string e)) ]
  in
  Printf.printf "{%s}\n%!"
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%s: %s" (json_string k) v) fields))

(* --- probes: layer costs timed from outside ------------------------------ *)

(* ns per call of [body i], i over [0, k): the median of [rounds] passes
   after one warm pass, with the minor words one pass allocates per
   call. *)
let probe ?(rounds = 7) k body =
  let pass () =
    let w0 = Gc.minor_words () in
    let t0 = now () in
    for i = 0 to k - 1 do
      body i
    done;
    let dt = Int64.to_float (Int64.sub (now ()) t0) in
    (dt /. float k, (Gc.minor_words () -. w0) /. float k)
  in
  ignore (pass ());
  let passes = List.init rounds (fun _ -> pass ()) in
  (median (List.map fst passes), median (List.map snd passes))

(* a uniformly random nonempty subset of [m] (m <> 0) *)
let rec random_submask prng m =
  let s = Int64.to_int (Prng.bits64 prng) land m in
  if s = 0 then random_submask prng m else s

(* Reachable configurations of an explore workload, from random walks of
   the full model out of the initial configuration, each paired with one
   of its activation subsets. *)
let sample_configs prng ~graph ~idents count =
  let eng = E.create graph ~idents in
  let init = E.snapshot eng in
  let cs = Array.make count init and ms = Array.make count 0 in
  let i = ref 0 in
  while !i < count do
    E.restore eng init;
    let depth = Prng.int prng 24 in
    let d = ref 0 in
    while !d < depth && E.unfinished_mask eng <> 0 do
      E.activate_mask eng (random_submask prng (E.unfinished_mask eng));
      incr d
    done;
    let um = E.unfinished_mask eng in
    if um <> 0 then begin
      cs.(!i) <- E.snapshot eng;
      ms.(!i) <- random_submask prng um;
      incr i
    end
  done;
  (eng, cs, ms)

module Tbl = Sharded_tbl.Make (struct
  type t = E.key

  let equal = E.key_equal
  let hash = E.key_hash
end)

type explore_probes = {
  restore_ns : float;
  activate_ns : float;
  activate_words : float;
  snapshot_ns : float;
  key_ns : float;
  canon_ns : float;
  intern_ns : float;
}

let explore_probes (x : explore_spec) (r : Exp.report) =
  let prng = Prng.create ~seed:42 in
  let k = 4096 in
  let eng, cs, ms = sample_configs prng ~graph:x.graph ~idents:x.idents k in
  let r_ns, r_w = probe k (fun i -> E.restore eng cs.(i)) in
  let ra_ns, ra_w =
    probe k (fun i ->
        E.restore eng cs.(i);
        E.activate_mask eng ms.(i))
  in
  let ras_ns, _ =
    probe k (fun i ->
        E.restore eng cs.(i);
        E.activate_mask eng ms.(i);
        ignore (E.snapshot eng))
  in
  let succ =
    Array.init k (fun i ->
        E.restore eng cs.(i);
        E.activate_mask eng ms.(i);
        E.snapshot eng)
  in
  let key_ns, _ = probe k (fun i -> ignore (E.config_key succ.(i))) in
  let group = Exp.symmetry_group ~symmetry:x.symmetry x.graph ~idents:x.idents in
  let canon_ns, _ = probe k (fun i -> ignore (Exp.canonicalize group succ.(i))) in
  (* Intern at the workload's load factor: a 16-shard table (the
     explorer's) holding as many keys as the run interned, queried with
     the run's duplicate ratio — a hit is one lookup, a miss a lookup and
     an insertion.  Filler keys share the real keys' length. *)
  let real = Array.map E.config_key succ in
  let len = Array.length (E.key_data real.(0)) in
  let synth () = E.key_of_data (Array.init len (fun _ -> Prng.int prng 1_000_000)) in
  let tbl = Tbl.create ~shards:16 1024 in
  Array.iteri (fun i key -> Tbl.add tbl key i) real;
  for i = Array.length real to r.configs - 1 do
    Tbl.add tbl (synth ()) i
  done;
  let dup = 1.0 -. (float r.configs /. float (max 1 r.transitions)) in
  let rounds = 7 in
  let queries =
    Array.init (k * (rounds + 1)) (fun _ ->
        if Prng.float prng 1.0 < dup then `Hit real.(Prng.int prng k)
        else `Miss (synth ()))
  in
  let q = ref 0 in
  let intern_ns, _ =
    probe ~rounds k (fun _ ->
        (match queries.(!q) with
        | `Hit key -> ignore (Tbl.find_opt tbl key)
        | `Miss key -> (
            match Tbl.find_opt tbl key with
            | Some _ -> ()
            | None -> Tbl.add tbl key 0));
        incr q)
  in
  {
    restore_ns = r_ns;
    activate_ns = ra_ns -. r_ns;
    activate_words = ra_w -. r_w;
    snapshot_ns = ras_ns -. ra_ns;
    key_ns;
    canon_ns;
    intern_ns;
  }

(* The grain-size floor: one empty task submitted and awaited. *)
let roundtrip_ns ~jobs ~policy =
  Executor.with_executor ~policy ~jobs (fun ex ->
      fst
        (probe ~rounds:5 2000 (fun _ ->
             Executor.await (Executor.submit ex (fun () -> ())))))

(* Spill throughput on the workload's own level arrays: read back every
   level the run left on disk, then write them all to a fresh store.
   MB/s over container bytes; median of three passes. *)
let spill_rates ~name store =
  let levels = Spill.levels_on_disk store in
  if levels = 0 then (0.0, 0.0)
  else begin
    let dir = Spill.dir store in
    let passes =
      List.init 3 (fun pass ->
          let reader = Spill.create ~dir () in
          let t0 = now () in
          let data = Array.init levels (fun level -> Spill.read reader ~level) in
          let read_s = secs_since t0 in
          let writer = fresh_store (Printf.sprintf "%s-rewrite%d" name pass) in
          let t1 = now () in
          Array.iteri (fun level d -> ignore (Spill.write writer ~level d)) data;
          let write_s = secs_since t1 in
          rm_rf (Spill.dir writer);
          let mb b = float b /. 1048576. in
          ( mb (Spill.bytes_written writer) /. write_s,
            mb (Spill.bytes_read reader) /. read_s ))
    in
    (median (List.map fst passes), median (List.map snd passes))
  end

(* Churn engine probe.  A session drives its engine internally, so the
   probe re-creates its schedule shape with public engine calls: epochs
   of 8 churn steps (crashes at the configured rate, recoveries through
   [reset] with fresh identifiers, random half masks), a drain, a
   round-robin heal and 3 stability steps.  The schedule is recorded
   once, then replayed on a fresh engine under the clock, so the timed
   replay is nothing but activate_mask and reset calls. *)
type op = Act of int | Reset of int * int

let churn_schedule (c : churn_spec) ~steps =
  let n = c.cfg.n in
  let prng = Prng.create ~seed:7 in
  let universe = max 64 (4 * n) in
  let idents = Idents.random_sparse prng ~n ~universe in
  let eng = E3.create (Builders.cycle n) ~idents in
  let ops = ref [] and count = ref 0 in
  let act m =
    E3.activate_mask eng m;
    ops := Act m :: !ops;
    incr count
  in
  let up = Array.make n true in
  let reset p =
    let live = List.init n (E3.ident eng) in
    let id = Idents.fresh ~live ~universe in
    E3.reset eng p ~ident:id;
    up.(p) <- true;
    ops := Reset (p, id) :: !ops
  in
  let heal () =
    while E3.unfinished_mask eng <> 0 do
      for p = 0 to n - 1 do
        if E3.unfinished_mask eng land (1 lsl p) <> 0 then act (1 lsl p)
      done
    done
  in
  let half only_up =
    let m = ref 0 in
    for p = 0 to n - 1 do
      if ((not only_up) || up.(p)) && Prng.bool prng then m := !m lor (1 lsl p)
    done;
    !m
  in
  heal ();
  while !count < steps do
    for _ = 1 to 8 do
      if Prng.float prng 1.0 < c.cfg.crash_rate then up.(Prng.int prng n) <- false;
      for p = 0 to n - 1 do
        if (not up.(p)) && Prng.float prng 1.0 < c.cfg.recover_rate then reset p
      done;
      act (half true)
    done;
    for p = 0 to n - 1 do
      if not up.(p) then reset p
    done;
    heal ();
    for _ = 1 to 3 do
      act (half false)
    done
  done;
  (idents, Array.of_list (List.rev !ops))

type churn_probes = { c_activate_ns : float; c_activate_words : float; reset_ns : float }

let churn_probes (c : churn_spec) =
  let n = c.cfg.n in
  let idents, ops = churn_schedule c ~steps:200_000 in
  let graph = Builders.cycle n in
  let nact = Array.fold_left (fun a -> function Act _ -> a + 1 | Reset _ -> a) 0 ops in
  let nreset = Array.length ops - nact in
  let replay () =
    let eng = E3.create graph ~idents in
    let w0 = Gc.minor_words () in
    let t0 = now () in
    Array.iter
      (function
        | Act m -> E3.activate_mask eng m | Reset (p, id) -> E3.reset eng p ~ident:id)
      ops;
    let dt = Int64.to_float (Int64.sub (now ()) t0) in
    (dt, Gc.minor_words () -. w0)
  in
  ignore (replay ());
  let runs = List.init 5 (fun _ -> replay ()) in
  let eng = E3.create graph ~idents in
  E3.activate_mask eng ((1 lsl n) - 1);
  let reset_ns, reset_words =
    probe 4096 (fun i -> E3.reset eng (i mod n) ~ident:idents.(i mod n))
  in
  let total = median (List.map fst runs) and words = median (List.map snd runs) in
  {
    c_activate_ns = (total -. (float nreset *. reset_ns)) /. float nact;
    c_activate_words = (words -. (float nreset *. reset_words)) /. float nact;
    reset_ns;
  }

(* --- traced mode ---------------------------------------------------------- *)

let span_durs obs name =
  List.filter_map
    (fun (s : Obs.span_record) ->
      if s.r_name = name then Some (Int64.to_float s.r_dur) else None)
    (Obs.spans obs)

let sum = List.fold_left ( +. ) 0.0
let metric obs name =
  float (Option.value ~default:0 (List.assoc_opt name (Obs.metrics obs)))

(* What the untraced call of the same run measured (run.py makes that call
   in its own process first and passes its sample here). *)
type untraced = {
  u_wall_s : float;
  u_ops : int;
  u_minor_words : float;
  u_promoted_words : float;
  u_major_collections : int;
}

let traced ~name ~seed ~untraced spec =
  let obs = Obs.create () in
  let tr = timed_call ~obs ~name ~seed spec in
  let failed =
    match check ~seed spec tr with
    | Ok () -> 0
    | Error msg ->
        Printf.eprintf "%s: traced call failed: %s\n%!" name msg;
        1
  in
  let wall = untraced.u_wall_s in
  let ops = float (max 1 untraced.u_ops) in
  let task_us = List.map (fun d -> d /. 1e3) (span_durs obs "exec.task") in
  let exec_wait_ms = sum (span_durs obs "exec.wait") /. 1e6 in
  let tasks = metric obs "exec.tasks" in
  let gc =
    [
      ("gc.minor_words_per_op", "words", untraced.u_minor_words /. ops);
      ("gc.promoted_words_per_op", "words", untraced.u_promoted_words /. ops);
      ("gc.major_collections", "count", float untraced.u_major_collections);
      ("trace_overhead", "ratio", tr.wall_s /. wall);
      ("host.reference_ms", "ms", median tr.reference_s *. 1e3);
      ("exec.task_p50_us", "us", percentile 0.5 task_us);
      ("exec.task_p99_us", "us", percentile 0.99 task_us);
      ("exec.tasks", "count", tasks);
      ("exec.steals", "count", metric obs "exec.steals");
      ("exec.wait_ms", "ms", exec_wait_ms);
    ]
  in
  let zero names = List.map (fun (n, u) -> (n, u, 0.0)) names in
  let layer_metrics =
    match (spec, tr.result) with
    | Explore x, `Explore r ->
        let p = explore_probes x r in
        let jobs = float x.jobs in
        let t = float r.transitions in
        let rt = if x.jobs > 1 then roundtrip_ns ~jobs:x.jobs ~policy:x.policy else 0.0 in
        let write_mbs, read_mbs =
          match tr.spill with Some s -> spill_rates ~name s | None -> (0.0, 0.0)
        in
        let bytes_w = metric obs "spill.bytes_written" in
        let bytes_r = metric obs "spill.bytes_read" in
        let livelock_s = sum (span_durs obs "analyze.livelock") /. 1e9 in
        let worst_s = sum (span_durs obs "analyze.worstcase") /. 1e9 in
        (* Blocking-path model: expansion (engine steps, canonicalisation)
           is shared by every job; intern and the analyses run on the
           merging caller.  Spill writes run as background tasks under a
           parallel policy, so counting them whole is an upper bound. *)
        let engine_s =
          t *. (p.restore_ns +. p.activate_ns +. p.snapshot_ns) /. jobs /. 1e9
        in
        let explorer_s =
          (t *. p.canon_ns /. jobs /. 1e9) +. (t *. p.intern_ns /. 1e9) +. livelock_s
          +. worst_s
        in
        let exec_s = tasks *. rt /. jobs /. 1e9 in
        let mb b = b /. 1048576. in
        let spill_s =
          (if write_mbs > 0.0 then mb bytes_w /. write_mbs else 0.0)
          +. if read_mbs > 0.0 then mb bytes_r /. read_mbs else 0.0
        in
        let orbit_ratio =
          match r.orbit with
          | Some o -> float o.expanded_configs /. float (max 1 r.configs)
          | None -> 1.0
        in
        [
          ("engine.activate_ns", "ns", p.activate_ns);
          ("engine.minor_words_per_activate", "words", p.activate_words);
          ("engine.restore_ns", "ns", p.restore_ns);
          ("engine.snapshot_ns", "ns", p.snapshot_ns);
          ("explorer.key_ns", "ns", p.key_ns);
          ("explorer.intern_ns", "ns", p.intern_ns);
          ("explorer.dup_ratio", "ratio", 1.0 -. (float r.configs /. t));
          ("explorer.canon_ns", "ns", p.canon_ns);
          ("explorer.orbit_ratio", "ratio", orbit_ratio);
          ("explorer.analyze_livelock_s", "s", livelock_s);
          ("explorer.analyze_worstcase_s", "s", worst_s);
          ("explorer.levels", "count", metric obs "explorer.levels");
          ("explorer.wait_ms", "ms", metric obs "explorer.wait_ns" /. 1e6);
          ("exec.roundtrip_ns", "ns", rt);
          ("spill.bytes_written", "bytes", bytes_w);
          ("spill.levels", "count",
            match tr.spill with Some s -> float (Spill.levels_on_disk s) | None -> 0.0);
          ("spill.write_mb_per_s", "MB/s", write_mbs);
          ("spill.read_mb_per_s", "MB/s", read_mbs);
          ("layers.engine_s", "s", engine_s);
          ("layers.explorer_s", "s", explorer_s);
          ("layers.exec_s", "s", exec_s);
          ("layers.spill_s", "s", spill_s);
          ("layers.session_s", "s", 0.0);
          ( "layers.other_frac", "ratio",
            1.0 -. ((engine_s +. explorer_s +. exec_s +. spill_s) /. wall) );
        ]
        @ zero
            [
              ("engine.reset_ns", "ns");
              ("churn.epoch_p50_ms", "ms");
              ("churn.epoch_p99_ms", "ms");
              ("churn.session_overhead_ns", "ns");
              ("churn.recovery_p50_acts", "count");
              ("churn.recovery_p99_acts", "count");
            ]
    | Churn c, `Churn r ->
        let p = churn_probes c in
        let jobs = float c.cjobs in
        let rt = roundtrip_ns ~jobs:c.cjobs ~policy:c.cpolicy in
        let steps = float (churn_steps r) in
        let engine_ns =
          (steps *. p.c_activate_ns) +. (float r.total_recoveries *. p.reset_ns)
        in
        (* session spans come from the traced run: scale them back to
           untraced time before splitting off the engine's share *)
        let session_ns = sum (span_durs obs "churn.session") *. (wall /. tr.wall_s) in
        let acts = float (max 1 r.total_activations) in
        let epochs_ms = List.map (fun d -> d /. 1e6) (span_durs obs "churn.epoch") in
        let engine_s = engine_ns /. jobs /. 1e9 in
        let session_s = (session_ns -. engine_ns) /. jobs /. 1e9 in
        let exec_s = tasks *. rt /. jobs /. 1e9 in
        let lat f = match r.latency with Some s -> float (f s) | None -> 0.0 in
        [
          ("engine.activate_ns", "ns", p.c_activate_ns);
          ("engine.minor_words_per_activate", "words", p.c_activate_words);
          ("engine.reset_ns", "ns", p.reset_ns);
          ("exec.roundtrip_ns", "ns", rt);
          ("churn.epoch_p50_ms", "ms", percentile 0.5 epochs_ms);
          ("churn.epoch_p99_ms", "ms", percentile 0.99 epochs_ms);
          ("churn.session_overhead_ns", "ns", (session_ns -. engine_ns) /. acts);
          ("churn.recovery_p50_acts", "count", lat (fun s -> s.Stats.p50));
          ("churn.recovery_p99_acts", "count", lat (fun s -> s.Stats.p99));
          ("layers.engine_s", "s", engine_s);
          ("layers.explorer_s", "s", 0.0);
          ("layers.exec_s", "s", exec_s);
          ("layers.spill_s", "s", 0.0);
          ("layers.session_s", "s", session_s);
          ( "layers.other_frac", "ratio",
            1.0 -. ((engine_s +. session_s +. exec_s) /. wall) );
        ]
        @ zero
            [
              ("engine.restore_ns", "ns");
              ("engine.snapshot_ns", "ns");
              ("explorer.key_ns", "ns");
              ("explorer.intern_ns", "ns");
              ("explorer.dup_ratio", "ratio");
              ("explorer.canon_ns", "ns");
              ("explorer.orbit_ratio", "ratio");
              ("explorer.analyze_livelock_s", "s");
              ("explorer.analyze_worstcase_s", "s");
              ("explorer.levels", "count");
              ("explorer.wait_ms", "ms");
              ("spill.bytes_written", "bytes");
              ("spill.levels", "count");
              ("spill.write_mb_per_s", "MB/s");
              ("spill.read_mb_per_s", "MB/s");
            ]
    | _ -> []
  in
  Printf.printf "# untraced_wall_s=%.3f traced_wall_s=%.3f\n" wall tr.wall_s;
  print_result ~correct:(failed = 0) ~attempted:1 ~failed
    (List.sort compare (gc @ layer_metrics))

(* --- entry point ------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref default_seed and mode = ref "call" in
  let scale = ref Full in
  let u_wall = ref 0.0 and u_ops = ref 0 and u_minor = ref 0.0 in
  let u_promoted = ref 0.0 and u_major = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N churn schedule seed (default 1)");
      ( "--mode",
        Arg.Symbol ([ "call"; "trace" ], ( := ) mode),
        " call: one untraced timed call (a sample line); trace: the traced \
         call and the layer probes (the result line)" );
      ( "--scale",
        Arg.Symbol ([ "full"; "toy" ], fun s -> scale := if s = "toy" then Toy else Full),
        " full (default) or toy sizes" );
      ("--untraced-wall-s", Arg.Set_float u_wall, "S (trace) the untraced wall time");
      ("--untraced-ops", Arg.Set_int u_ops, "N (trace) its ops");
      ("--untraced-minor-words", Arg.Set_float u_minor, "W (trace) its minor words");
      ("--untraced-promoted-words", Arg.Set_float u_promoted, "W (trace) its promotions");
      ("--untraced-major-collections", Arg.Set_int u_major, "N (trace) its major GCs");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME [--seed N] [--mode call|trace] [--scale full|toy]";
  if not (List.mem !workload workload_names) then begin
    Printf.eprintf "unknown workload %S; one of: %s\n" !workload
      (String.concat ", " workload_names);
    exit 2
  end;
  let spec = spec_of ~scale:!scale !workload in
  Fun.protect
    ~finally:(fun () -> rm_rf tmp_root)
    (fun () ->
      if !mode = "trace" then
        traced ~name:!workload ~seed:!seed spec
          ~untraced:
            {
              u_wall_s = !u_wall;
              u_ops = !u_ops;
              u_minor_words = !u_minor;
              u_promoted_words = !u_promoted;
              u_major_collections = !u_major;
            }
      else call_mode ~name:!workload ~seed:!seed spec)
