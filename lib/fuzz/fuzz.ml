module Prng = Asyncolor_util.Prng
module Executor = Asyncolor_util.Executor
module Budget = Asyncolor_resilience.Budget
module Obs = Asyncolor_obs.Obs

(* The campaign's observability context.  Counters are per-domain sharded
   in the sink, so the parallel execs never contend on them; everything is
   out-of-band, leaving the seed-determinism of the report untouched. *)
type octx = {
  o : Obs.t;
  oc_execs : Obs.Counter.t;
  oc_findings : Obs.Counter.t;
  oc_shrink_execs : Obs.Counter.t;
  oc_detector_ns : Obs.Counter.t;
  og_eps : Obs.Gauge.t;  (** whole-campaign execs per second *)
}

let make_octx o =
  {
    o;
    oc_execs = Obs.counter o "fuzz.execs";
    oc_findings = Obs.counter o "fuzz.findings";
    oc_shrink_execs = Obs.counter o "fuzz.shrink_execs";
    oc_detector_ns = Obs.counter o "fuzz.detector_ns";
    og_eps = Obs.gauge o "fuzz.execs_per_sec";
  }

type finding = {
  exec : int;
  invariant : string;
  trace : Trace.t;
  shrunk : Trace.t;
  shrink_stats : Shrink.stats;
}

type report = {
  seed : int;
  execs_requested : int;
  execs_done : int;
  complete : bool;
  findings : finding list;
}

(* Per-exec PRNG stream: a pure function of (campaign seed, exec index),
   so exec [i] generates the same scenario whatever --jobs is and however
   the execs are batched — the whole determinism argument of the
   campaign.  [Prng.create] finalises with the SplitMix64 mixer, so a
   simple odd-multiplier combine is enough to decorrelate streams. *)
let exec_seed ~seed i = seed lxor (i * 0x9E3779B97F4A7C1)

let run_one ?(obs = Obs.disabled) ?algos ?mutation ?max_n ~seed i =
  let octx = make_octx obs in
  let prng = Prng.create ~seed:(exec_seed ~seed i) in
  (* A mutation is compiled into one specific algorithm, so restrict the
     generator to that algorithm's scenarios. *)
  let algos =
    match mutation with
    | None -> algos
    | Some m -> (
        match
          List.find_opt (fun (i : Mutation.info) -> i.name = m) Mutation.all
        with
        | Some info -> Some [ info.base ]
        | None -> invalid_arg (Printf.sprintf "Fuzz: unknown mutation %S" m))
  in
  let sc = Scenario.generate ?algos ?mutation ?max_n prng in
  Obs.Counter.incr octx.oc_execs;
  (* Detector time — [Exec.run] is generation-free, purely the invariant
     suite over the scenario — accumulates in nanoseconds so the metrics
     table separates detection cost from generation + shrinking. *)
  let timed_run sc =
    let t0 = Obs.now obs in
    let outcome = Exec.run sc in
    Obs.Counter.add octx.oc_detector_ns
      (Int64.to_int (Int64.sub (Obs.now obs) t0));
    outcome
  in
  let outcome = timed_run sc in
  match outcome.Exec.violations with
  | [] -> None
  | first :: _ as violations ->
      let invariant = first.Exec.invariant in
      Obs.Counter.incr octx.oc_findings;
      let shrunk_sc, shrink_stats =
        Obs.span obs
          ~args:[ ("exec", string_of_int i); ("invariant", invariant) ]
          "fuzz.shrink"
          (fun () -> Shrink.minimize sc ~invariant)
      in
      Obs.Counter.add octx.oc_shrink_execs shrink_stats.Shrink.execs;
      let shrunk_out = timed_run shrunk_sc in
      let pairs vs =
        List.map (fun (v : Exec.violation) -> (v.invariant, v.message)) vs
      in
      Some
        {
          exec = i;
          invariant;
          trace =
            { Trace.scenario = sc; seed; exec = i; violations = pairs violations };
          shrunk =
            {
              Trace.scenario = shrunk_sc;
              seed;
              exec = i;
              violations = pairs shrunk_out.Exec.violations;
            };
          shrink_stats;
        }

let trace_paths ~dir exec =
  ( Filename.concat dir (Printf.sprintf "t%04d.trace" exec),
    Filename.concat dir (Printf.sprintf "t%04d.min.trace" exec) )

let save_finding ~dir f =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let raw, min = trace_paths ~dir f.exec in
  Trace.save ~path:raw f.trace;
  Trace.save ~path:min f.shrunk

let campaign ?(jobs = 1) ?budget ?stop ?corpus_dir ?algos ?mutation ?max_n
    ?(obs = Obs.disabled) ~seed ~execs () =
  let octx = make_octx obs in
  let should_stop () =
    (match stop with Some f -> f () | None -> false)
    || match budget with Some b -> Budget.exceeded b | None -> false
  in
  let findings = ref [] in
  let done_ = ref 0 in
  let complete = ref true in
  let batch = max 8 (jobs * 4) in
  let record fs =
    List.iter
      (fun f ->
        findings := f :: !findings;
        match corpus_dir with None -> () | Some dir -> save_finding ~dir f)
      fs
  in
  let t0 = Obs.now obs in
  (Obs.span obs
     ~args:[ ("seed", string_of_int seed); ("execs", string_of_int execs) ]
     "fuzz.campaign"
  @@ fun () ->
   Executor.with_executor ~obs ~jobs (fun exec ->
       let lo = ref 0 in
       while !lo < execs do
         if should_stop () then begin
           complete := false;
           lo := execs
         end
         else begin
           let hi = min execs (!lo + batch) in
           let indices = Array.init (hi - !lo) (fun k -> !lo + k) in
           let results =
             Obs.span obs
               ~args:
                 [ ("lo", string_of_int !lo); ("hi", string_of_int hi) ]
               "fuzz.batch"
               (fun () ->
                 Executor.map exec
                   (fun i -> run_one ~obs ?algos ?mutation ?max_n ~seed i)
                   indices)
           in
           Array.iter
             (function Some f -> record [ f ] | None -> ())
             results;
           done_ := hi;
           lo := hi
         end
       done));
  (* Whole-campaign throughput, generation + detection + shrinking
     included; only meaningful on the monotonic clock (elapsed time under
     the virtual clock is a tick count). *)
  (if Obs.enabled obs then
     let elapsed_ns = Int64.to_int (Int64.sub (Obs.now obs) t0) in
     if elapsed_ns > 0 then
       Obs.Gauge.set octx.og_eps
         (int_of_float
            (float_of_int !done_ /. (float_of_int elapsed_ns /. 1e9))));
  {
    seed;
    execs_requested = execs;
    execs_done = !done_;
    complete = !complete;
    findings = List.rev !findings;
  }

let replay (t : Trace.t) =
  let outcome = Exec.run t.Trace.scenario in
  let pairs =
    List.map
      (fun (v : Exec.violation) -> (v.Exec.invariant, v.Exec.message))
      outcome.Exec.violations
  in
  (outcome, pairs = t.Trace.violations)
