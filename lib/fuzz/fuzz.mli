(** Campaign driver: seed-deterministic fault-injection fuzzing.

    A campaign of [execs] executions is a pure function of its [seed]:
    exec [i] derives its own PRNG stream from [(seed, i)] alone,
    generates a {!Scenario.t}, runs it through the
    invariant suite ({!Exec.run}) and, on a violation, minimises it
    ({!Shrink.minimize}) and records both raw and shrunk traces.  Because
    streams are per-exec, the report — findings included — is identical
    whatever [jobs] is and however the batch boundaries fall; parallelism
    over {!Asyncolor_util.Executor} changes wall clock only, under every
    execution policy.

    [budget] / [stop] are polled between batches: a tripped budget or a
    delivered signal ends the campaign early with [complete = false] and
    everything found so far already persisted to [corpus_dir]. *)

type finding = {
  exec : int;  (** campaign exec index that produced the violation *)
  invariant : string;  (** first violated invariant (shrinking target) *)
  trace : Trace.t;  (** the original failing execution *)
  shrunk : Trace.t;  (** minimised counterexample for the same invariant *)
  shrink_stats : Shrink.stats;
}

type report = {
  seed : int;
  execs_requested : int;
  execs_done : int;
  complete : bool;  (** false iff budget/stop truncated the campaign *)
  findings : finding list;  (** in exec order *)
}

val campaign :
  ?jobs:int ->
  ?budget:Asyncolor_resilience.Budget.t ->
  ?stop:(unit -> bool) ->
  ?corpus_dir:string ->
  ?algos:Scenario.algo list ->
  ?mutation:string ->
  ?max_n:int ->
  ?obs:Asyncolor_obs.Obs.t ->
  seed:int ->
  execs:int ->
  unit ->
  report
(** Run the campaign.  Findings are appended to [corpus_dir] as
    [t%04d.trace] (raw) and [t%04d.min.trace] (shrunk) keyed by exec
    index, as they are found — an interrupted campaign keeps its corpus.

    The batches run on an executor of [jobs] domains (default 1), at
    most {!Asyncolor_util.Executor.stream_window} execs in flight.  The
    report is byte-identical for every [jobs].

    [obs] (default {!Asyncolor_obs.Obs.disabled}) traces the campaign
    out-of-band (the report stays a pure function of [seed]): a
    ["fuzz.campaign"] span containing one ["fuzz.batch"] span per
    executor batch, a ["fuzz.shrink"] span per finding, and the
    executor's per-domain lanes.  Counters: ["fuzz.execs"] (scenarios
    generated and executed),
    ["fuzz.findings"], ["fuzz.shrink_execs"] (candidate re-executions
    spent minimising), ["fuzz.detector_ns"] (cumulative nanoseconds in
    the invariant suite, across all domains) and the
    ["fuzz.execs_per_sec"] gauge (whole-campaign throughput; meaningful
    on the monotonic clock only). *)

val replay : Trace.t -> Exec.outcome * bool
(** Re-execute a trace's scenario; the boolean is true iff the observed
    violations match the ones recorded in the trace. *)
