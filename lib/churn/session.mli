(** Long-lived churn sessions: crash-recovery with self-healing
    re-coloring on the ring.

    A session drives one engine over a sustained horizon (millions of
    activations on rings up to [Sys.int_size - 1] nodes, all through the
    packed {!Asyncolor_kernel.Engine.Make.activate_mask} fast path) under
    a seed-deterministic churn schedule.  Processes crash (stop being
    scheduled, registers left behind), recover through
    {!Asyncolor_kernel.Engine.Make.reset} with a fresh identifier from
    {!Asyncolor_workload.Idents.fresh_in}, and must be re-colored online.

    Time is organised in {e epochs}: a short churn window (crashes and
    recoveries interleaved with random activity), a {e drain} (every node
    still down recovers — the epoch's last churn events), a quiet {e heal}
    phase, and a {e stability} window.  The self-healing invariants are
    checked per epoch:

    + {b churn-recovery} — after the last churn event, a quiet
      round-robin schedule (the sequential adversary) restores a proper
      coloring with no process exceeding the algorithm's wait-freedom
      activation bound, and the healed coloring is on palette.  The heal
      schedule is sequential by design: recovery leaves the ring outside
      the static model, where exact synchronous lockstep can sustain a
      period-2 oscillation between adjacent fresh processes forever;
    + {b churn-locality} — no node outside ring distance 0 of the epoch's
      churned nodes changes color (returned processes never recolour; the
      repair-radius histogram in {!result.radii} records the measured
      distances);
    + {b churn-stability} — while no churn is in flight, nobody
      recolours;
    + {b churn-reinit} — a recovered node is observably a fresh process
      (asleep, register [⊥], activation counter restarted);
    + {b churn-fresh-ident} — installed identifiers stay pairwise
      distinct after every recovery.

    {b Determinism.} Session [i] of a campaign draws everything from a
    SplitMix64 stream that is a pure function of [(seed, i)], with all
    draws in a fixed explicit order; each churn event additionally uses
    its own per-[(seed, event)] stream for its internal choices.  Reports
    are therefore byte-identical across [--jobs] and executor policies —
    the same argument as the fuzzer's campaigns. *)

type algo = A2 | A3

val algo_name : algo -> string
(** ["2"] or ["3"] — the CLI spelling.  Only the wait-free cycle
    algorithms run under churn: the recovery invariant needs a healing
    bound, which Algorithm 2s does not have. *)

val algo_of_string : string -> algo option

(** {1 Planted recovery bugs}

    Mutation testing for the churn detectors: each bug breaks the
    recovery {e machinery} (never the protocol) and is pinned to the
    detector that must catch it. *)

type bug =
  | Ident_collide  (** recovery installs a colliding identifier *)
  | Skip_reinit  (** recovery declares the node back without re-initialising *)
  | Heal_starve  (** recovered nodes are silently never scheduled again *)
  | Spurious_recolor  (** an unrecorded reset while no churn is in flight *)

val bug_name : bug -> string
val bug_of_string : string -> bug option

val bug_detector : bug -> string
(** The detector pinned to the bug ([ident-collide] → [churn-fresh-ident],
    [skip-reinit] → [churn-reinit], [heal-starve] → [churn-recovery],
    [spurious-recolor] → [churn-stability]). *)

val bugs : bug list
val detector_names : string list

(** {1 Configuration} *)

type config = {
  algo : algo;
  n : int;  (** ring size, [3 <= n <= Sys.int_size - 1] *)
  horizon : int;  (** target activations per session *)
  crash_rate : float;  (** per-step probability of a crash event *)
  recover_rate : float;  (** per-step recovery probability of each down node *)
  burst : int;  (** nodes taken down by one crash event *)
  mutant : bug option;  (** planted recovery bug, [None] for the real machinery *)
}

val default : config
(** C62 ring, Algorithm 2, 250k activations per session, moderate churn. *)

val validate_config : config -> unit
(** @raise Invalid_argument on out-of-range fields — the checks a hostile
    trace file must pass before being replayed. *)

val pp_config : Format.formatter -> config -> unit

(** {1 Running} *)

type violation = { epoch : int; detector : string; message : string }

type result = {
  session : int;
  steps : int;
  activations : int;
  epochs : int;
  crashes : int;
  recoveries : int;
  latencies : int list;
      (** per recovered incarnation, activations from recovery to return
          (chronological) — the recovery-latency histogram *)
  radii : int list;
      (** ring distance to the nearest churned node, one sample per
          recoloured node per epoch — the repair-radius histogram *)
  violations : violation list;
}

val session_seed : seed:int -> int -> int
(** The per-session stream derivation (exposed for tests). *)

val run : ?obs:Asyncolor_obs.Obs.t -> config -> seed:int -> session:int -> result
(** Run one session.  Deterministic: a pure function of
    [(config, seed, session)].  Emits [churn.*] counters, spans and the
    recovery-latency gauge when [obs] is enabled (out-of-band; the result
    is byte-identical either way).  Allocation-free in steady state
    beyond the engine step and the samples the result keeps: per-step
    and per-recovery bookkeeping walks only the nodes that changed.
    @raise Invalid_argument on an invalid configuration. *)

(** {1 Campaigns} *)

type report = {
  seed : int;
  cfg : config;
  sessions : int;
  results : result list;  (** in session order *)
  total_activations : int;
  total_crashes : int;
  total_recoveries : int;
  latency : Asyncolor_workload.Stats.summary option;
      (** recovery latency over all sessions; [None] when no recovered
          incarnation returned *)
  radius : Asyncolor_workload.Stats.summary option;
  violations : (int * violation) list;  (** tagged with the session index *)
}

val campaign :
  ?jobs:int ->
  ?policy:Asyncolor_util.Executor.policy ->
  ?obs:Asyncolor_obs.Obs.t ->
  config ->
  seed:int ->
  sessions:int ->
  unit ->
  report
(** Fan the sessions out over an executor ([policy] defaults to serial
    for [jobs <= 1], synchronous barriers otherwise) and merge by session
    index.  The report is a pure function of [(config, seed, sessions)]
    whatever [jobs] or [policy] ran it. *)

val pp_report : Format.formatter -> report -> unit
(** Deterministic plain-text rendering (the CLI's output). *)
