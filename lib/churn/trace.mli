(** Churn findings as replayable artefacts, persisted through the
    crash-safe {!Asyncolor_resilience.Checkpoint} container (versioned,
    checksummed, atomically written). *)

type t = {
  cfg : Session.config;
  seed : int;
  sessions : int;
  violations : (int * Session.violation) list;
}

val of_report : Session.report -> t

val save : path:string -> t -> unit

val load : string -> t
(** @raise Asyncolor_resilience.Checkpoint.Corrupt on damaged or
    truncated files, wrong container version, a payload that is not a
    churn trace, or a structurally invalid configuration — a trace file
    is untrusted input. *)

val replay :
  ?jobs:int ->
  ?obs:Asyncolor_obs.Obs.t ->
  t ->
  Session.report * bool
(** Re-run the campaign the trace records; [true] when every recorded
    violation reproduces byte-for-byte (session determinism makes this
    exact, not approximate). *)

val pp : Format.formatter -> t -> unit
