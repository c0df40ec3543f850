(** Seed-deterministic environment-fault injection — the chaos layer the
    rest of the resilience stack is tested (and hardened) against.

    The paper's algorithms tolerate adversarial asynchrony and crashes;
    this module makes the {e harness} face the same music: a [t] is an
    adversary for the environment, deciding — from a PRNG stream derived
    from [(seed, site)] alone — whether the k-th I/O operation at a named
    fault {e site} ("checkpoint.write", "spill.read", …)
    fails, and how.  Because each site owns its own SplitMix64 stream and
    its own operation counter, a fault schedule is reproducible from the
    seed: the k-th write at a given site fails identically on every run
    that performs the same operations at that site, independent of what
    happens at every other site.

    Faults are {e injected consistently with their real-world meaning}:
    an [Enospc] or [Eio] write leaves a partial file behind and raises; a
    [Torn_write] silently persists only a prefix (the lying-disk case
    that only a read-back verify can catch — {!Checkpoint.save} performs
    one whenever chaos is enabled); a [Bit_rot] read flips one byte of
    the data {e as read}, so a retry sees the intact file.  Faults are
    environment faults only: the crashed {e processes} of the paper's
    model are the adversary's business ([Asyncolor_kernel.Adversary]),
    not this module's.

    The module also owns the recovery vocabulary: {!Retry} (bounded
    exponential backoff with deterministic jitter, virtual-clock driven
    so tests are instant) and the [chaos.injected] / [chaos.retries] /
    [chaos.quarantined] accounting that every recovery path reports
    through, both to an optional {!Asyncolor_obs.Obs} sink
    and to the always-on {!stats} snapshot. *)

type fault =
  | Enospc  (** write fails mid-way; a partial file is left behind *)
  | Eio  (** read or write fails outright *)
  | Torn_write  (** {e silent}: only a prefix of the write hits the disk *)
  | Fsync_fail  (** the data is written but the fsync raises *)
  | Bit_rot  (** one byte of the data is flipped as it is read *)

val fault_name : fault -> string

exception Injected of { site : string; op : int; fault : fault }
(** Raised (or, for silent faults, recorded) when the injector fires:
    operation [op] of [site]'s stream drew [fault]. *)

type t

val disabled : t
(** Never injects, never counts; every operation is a plain passthrough.
    The default everywhere a [?chaos] parameter appears. *)

val create :
  ?obs:Asyncolor_obs.Obs.t ->
  ?rate:float ->
  ?sites:string list ->
  seed:int ->
  unit ->
  t
(** A fault injector drawing each operation at probability [rate]
    (default [0.0]; clamped to [[0, 1]]).  [sites] restricts injection to
    sites with one of the given prefixes (e.g. [["spill.write"]] or
    [["checkpoint"]]); default: all sites.  [obs] (default
    {!Asyncolor_obs.Obs.disabled}) receives the [chaos.*] counters. *)

val enabled : t -> bool
val seed : t -> int
val rate : t -> float

type stats = {
  injected : int;  (** faults actually delivered *)
  retries : int;  (** retry attempts spent recovering *)
  quarantined : int;  (** corrupt files moved aside instead of aborting *)
}

val stats : t -> stats
(** Always-on snapshot (atomics, not the obs sink) — what the CLI prints
    on stderr after a chaos run. *)

val note_retry : t -> unit
val note_quarantine : t -> unit
(** Accounting hooks for the recovery paths (no-ops on {!disabled}). *)

(** {1 Decision points} *)

val draw_write : t -> site:string -> fault option
(** Advance [site]'s stream one write operation; [Some] at most with
    probability [rate].  Possible faults: [Enospc], [Eio], [Torn_write],
    [Fsync_fail].  Exposed for the determinism tests; I/O goes through
    {!write_file}. *)

val draw_read : t -> site:string -> fault option
(** Read-side counterpart: [Eio] or [Bit_rot]. *)

(** {1 The injectable filesystem} *)

val read_raw : string -> bytes
(** Whole-file read with {e no} injection — the verify-on-save path.
    @raise Sys_error as [open_in_bin]. *)

val write_file : t -> ?fsync:bool -> site:string -> string -> bytes -> unit
(** Write [data] to a fresh file at the path, fault-injected: consults
    {!draw_write} first and realises the drawn fault (partial write +
    {!Injected}, silent torn write, or a failed fsync).  [fsync] defaults
    to [true]. *)

val write_with :
  t -> ?fsync:bool -> site:string -> string -> (out_channel -> unit) -> unit
(** {!write_file} for content that is streamed rather than held: the
    callback writes the file through the channel (it may seek back and
    patch what it wrote).  The drawn fault is realised on the finished
    file, by cutting it back to the prefix {!write_file} would have
    left, so the two draw and fail alike. *)

val read_file : t -> site:string -> string -> bytes
(** Whole-file read, fault-injected via {!draw_read}: [Eio] raises
    {!Injected} without touching the file; [Bit_rot] flips one byte of
    the returned buffer (the on-disk file is untouched, so a retry reads
    clean data).
    @raise Sys_error as [open_in_bin] when the file is missing. *)

(** {1 Bounded retry with deterministic jitter} *)

module Retry : sig
  type cfg = {
    max_attempts : int;  (** total attempts, first try included (>= 1) *)
    backoff_ms : float;  (** delay before the second attempt *)
    multiplier : float;  (** backoff growth per attempt *)
    max_backoff_ms : float;  (** backoff ceiling *)
    sleep : float -> unit;
        (** receives seconds; [Unix.sleepf] by default — tests inject a
            virtual clock (e.g. an accumulator) so retries are instant *)
  }

  val cfg :
    ?max_attempts:int ->
    ?backoff_ms:float ->
    ?multiplier:float ->
    ?max_backoff_ms:float ->
    ?sleep:(float -> unit) ->
    unit ->
    cfg
  (** Defaults: 5 attempts, 25 ms doubling up to 1000 ms, real sleep. *)

  val default : cfg

  val none : cfg
  (** One attempt, no backoff — retry disabled. *)

  exception Exhausted of { site : string; attempts : int; last : exn }
  (** Every attempt failed; [last] is the final attempt's exception. *)

  val run : t -> cfg -> ?retry_on:(exn -> bool) -> site:string -> (unit -> 'a) -> 'a
  (** [run chaos cfg ~site f] calls [f] up to [max_attempts] times.
      Retryable by default: {!Injected}, [Sys_error], [Unix.Unix_error];
      [retry_on] extends the set (e.g. with
      {!Asyncolor_resilience.Checkpoint.Corrupt} for read-back verifies).
      Non-retryable exceptions propagate immediately.  Each retry counts
      on [chaos.retries] and backs off exponentially with a
      site-deterministic jitter in [[0, 0.5]] of the delay.
      @raise Exhausted once the attempt budget is spent. *)
end
