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
    the data {e as read}, leaving the file intact on disk.  Faults are
    environment faults only: the crashed {e processes} of the paper's
    model are the adversary's business ([Asyncolor_kernel.Adversary]),
    not this module's.

    The module also keeps the [chaos.injected] / [chaos.quarantined]
    accounting, both in an optional {!Asyncolor_obs.Obs} sink and in the
    always-on {!stats} snapshot.  It does not recover from what it
    injects: a failed operation fails its caller, which truncates the
    run at the next boundary and leaves the last good checkpoint to
    resume from, exactly as it must for a real disk fault. *)

type fault =
  | Enospc  (** write fails mid-way; a partial file is left behind *)
  | Eio  (** read or write fails outright *)
  | Torn_write  (** {e silent}: only a prefix of the write hits the disk *)
  | Fsync_fail  (** the data is written but the fsync raises *)
  | Bit_rot  (** one byte of the data is flipped as it is read *)

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

type stats = {
  injected : int;  (** faults actually delivered *)
  quarantined : int;  (** corrupt files moved aside instead of aborting *)
}

val stats : t -> stats
(** Always-on snapshot (atomics, not the obs sink) — what the CLI prints
    on stderr after a chaos run. *)

val note_quarantine : t -> unit
(** Accounting hook for the checkpoint quarantine (a no-op on
    {!disabled}). *)

(** {1 The injectable filesystem} *)

val read_raw : string -> bytes
(** Whole-file read with {e no} injection — the verify-on-save path.
    @raise Sys_error as [open_in_bin]. *)

val write_with :
  t -> ?fsync:bool -> site:string -> string -> (out_channel -> unit) -> unit
(** Write a file through one draw of [site]'s stream: the callback
    writes it through the channel (it may seek back and patch what it
    wrote), then the drawn fault is realised on the finished file.
    [Enospc] and [Eio] leave a partial file and raise {!Injected};
    [Torn_write] cuts the file back to a prefix and reports success;
    [Fsync_fail] leaves the data in place and raises.  [fsync] defaults
    to [true]. *)

val read_file : t -> site:string -> string -> bytes
(** Whole-file read, fault-injected by one draw of [site]'s stream, as
    {!write_with} draws for a write: [Eio] raises {!Injected} without
    touching the file; [Bit_rot] flips one byte of the returned buffer
    (the on-disk file is untouched).
    @raise Sys_error as [open_in_bin] when the file is missing. *)
