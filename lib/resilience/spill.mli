(** Spilled BFS levels on disk — the explorer's escape hatch from the
    live heap.

    A spill store owns a directory of level files, one per closed BFS
    level handed over by {!Asyncolor_util.Level_log.seal}.
    Each file is an ordinary {!Checkpoint} container (same magic, format,
    atomic tmp+fsync+rename write, MD5-checksummed payload), whose payload
    is the level's bytes exactly as the log coded them (varint edges, see
    {!Asyncolor_util.Level_log}): the store adds no encoding pass of its
    own, and a read returns the bytes written.

    {b Failure handling.}  [Level_log.seal] drops a level from the log
    {e before} its write runs, so a lost write would otherwise lose the
    level.  The store therefore (a) retries writes and reads under a
    {!Chaos.Retry} budget, (b) keeps the data of any write that exhausted
    its budget resident in memory (plus, with [retain > 0], the last N
    successful levels as a bit-rot hedge), and (c) on an unreadable file
    whose level is still resident, {e quarantines} the damaged file into
    [quarantine/] and rebuilds it from memory instead of aborting.  Only
    a level that is both unreadable and no longer resident surfaces as
    {!Checkpoint.Corrupt} — with the offending {e file path} prefixed
    onto the message, since a run can own many level files and the caller
    needs to know which one to inspect.

    Byte counters are atomics: {!write} may run on a background executor
    task while the merge thread keeps interning, and the CLI reads the
    totals for its spill-pressure diagnostics. *)

type t

val create :
  ?chaos:Chaos.t ->
  ?retry:Chaos.Retry.cfg ->
  ?retain:int ->
  dir:string ->
  unit ->
  t
(** Open (creating if needed) the spill directory.  [chaos] (default
    {!Chaos.disabled}) injects faults at sites ["spill.write"] /
    ["spill.read"]; [retry] defaults to {!Chaos.Retry.default} when chaos
    is enabled, single-attempt otherwise; [retain] (default 0) keeps the
    last N successfully written levels resident for rebuilds.
    @raise Invalid_argument if [dir] exists and is not a directory;
    @raise Unix.Unix_error if it cannot be created. *)

val dir : t -> string

val path : t -> level:int -> string
(** The file that {!write} targets for [level] ([level-NNNNNN.spill]
    under the store's directory). *)

val write : t -> level:int -> Bytes.t -> int
(** Persist one closed level's bytes, atomically, retrying
    under the store's budget; returns the container size in bytes.
    Levels are written at most once per run (level indices come from
    [Level_log.seal], which assigns them sequentially).
    @raise Chaos.Retry.Exhausted when the budget is spent — the level's
    data stays resident in the store, so a later {!read} still succeeds
    by rebuilding. *)

val read : t -> level:int -> Bytes.t
(** Load a level's bytes, retrying under the store's budget; falls
    back to the resident copy (quarantining and rewriting the on-disk
    file) when the file is unreadable but the level is still in memory.
    @raise Checkpoint.Corrupt — message prefixed with the file path — on
    a missing, truncated, bit-flipped or version-skewed file whose level
    is no longer resident. *)

val bytes_written : t -> int
val bytes_read : t -> int

val levels_on_disk : t -> int
(** Number of levels written through this store. *)

val quarantined : t -> int
(** Damaged level files moved into [quarantine/] by {!read}. *)

val rebuilt : t -> int
(** Levels served from the resident copy after an unreadable file. *)

val files : t -> string list
(** The [.spill] files currently in the directory, sorted — what the CI
    artifact step lists (the [quarantine/] subdirectory is not listed). *)
