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
    level.  A write that fails keeps the level's bytes resident in the
    store and re-raises; the explorer then truncates its run at the next
    merge boundary.  A level is therefore either resident, because its
    write failed, or on disk, and {!read} serves a resident level from
    memory without consulting the disk.  An unreadable file surfaces as
    {!Checkpoint.Corrupt}, with the offending {e file path} prefixed onto
    the message, since a run can own many level files and the caller
    needs to know which one to inspect.  Nothing is retried.

    Byte counters are atomics: {!write} may run on a background executor
    task while the merge thread keeps interning, and the CLI reads the
    totals for its spill-pressure diagnostics. *)

type t

val create : ?chaos:Chaos.t -> dir:string -> unit -> t
(** Open (creating if needed) the spill directory.  [chaos] (default
    {!Chaos.disabled}) injects faults at sites ["spill.write"] /
    ["spill.read"].
    @raise Invalid_argument if [dir] exists and is not a directory;
    @raise Unix.Unix_error if it cannot be created. *)

val dir : t -> string

val path : t -> level:int -> string
(** The file that {!write} targets for [level] ([level-NNNNNN.spill]
    under the store's directory). *)

val write : t -> level:int -> Bytes.t -> int
(** Persist one closed level's bytes, atomically; returns the container
    size in bytes.  Levels are written at most once per store (level
    indices come from [Level_log.seal], which assigns them
    sequentially); the file of a level an earlier run wrote is replaced.
    @raise Chaos.Injected, Checkpoint.Corrupt or Sys_error as
    {!Checkpoint.save} — the level's data then stays resident in the
    store, so a later {!read} still returns it. *)

val read : t -> level:int -> Bytes.t
(** Load a level's bytes: a level whose {!write} failed from memory,
    any other from its file.
    @raise Checkpoint.Corrupt — message prefixed with the file path — on
    a missing, unreadable, truncated, bit-flipped or version-skewed
    file. *)

val bytes_written : t -> int
val bytes_read : t -> int

val levels_on_disk : t -> int
(** Number of levels written through this store. *)

val files : t -> string list
(** The [.spill] files currently in the directory, sorted. *)
