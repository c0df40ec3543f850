(** Versioned, checksummed on-disk snapshots — the persistence substrate of
    the resilience layer.

    A checkpoint file is a self-validating container:

    {v
    offset  size  field
    0       16    magic "asyncolor-ckpt\x00\x00"
    16      4     container format (big-endian; this module's own layout)
    20      4     payload schema version (big-endian; caller-declared)
    24      8     payload length in bytes (big-endian)
    32      16    MD5 digest of the payload bytes
    48      —     payload ([Marshal]-encoded caller value)
    v}

    {!save} is {e atomic}: the container is written to [path ^ ".tmp"],
    flushed and fsynced, then renamed over [path] — a crash (including
    SIGKILL) at any point leaves either the previous checkpoint or the new
    one, never a torn file.  The payload is marshalled straight into the
    file and the length and digest patched into the header after it, the
    digest read back from the file: a save holds no copy of the payload
    on the OCaml heap, so saving a large value costs about its own size
    in (off-heap, transient) marshalling buffers, not two heap copies.
    {!load} re-verifies magic, versions, length and digest before
    unmarshalling, so a corrupt or truncated file surfaces as {!Corrupt},
    not as a segfault or a garbage value.

    {b Fault injection.}  All I/O goes through
    {!Asyncolor_resilience.Chaos}'s injectable filesystem: pass [?chaos]
    to exercise ENOSPC/EIO/torn-write/fsync-failure/bit-rot schedules.
    When chaos is enabled, {!save} additionally {e verifies} the written
    tmp file by reading it back and checking its length and digest before
    the rename — a silently torn write must never be installed as the
    last-good checkpoint.

    {b Rotation.}  {!save_rotated}/{!load_rotated} add a one-deep history:
    the previous checkpoint survives at [path ^ ".1"], a failed save
    leaves both generations as they were, and a corrupt primary is
    {e quarantined} (moved to [quarantine/] next to the checkpoint) with
    the load falling back to the rotation instead of aborting.  Nothing
    is retried: a real disk fault (a full disk, rotted bits) comes back
    on a retry, so a failure ends the caller's run at its next boundary,
    to be resumed from the last good checkpoint.

    {b Versioning rules.}  The payload is serialised with [Marshal], so its
    schema is the OCaml type of the saved value.  Callers must bump their
    [version] whenever that type (or the meaning of any field) changes;
    {!load} rejects any version other than the one expected, which turns a
    stale checkpoint into a clean error instead of a misinterpreted
    resume.  The payload must be pure data — no functions, no custom
    blocks — which also makes the digest deterministic for a given value.

    Type safety across [save]/[load] is the caller's: load a file only
    with the type it was saved at (the explorer guards this with a
    protocol-name fingerprint inside its payload). *)

exception Corrupt of string
(** The file is unreadable, truncated, fails its digest, or carries an
    unexpected magic/version.  The message says which check failed. *)

val save :
  ?chaos:Chaos.t -> ?site:string -> path:string -> version:int -> 'a -> unit
(** [save ~path ~version v] marshals [v] and atomically replaces [path]
    (write to [path ^ ".tmp"], fsync, rename).  [site] (default
    ["checkpoint"]) names the chaos fault site; the write draws from
    [site ^ ".write"].  Under chaos the tmp file is verified by read-back
    before the rename.  A save that fails removes its tmp file before it
    raises and leaves [path] as it was.
    @raise Chaos.Injected when an injected fault fires;
    @raise Corrupt when the read-back verify finds a torn write;
    @raise Sys_error on a real I/O failure. *)

val load :
  ?chaos:Chaos.t -> ?site:string -> path:string -> version:int -> unit -> 'a
(** [load ~path ~version] validates the container and returns the payload.
    Reads draw faults from [site ^ ".read"].
    @raise Corrupt on any validation failure, and on a file that cannot
    be opened or read (an injected read fault included). *)

(** {1 Rotation, quarantine, hygiene} *)

val rotated_path : string -> string
(** [path ^ ".1"] — where {!save_rotated} keeps the previous snapshot. *)

val quarantine_dir : path:string -> string
(** [quarantine/] in the checkpoint's directory. *)

val quarantine : ?chaos:Chaos.t -> string -> string option
(** Move a (presumed corrupt) file into {!quarantine_dir}, never
    overwriting earlier evidence (suffixes [.1], [.2], … on collision).
    Returns the destination, or [None] if the file is missing or the move
    failed.  Counts on [chaos.quarantined]. *)

val clean_stale : path:string -> bool
(** Remove the stale [path ^ ".tmp"] a killed process may have left
    behind between write and rename; [true] if one was removed.  Called
    on explorer startup and resume. *)

val save_rotated :
  ?chaos:Chaos.t -> ?site:string -> path:string -> version:int -> 'a -> unit
(** {!save} with last-good rotation: the tmp write (with its read-back
    verify) runs once, then the previous [path] is renamed to
    [path ^ ".1"] and the new file installed.  On failure the
    half-written tmp is removed — the last-good checkpoint and its
    rotation are both still intact — and the exception re-raised.
    @raise Chaos.Injected, Corrupt or Sys_error as {!save}. *)

val load_rotated :
  ?chaos:Chaos.t -> ?site:string -> path:string -> version:int -> unit -> 'a
(** {!load} with recovery: an unreadable primary is {e quarantined} and
    the load falls back to [path ^ ".1"].
    @raise Corrupt only when both generations are unreadable. *)

(** {1 Several payload versions}

    A caller whose payload type changed may keep reading files of the
    old type. *)

val load_rotated_any :
  ?chaos:Chaos.t ->
  ?site:string ->
  path:string ->
  versions:int list ->
  unit ->
  int * Obj.t
(** {!load_rotated}, accepting any of [versions]: the version found,
    with the payload as an [Obj.t] that the caller converts at the type
    that version was saved at ([Obj.obj]). *)
