(** The one place where out-of-band text reaches a channel.

    Worker domains that print progress through bare [Printf.eprintf] can
    interleave {e partial} lines: stderr is unbuffered per call, and one
    logical line often spans several writes.  Every producer of
    out-of-band text — [Diag] rate lines, the [--metrics] table, trace
    announcements — formats its message to a complete string first and
    hands it to {!emit}, which performs a single mutex-guarded write +
    flush.  Concurrent domains can at worst interleave whole lines, never
    fragments, and the guarantee lives here, in exactly one module.

    Out-of-band by construction: the default channel is stderr, keeping
    stdout byte-diffable across [--jobs] values. *)

val emit : string -> unit
(** Emit a pre-formatted string as one atomic write + flush. *)

val set_channel : out_channel -> unit
(** Redirect the sink (tests).  Default: [stderr]. *)
