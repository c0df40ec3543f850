(** Line-atomic diagnostics for parallel runs.

    A thin façade over {!Asyncolor_obs.Sink}, which owns the actual
    guarantee: each message is formatted to a complete string first and
    emitted as a single mutex-guarded write + flush, so concurrent
    domains can at worst interleave whole lines, never fragments.
    Because the [--metrics] table and other obs output go through the
    same sink, a Diag rate line can never shear against them either —
    line atomicity is enforced in exactly one place.

    Diagnostics are out-of-band by construction: they go to stderr (or the
    channel set by {!set_channel}), keeping stdout byte-diffable across
    [--jobs] values. *)

val printf : ('a, unit, string, unit) format4 -> 'a
(** Format, then emit the result as one atomic write.  Terminate your
    format with ["\n"]; the module does not add one. *)

val set_channel : out_channel -> unit
(** Redirect the shared sink (tests) — affects every producer routed
    through {!Asyncolor_obs.Sink}.  Default: [stderr]. *)
