(** Cooperative stop requests, fed by POSIX signals.

    A single process-wide atomic flag: {!with_signals} installs SIGINT and
    SIGTERM handlers that set it, runs the wrapped function, then restores
    the previous handlers and clears the flag — so signal handling is
    scoped to the exploration that can act on it, and the rest of the CLI
    keeps the default die-on-SIGINT behaviour.  The explorer polls
    {!requested} at its loop boundaries and degrades to a clean truncated
    report (final checkpoint included) when it fires.

    The flag is an [Atomic.t]: handlers run on the main domain, but worker
    domains may poll it concurrently. *)

val requested : unit -> bool
(** Has a stop been requested (a signal received)? *)

val with_signals : (unit -> 'a) -> 'a
(** [with_signals f] runs [f] with SIGINT/SIGTERM routed to the flag;
    handlers are restored and the flag cleared afterwards, exceptions
    included. *)
