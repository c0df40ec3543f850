(** Schedules as adversary strategies.

    A schedule (paper §2.2) is the sequence [σ(1), σ(2), …] of sets of
    processes activated at each time step.  An adversary produces that
    sequence online: at each step it is shown the current time and the list
    of processes that have not yet returned, and picks whom to activate.

    Adversaries may be stateful (the closures own their state); use
    {!val:make} with a fresh closure per run, or re-create the adversary for
    each execution.  Returning [None] ends the schedule: every process still
    unfinished at that point is considered crashed. *)

type t = {
  name : string;
  next : time:int -> unfinished:int list -> int list option;
      (** [next ~time ~unfinished] is the activation set [σ(time)], drawn
          from [unfinished] (ids not in [unfinished] are ignored by the
          engine).  [None] stops the execution. *)
}

val make : name:string -> (time:int -> unfinished:int list -> int list option) -> t

val synchronous : t
(** Activate every unfinished process at every step — the lock-step
    failure-free schedule of the LOCAL model. *)

val sequential : t
(** Run the smallest-index unfinished process solo until it returns, then
    the next, etc.  Maximally "un-interleaved". *)

val round_robin : t
(** Activate one process per step, cycling through indices. *)

val singletons : Asyncolor_util.Prng.t -> t
(** One uniformly random unfinished process per step. *)

val random_subsets : Asyncolor_util.Prng.t -> p:float -> t
(** Independently include each unfinished process with probability [p];
    if the sampled set is empty, activate one random process instead (an
    empty activation set would be a wasted step). *)

val alternating_waves : t
(** Alternate between the even-index and odd-index unfinished processes —
    a highly interleaved schedule that maximises write/read races on the
    cycle. *)

val staircase : t
(** Activate prefixes of increasing length: {0}, {0,1}, {0,1,2}, … —
    processes wake up progressively, late nodes read long-stale registers. *)

val crash : at:int -> procs:int list -> t -> t
(** [crash ~at ~procs adv] behaves like [adv] but never activates any
    process of [procs] at any [time >= at]: those processes crash at time
    [at].  If only crashed processes remain unfinished, the schedule ends. *)

val random_crashes : Asyncolor_util.Prng.t -> n:int -> rate:float -> horizon:int -> t -> t
(** Crash each of the [n] processes independently with probability [rate],
    at a time uniform in [\[1, horizon\]]. *)

val isolate_pair : int * int -> t
(** [isolate_pair (p, q)] first runs everyone {e except} [p] and [q]
    synchronously until only [p] and [q] remain unfinished, then activates
    [{p, q}] simultaneously forever.  This is the schedule family behind
    finding F1: on Algorithms 2–3 it hunts for the symmetric phase-lock of
    a pair next to frozen registers. *)

val finite : int list list -> t
(** Replay an explicit finite schedule (used to replay counterexamples from
    the model checker); ends after the last set. *)

val parse : string -> int list list
(** Parse a schedule in the syntax the tools print: activation sets in
    braces, e.g. ["{0} {1} {1,2}"].  Whitespace between sets is free.
    @raise Invalid_argument on malformed input. *)

val to_string : int list list -> string
(** Inverse of {!parse}. *)
