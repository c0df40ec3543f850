(** The strong symmetry-breaking (SSB) task (paper §2.3, following
    Attiya–Paz).

    Each process outputs a bit.  The task demands:
    + if all processes terminate, at least one outputs 0 and at least one
      outputs 1;
    + in every execution (with at least one terminating process), at least
      one process outputs 1.

    SSB is not solvable wait-free in asynchronous shared memory
    ([6, Theorem 11]); Property 2.1 reduces MIS on the cycle to it. *)

type outcome = int option array
(** One entry per process; [None] = did not terminate; [Some b], [b ∈ {0,1}]. *)

val valid : outcome -> bool
(** Conjunction of the two conditions. *)

val pp : Format.formatter -> outcome -> unit
