(** Algorithm 1 instrumented with the proof machinery of §3.1.

    The paper's analysis attaches to every process [p] two shadow sets:
    - [A_p(t)] (Eq. 3): identifiers of the processes [p] has heard of that
      are linked to [p] by a subpath of strictly increasing identifiers;
    - [B_p(t)] (Eq. 4): symmetrically, along decreasing identifiers.

    This module runs Algorithm 1 unchanged but carries [A_p]/[B_p] through
    the registers exactly as Equations (3)–(4) prescribe, so that the
    lemmas about them can be checked {e during} real executions:

    - Lemma 3.5: every element of [A_p] exceeds [X_p]; every element of
      [B_p] is below [X_p];
    - Remark 3.6: [A_p] and [B_p] grow monotonically (set inclusion);
    - Lemma 3.7: when [p] misses with at most one higher (resp. lower)
      awake neighbour, [a_p ≡ |A_p| (mod 2)] (resp. [b_p ≡ |B_p|]);
    - Lemma 3.8: a non-extremal process that misses grows [A_p] or [B_p].

    The base-protocol behaviour is bit-for-bit that of
    {!Algorithm1.P} (asserted by {!val-agrees_with_algorithm1}). *)

module IntSet : Set.S with type elt = int

type shadow = { a_set : IntSet.t; b_set : IntSet.t }

type state = {
  base : Algorithm1.fields;
  shadow : shadow;
  higher_awake : int;  (** |N+_p| at the last round, −1 before any round *)
  lower_awake : int;  (** |N−_p| at the last round *)
}

module P :
  Asyncolor_kernel.Protocol.S
    with type state = state
     and type register = state
     and type output = Color.pair

module E : module type of Asyncolor_kernel.Engine.Make (P)

val monitor : E.t -> unit
(** Assert Lemma 3.5 and Lemma 3.7 on every working process.
    @raise Failure on violation; install with [E.set_monitor]. *)

val agrees_with_algorithm1 :
  idents:int array -> schedule:int list list -> bool
(** Replay the same finite schedule against Algorithm 1 and against the
    instrumented protocol on the cycle of matching size; true iff all
    outputs (including non-termination) coincide. *)
