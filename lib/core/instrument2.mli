(** Algorithm 2 instrumented with the [A_p] shadow sets used by the proof
    of Theorem 3.11 (the sets of Eq. (3), reused by Lemma 3.13).

    The key intermediate fact, Equation (5) of Lemma 3.13:
    [a_p = 0 ⟺ |A_p| ≡ 0 (mod 2)] whenever [p] misses with at most one
    higher awake neighbour — and, for the non-minimal processes the lemma
    targets, the parity always matches.

    Checking Eq. (5) at every step of every execution — {e including the
    F1 phase-lock executions where Theorem 3.11's conclusion fails} —
    localises the error in the paper's argument: Eq. (5) is sound (the
    monitor never fires, even inside the lock), while the final
    strict-inequality step "[b̂_p(t₄) = 0 < min{â_q(t₄), …}]" is the one
    falsified by a returned neighbour's frozen [a = 0] register. *)

module IntSet : Set.S with type elt = int

type state = {
  base : Algorithm2.fields;
  a_set : IntSet.t;
  higher_awake : int;  (** |N⁺_p| at the last missed round, −1 before any *)
}

module P :
  Asyncolor_kernel.Protocol.S
    with type state = state
     and type register = state
     and type output = int

module E : module type of Asyncolor_kernel.Engine.Make (P)

val monitor : E.t -> unit
(** Assert Equation (5) on every working process; raise [Failure] on
    violation. *)

val agrees_with_algorithm2 : idents:int array -> schedule:int list list -> bool
(** Observational transparency against the plain Algorithm 2. *)
