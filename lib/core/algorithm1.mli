(** Algorithm 1 — wait-free 6-colouring of the cycle (paper §3.1).

    Each process starts with its identifier [X_p] and a colour
    [c_p = (a_p, b_p) = (0, 0)].  Every round it writes [(X_p, c_p)], reads
    its neighbours, returns [c_p] if no awake neighbour shows the same
    pair, and otherwise refreshes:
    - [a_p ← mex { a_u | u ~ p, X_u > X_p }],
    - [b_p ← mex { b_u | u ~ p, X_u < X_p }].

    Theorem 3.1: on [C_n] with identifiers forming a proper colouring,
    every process terminates within [⌊3n/2⌋ + 4] activations, outputs lie
    in [{ (a,b) | a + b ≤ 2 }], and the returned processes are properly
    coloured.  The very same code runs on arbitrary graphs (Appendix A,
    Algorithm 4) with palette [{ (a,b) | a + b ≤ Δ }]. *)

type fields = { x : int; a : int; b : int }

module P :
  Asyncolor_kernel.Protocol.S
    with type state = fields
     and type register = fields
     and type output = Color.pair

module E : module type of Asyncolor_kernel.Engine.Make (P)

val activation_bound : int -> int
(** [activation_bound n = (3 * n / 2) + 4], the bound of Theorem 3.1. *)

val run_on_cycle :
  ?max_steps:int -> idents:int array -> Asyncolor_kernel.Adversary.t -> E.run_result
(** Convenience: build [C_n] for [n = Array.length idents], run to
    completion under the adversary. *)
