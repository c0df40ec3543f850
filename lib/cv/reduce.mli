(** The identifier-reduction function of paper §4.1 (Equation (6)), adapted
    from Cole and Vishkin's deterministic coin tossing.

    For naturals [x] and [y],
    [f (x, y) = 2 i + x_i] where [i = min ({|x|, |y|} ∪ { k | x_k ≠ y_k })].

    Key properties (each has a matching property-based test):
    - [f x y <= 2 * Bits.length x + 1], so iterating [f] shrinks
      identifiers to a constant in [O(log* n)] steps (Lemma 4.1);
    - if [x > y >= 10] then [f x y < y] (Lemma 4.2);
    - if [x > y > z] then [f x y <> f y z] (Lemma 4.3) — the reduction
      preserves proper colouring along monotone chains. *)

val f : int -> int -> int
(** [f x y] as above.  @raise Invalid_argument on negative input. *)

val iterations_to_small : ?limit:int -> int -> int
(** [iterations_to_small x] is the number of iterations of the envelope
    function [F x = 2 ⌈log2 (x + 1)⌉ + 1] needed to bring [x] strictly
    below [limit] (default [10]), as in Lemma 4.1.  Returns [0] if already
    below. *)
