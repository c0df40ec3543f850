(** Bitmask helpers for sets of process indices (bit [p] = process [p]),
    the packed node sets of the engine's mask entry points and of the
    churn session. *)

val popcount : int -> int
(** Number of set bits of a non-negative mask.  O(popcount). *)

val lowest_bit : int -> int
(** Index of the lowest set bit of a mask [m <> 0], in constant time:
    walking a mask's set bits in ascending order with
    [m land (m - 1)] costs O(popcount), not O(n). *)

val nth_bit : int -> int -> int
(** [nth_bit m k] is the index of the [k]-th lowest set bit of [m]
    ([0 <= k < popcount m]). *)
