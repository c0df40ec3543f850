(** Minimum excludant.

    The algorithms of the paper repeatedly compute
    [min (N \ S)] for small finite sets [S] of naturals — the smallest
    colour not used by some neighbourhood. *)

val of_list : int list -> int
(** [of_list s] is the least natural number not occurring in [s].
    Negative elements are ignored (colours are naturals).  Runs in
    O(|s| log |s|). *)
