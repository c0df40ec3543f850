(** Minimum excludant.

    The algorithms of the paper repeatedly compute
    [min (N \ S)] for small finite sets [S] of naturals — the smallest
    colour not used by some neighbourhood. *)

val of_list : int list -> int
(** [of_list s] is the least natural number not occurring in [s].
    Negative elements are ignored (colours are naturals).  Runs in
    O(|s| log |s|). *)

val kth_free : int -> int list -> int
(** [kth_free k taken] is the [k]-th smallest natural (1-based [k]) not in
    [taken], so [kth_free 1] is {!of_list}.  Rank-based renaming and
    Algorithm 2S pick their next name or colour with it.
    @raise Invalid_argument if [k < 1]. *)
