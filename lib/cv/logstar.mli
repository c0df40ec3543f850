(** The iterated logarithm, following the paper's footnote 1:
    [log(0) x = x], [log(k+1) x = log2 (log(k) x)], and [log* x] is the
    smallest [k ≥ 0] such that [log(k) x ≤ 1]. *)

val log_star_int : int -> int
(** [log_star_int n] is [log* n].
    @raise Invalid_argument on negative input. *)
