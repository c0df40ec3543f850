(** The synchronisation counter [r_p ∈ N ∪ {∞}] of Algorithm 3.

    [r_p] counts how many identifier reductions process [p] has attempted;
    a process only reduces when [r_p ≤ min(r_q, r_q')] — the "green light"
    from both neighbours.  [r_p = ∞] marks a process that has permanently
    opted out of identifier reduction (it became a local extremum). *)

type t = Fin of int | Inf

val zero : t
val succ : t -> t
(** [succ Inf = Inf]. *)

val is_finite : t -> bool
val ( <= ) : t -> t -> bool
val min : t -> t -> t

val encode : (int -> unit) -> t -> unit
(** Injective integer encoding for the run-core packed-key layer. *)

val decode : int array -> int -> t
(** [decode data pos] reads back what {!encode} wrote at [pos].
    @raise Invalid_argument on a tag {!encode} never writes. *)

val encoded_length : t -> int
(** The number of integers {!encode} writes for the value. *)

val pp : Format.formatter -> t -> unit
