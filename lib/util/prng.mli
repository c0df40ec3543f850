(** Deterministic pseudo-random number generation.

    A small, fast, splittable generator (SplitMix64) used everywhere the
    simulator needs randomness: identifier assignments, random adversaries,
    random graphs.  Unlike [Stdlib.Random], the stream produced for a given
    seed is fixed by this implementation and therefore reproducible across
    OCaml releases, which matters for replaying adversarial executions. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] returns a fresh generator.  Equal seeds yield equal
    streams. *)

val copy : t -> t
(** [copy t] is an independent generator that will produce the same future
    stream as [t]. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of the remainder of [t]'s stream. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  @raise Invalid_argument if
    [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] (inclusive).
    @raise Invalid_argument if [hi < lo]. *)

val bool : t -> bool
(** Fair coin. *)

val bool_mask : t -> int -> int
(** [bool_mask t m] tosses one {!bool} per set bit of [m], lowest bit
    first, and returns the set bits whose coin came up [true] — the same
    draws, in the same order, as a loop of {!bool} calls, without a call
    per coin. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array.  @raise Invalid_argument on
    empty input. *)

val sample_without_replacement : t -> int -> int -> int list
(** [sample_without_replacement t k n] is a sorted list of [k] distinct
    values drawn uniformly from [\[0, n)].
    @raise Invalid_argument if [k < 0] or [k > n]. *)
