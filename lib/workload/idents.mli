(** Identifier-assignment workloads.

    The running time of Algorithms 1–2 is governed by the longest monotone
    chain of identifiers around the cycle (Lemma 3.9, Remark 3.10), so the
    choice of identifier workload *is* the benchmark workload.  Generators
    return an array of naturals, one per node in cycle order —
    pairwise-distinct (the paper's model) except for the deliberately
    symmetric {!uniform} and {!periodic} workloads that feed the
    explorer's symmetry-reduction benchmarks. *)

val increasing : int -> int array
(** [0, 1, …, n-1]: one monotone chain spanning the whole cycle — the
    worst case for Algorithms 1 and 2, the showcase for Algorithm 3. *)

val decreasing : int -> int array

val zigzag : int -> int array
(** Alternating low/high ([0, n, 1, n+1, …]): every node is a local
    extremum or adjacent to one — the best case for Algorithms 1–2. *)

val random_permutation : Asyncolor_util.Prng.t -> int -> int array
(** Uniform permutation of [0 .. n-1]. *)

val random_sparse : Asyncolor_util.Prng.t -> n:int -> universe:int -> int array
(** [n] distinct identifiers drawn from [\[0, universe)] — the paper's
    [poly(n)]-sized name space.  @raise Invalid_argument if
    [universe < n]. *)

val uniform : ?ident:int -> int -> int array
(** Every node carries the same identifier (default 7).  Deliberately
    outside the paper's distinct-identifier model: the anonymous cycle is
    the maximally symmetric workload — all [2n] dihedral automorphisms
    preserve it — so it is what the explorer's symmetry reduction is
    benchmarked and differentially tested on (the algorithms may
    legitimately livelock or miscolour here; the two explorers must agree
    that they do). *)

val periodic : int array -> int -> int array
(** Tile a pattern around the cycle ([periodic [|0;1|] 6] =
    [[|0;1;0;1;0;1|]]): symmetric under the rotations that are multiples
    of the pattern length, a middle ground between {!uniform} and the
    injective workloads.  @raise Invalid_argument on an empty pattern. *)

val bit_adversarial : int -> int array
(** Identifiers engineered so consecutive nodes differ only in a high bit
    (Gray-code-like), slowing the Cole–Vishkin reduction: stresses
    experiment E9. *)

type pool
(** A reusable occupancy buffer over the identifiers [\[0, universe)]:
    the allocation-free form of {!fresh} for a caller that allocates
    repeatedly (one churn session recovers hundreds of thousands of
    processes). *)

val pool : universe:int -> pool
(** @raise Invalid_argument when [universe] is non-positive. *)

val fresh_in : pool -> count:int -> (int -> int) -> int
(** [fresh_in pool ~count live] is {!fresh} with the live identifiers
    [live 0, …, live (count - 1)] and the pool's universe: the smallest
    natural in [\[0, universe)] that is none of them.  Allocates nothing
    and costs O([count] + the answer).  Live identifiers outside the
    universe, and repeated ones, are harmless.
    @raise Invalid_argument when every identifier in [\[0, universe)] is
    live (universe exhausted). *)

val fresh : live:int list -> universe:int -> int
(** [fresh ~live ~universe] allocates an identifier for a recovering
    process: the smallest natural in [\[0, universe)] that collides with
    no identifier in [live] (the identifiers of the currently live
    processes — dead incarnations may be reused; only live collisions
    break the model).  Deterministic, so churn sessions replay without
    persisting allocator state.  A one-shot {!fresh_in} on a new pool.
    @raise Invalid_argument when [universe] is non-positive or every
    identifier in [\[0, universe)] is live (universe exhausted). *)

val longest_monotone_run : int array -> int
(** Length (number of edges) of the longest run of consecutive positions
    around the cycle with strictly monotone identifiers; drives the
    Theorem 3.1/3.11 bounds. *)

val is_injective : int array -> bool
