(** Linial's O(Δ²)-colouring of general graphs in the synchronous LOCAL
    model (Linial 1992 [26]) — the failure-free baseline for the paper's
    Algorithm 4 (Appendix A), cited in the conclusion: "In the synchronous
    setting, there is an algorithm for O(Δ²)-coloring performing in
    O(log* n) rounds in any graph."

    One reduction round maps a proper [m]-colouring to a proper
    [q²]-colouring: pick the smallest prime [q] with [q > d·Δ] where
    [d + 1 = ⌈log_q m⌉]; view each colour [c < m ≤ q^(d+1)] as a
    polynomial [p_c] of degree ≤ [d] over [F_q] (its base-[q] digits).
    Distinct polynomials agree on at most [d] points, so among the
    [q > d·Δ] points some [x] has [p_v(x) ≠ p_u(x)] for every neighbour
    [u]; node [v] re-colours to [x·q + p_v(x) < q²].  Iterating stalls
    within O(log* m) rounds at a palette of at most [p²] for [p] the
    smallest prime above [2Δ] — i.e. O(Δ²).

    A further {e slow} phase ({!color_delta_plus_one}) removes one
    colour class per round down to the greedy optimum [Δ + 1] — possible
    in LOCAL, while in the paper's asynchronous model fewer than [2Δ+1]
    colours are impossible whenever [Δ+1] is a prime power (renaming
    bound, paper §5).  Experiment E15 measures this contrast. *)

type result = {
  colors : int array;  (** proper colouring *)
  rounds : int;  (** synchronous rounds used *)
  final_palette : int;  (** all colours are in [\[0, final_palette)] *)
}

val palette_bound : max_degree:int -> int
(** Conservative bound on the stall palette of {!color}: [p²] for [p] the
    smallest prime above [2·max 1 Δ]. *)

val color : Asyncolor_topology.Graph.t -> idents:int array -> result
(** Iterate the reduction step from the identifiers until the palette
    stops shrinking.  [result.final_palette <= palette_bound].
    @raise Invalid_argument if identifiers are not pairwise distinct
    non-negative. *)

val color_delta_plus_one : Asyncolor_topology.Graph.t -> idents:int array -> result
(** Full pipeline: {!color} then the slow phase; the classic
    [Δ+1]-colouring in [O(log* n) + O(Δ²)] rounds. *)

val is_proper : Asyncolor_topology.Graph.t -> int array -> bool
