(** Algorithm 2 — wait-free 5-colouring of the cycle in O(n) (paper §3.2).

    Each process keeps two colour candidates [a_p] and [b_p]:
    - [a_p] avoids the candidates of neighbours with *greater* identifiers
      only ([a_p ← mex C+]) — the rank-based, renaming-flavoured component;
    - [b_p] avoids all neighbour candidates ([b_p ← mex C]) — the
      obstruction-free component.

    A process returns [a_p] (or failing that [b_p]) as soon as the value is
    absent from [C = { a_q, b_q, a_q', b_q' }].  Since [C+ ⊆ C], always
    [a_p ≤ b_p ≤ 4], giving the 5-colour palette.

    Theorem 3.11: termination within O(n) activations (non-minima within
    [⌊3n/2⌋ + 4], minima within [3n + 8]); palette [{0,…,4}]; outputs
    properly colour the returned subgraph. *)

type fields = { x : int; a : int; b : int }

module P :
  Asyncolor_kernel.Protocol.S
    with type state = fields
     and type register = fields
     and type output = int

module E : module type of Asyncolor_kernel.Engine.Make (P)

val activation_bound : int -> int
(** [activation_bound n = 3 * n + 8]: the bound of Theorem 3.11 covering
    all processes (local minima included). *)

val run_on_cycle :
  ?max_steps:int -> idents:int array -> Asyncolor_kernel.Adversary.t -> E.run_result

(** {1 Beyond the cycle — the paper's open problem (§5)}

    The transition function never inspects its degree, so the very same
    code runs on arbitrary graphs, where [C] collects at most [2Δ] values
    and hence [a_p ≤ b_p = mex C ≤ 2Δ]: palette [{0, …, 2Δ}], i.e. the
    [2Δ+1] colours the renaming lower bound makes necessary (whenever
    [Δ+1] is a prime power).  Properness of the output is inherited from
    Lemma 3.12 verbatim; whether the algorithm always {e terminates}
    wait-free on general graphs is exactly the paper's open question.
    Experiment E16 probes it: exhaustively on all small graphs we tried
    (cliques, stars, paths, paw, diamond) it is wait-free under
    interleaved schedules with worst cases of 4–5 activations. *)

val general_palette : max_degree:int -> int
(** [2Δ + 1]. *)

val in_general_palette : max_degree:int -> int -> bool
