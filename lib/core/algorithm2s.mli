(** Algorithm 2S — a {e candidate} repair of finding F1, studied (and
    partly refuted) by experiment E17.  Not in the paper.

    Finding F1 shows that under the paper's simultaneous-activation
    semantics Algorithm 2 can phase-lock: two adjacent processes whose
    conflict sets mirror each other recompute symmetric [b] values forever
    when their rounds coincide.  This variant tries to break the symmetry
    {e inside} the algorithm: a process picks the [(1 + |N⁺_p|)]-th free
    colour instead of the first, where [N⁺_p] is its set of awake
    higher-identifier neighbours — the hope being that the chasing pair
    always differs in local rank.

    E17's verdict: the attack surface shrinks dramatically (the
    isolate-pair hunter finds no locks where Algorithm 2 locks 10–20% of
    edges, and C3/C5 instances that locked become exhaustively wait-free)
    {e but the repair is not sound}: on [C_4] with monotone identifiers
    (0,1,2,3) the two middle nodes both have rank 1 and the checker
    exhibits a lasso.  Any bounded identifier-derived offset that must
    differ on adjacent nodes is itself a proper colouring — the problem
    being solved — which is why these in-algorithm fixes keep failing.
    The sound simultaneity-safe option in the paper's own toolbox is
    Algorithm 1: its two components are pinned {e asymmetrically} (the
    local maximum holds [a = 0], the minimum holds [b = 0]), and it is
    exhaustively wait-free in the full model at the price of a 6-colour
    palette.

    Palette here: [{0,…,6}] (on the cycle [|C| ≤ 4], [|N⁺| ≤ 2]).
    Properness is inherited from Lemma 3.12 unchanged. *)

type fields = { x : int; a : int; b : int }

module P :
  Asyncolor_kernel.Protocol.S
    with type state = fields
     and type register = fields
     and type output = int

module E : module type of Asyncolor_kernel.Engine.Make (P)

val in_palette : int -> bool

val run_on_cycle :
  ?max_steps:int -> idents:int array -> Asyncolor_kernel.Adversary.t -> E.run_result
