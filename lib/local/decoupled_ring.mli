(** The DECOUPLED model on the ring (paper §1.4, after [13, 18]).

    DECOUPLED separates computing from communication: the [n] nodes'
    inputs travel over a {e synchronous, reliable} network — after global
    round [r], the (never-lost, buffered) messages at node [p] cover the
    identifiers of every node within distance [r] — while the processes
    themselves are asynchronous and crash-prone.  A process that wakes up
    late still finds all past messages in its buffer.

    This module implements the simulation idea of [18] specialised to ring
    3-colouring: once a process's knowledge ball has radius [K + 3], where
    [K] is a deterministic function of the identifier-universe bound [U]
    (the number of Cole–Vishkin iterations that provably drives any proper
    colouring with values < U below 6), the process locally replays the
    {e same} virtual synchronous execution — [K] coin-tossing rounds plus
    the three colour-reduction rounds — on its window and outputs its own
    colour.  All processes replay the same execution, so outputs are
    globally consistent; crashed processes' identifiers still propagate
    (the network does not crash).

    The punchline, measured by experiment E14: 3 colours in O(log* U)
    global rounds on every [C_n] {e including} [C_3] — while in the
    paper's fully asynchronous state model 5 colours are necessary
    (Property 2.3).  The communication layer's synchrony is exactly what
    separates the models. *)

type t

val create : idents:int array -> universe:int -> t
(** [create ~idents ~universe] sets up the ring; identifiers must be
    pairwise distinct and in [\[0, universe)].
    @raise Invalid_argument otherwise, or if fewer than 3 nodes. *)

val rounds_needed : universe:int -> int
(** [K + 3]: knowledge radius after which any activation outputs. *)

val run :
  ?horizon:int ->
  Asyncolor_kernel.Adversary.t ->
  t ->
  int option array * int
(** Drive [t]: at each global round, advance the network then activate the
    adversary's chosen set.  Stops when every process has output, the
    adversary ends the schedule (crashes), or [horizon] rounds elapse
    (default [4 * rounds_needed]).  Returns outputs and rounds used. *)

val is_proper_partial : int option array -> bool
(** Cyclically adjacent outputs differ (crashed = unconstrained). *)
