(** Cole–Vishkin 3-colouring of the oriented ring in synchronous
    rounds — the failure-free LOCAL-model baseline (paper §1.1 and
    Property 2.2).

    Nodes [0 … n-1] form a directed ring ([i]'s successor is [i+1 mod n]).
    Starting from their unique identifiers as colours, every node
    simultaneously applies the deterministic coin-tossing step
    [c_v ← 2 i + bit(c_v, i)] with [i] the first bit where [c_v] and the
    successor's colour differ.  The colour space collapses to [{0,…,5}] in
    [log* n + O(1)] rounds; three further rounds eliminate colours 5, 4
    and 3 (a colour class is an independent set, so its nodes can
    simultaneously re-colour with the mex of their two neighbours).

    This gives the [Θ(log* n)] synchronous yardstick against which the
    asynchronous Algorithm 3 is measured (experiment E11).  The textbook
    variant achieves [½ log* n + O(1)] by digesting two bits per round;
    we implement the plain one-bit step — same asymptotics, constant
    factor ≈ 2, recorded as such in EXPERIMENTS.md. *)

type result = {
  colors : int array;  (** final colours, all in [{0, 1, 2}] *)
  rounds : int;  (** total synchronous rounds ([cv_iterations + 3]) *)
  cv_iterations : int;  (** rounds of the coin-tossing phase *)
}

val three_color : int array -> result
(** Full pipeline: coin tossing then the three reduction rounds.
    @raise Invalid_argument if the input (identifiers) is not a proper
    colouring of the ring, has fewer than 3 entries or holds a negative
    identifier that coin tossing reaches. *)

val is_proper_ring : int array -> bool
(** No two cyclically-adjacent entries equal. *)

val rounds_upper_bound : int -> int
(** Generous a-priori bound [log* n + 10] on [cv_iterations] used by the
    tests. *)
