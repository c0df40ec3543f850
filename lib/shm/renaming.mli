(** Rank-based wait-free (2n−1)-renaming in asynchronous shared memory
    (Attiya, Bar-Noy, Dolev, Peleg, Reischuk 1990; see also [7, Alg. 55]).

    The paper's Algorithm 2 "bears some resemblance" to this classic: the
    [a_p] component is rank-based in the same way.  We implement it as the
    shared-memory baseline of experiment E12 and to exhibit the [C_3]
    coincidence of Property 2.3: on 3 processes, renaming needs 5 names,
    and 5 names = the 5 colours of Algorithms 2–3 on [C_3].

    The shared-memory model is the state model on the complete graph
    [K_n]: every process reads every other register, plus it knows its own
    state.  Each round a process proposes a name; if the snapshot shows a
    collision it re-proposes the [rank]-th free name, where [rank] is the
    position of its identifier among all identifiers seen. *)

type fields = { x : int; proposal : int }

module P :
  Asyncolor_kernel.Protocol.S
    with type state = fields
     and type register = fields
     and type output = int

module E : module type of Asyncolor_kernel.Engine.Make (P)

val name_bound : int -> int
(** [name_bound n = 2 * n - 2]: the largest name (0-based) that can be
    output among [n] processes, i.e. names lie in [{0, …, 2n−2}] —
    a palette of [2n − 1] names. *)

val run : ?max_steps:int -> n:int -> idents:int array -> Asyncolor_kernel.Adversary.t -> E.run_result
(** Run renaming among [n] processes (complete graph).
    @raise Invalid_argument if [Array.length idents <> n] or [n < 2]. *)
