(** The algorithms and what the paper claims of each, stated once.

    One entry per algorithm the command line, the fuzzer and the churn
    sessions run: the protocol (whose [pp_output] prints its outputs),
    how to compare outputs, the palette claimed on a given graph and the
    wait-freedom activation bound claimed on the cycle.

    {v
    name  protocol      palette on C_n   elsewhere (max degree Δ)   bound on C_n
    1     Algorithm 1   a + b <= 2       a + b <= Δ (App. A)        ⌊3n/2⌋ + 4
    2     Algorithm 2   {0..4}           {0..2Δ} (§5)               3n + 8
    2s    Algorithm 2S  {0..6}           no claim                   none (E13)
    3     Algorithm 3   {0..4}           {0..4}                     64 log* n + 64
    4     Algorithm 4   a + b <= 2       a + b <= Δ (App. A)        none
    v}

    Algorithm 3 is a cycle algorithm; its five colours are checked
    wherever it runs.  A new protocol enters as one entry here and one
    case of {!find}. *)

type 'o protocol = (module Asyncolor_kernel.Protocol.S with type output = 'o)

type 'o t = {
  protocol : 'o protocol;
  equal : 'o -> 'o -> bool;
  palette : Asyncolor_topology.Graph.t -> on_cycle:bool -> 'o -> bool;
      (** Membership in the palette claimed on the graph; [on_cycle] says
          the graph was built as a cycle.  Where nothing is claimed every
          output is accepted. *)
  bound : (int -> int) option;
      (** The per-process activation bound on [C_n] as a function of [n];
          [None] where no wait-freedom bound is claimed. *)
}

type any = Any : 'o t -> any

val a1 : Color.pair t
val a2 : int t
val a2s : int t
val a3 : int t
val a4 : Color.pair t

val find : string -> any option
(** The entry of that name: ["1"], ["2"], ["2s"], ["3"] or ["4"]. *)
