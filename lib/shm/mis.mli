(** Maximal independent set on the asynchronous cycle — the task that is
    *impossible* wait-free (paper Property 2.1).

    The task: at the end of every execution, (1) every node that terminates
    and outputs 0 (out of the MIS) has at least one terminated neighbour
    that output 1, and (2) no two terminated neighbours both output 1.

    No protocol can be simultaneously wait-free and correct; we provide the
    two halves of that trade-off as concrete foils:
    - {!Greedy}: returns after one look — wait-free but violated by simple
      sequential schedules (the model checker exhibits them);
    - {!Cautious}: greedy-by-identifier with waiting — correct in every
      *fair* execution, but blocked forever by a crashed higher neighbour
      (the model checker finds the livelock cycle, i.e. non-wait-freedom).

    Outputs are [true] = in the MIS (the SSB bit 1 under the reduction). *)

val valid : Asyncolor_topology.Graph.t -> bool option array -> bool
(** Validity of a partial MIS outcome per the paper's definition. *)

(** Wait-free but incorrect: decide from the first visible snapshot. *)
module Greedy : sig
  type fields = { x : int }

  module P :
    Asyncolor_kernel.Protocol.S
      with type state = fields
       and type register = fields
       and type output = bool

  module E : module type of Asyncolor_kernel.Engine.Make (P)
end

(** Correct under fair schedules but not wait-free: wait for all higher
    identifiers to decide. *)
module Cautious : sig
  type decision = Undecided | Pending of bool

  type fields = { x : int; decision : decision }

  module P :
    Asyncolor_kernel.Protocol.S
      with type state = fields
       and type register = fields
       and type output = bool

  module E : module type of Asyncolor_kernel.Engine.Make (P)
end
