(** A greedy adaptive adversary: one-step lookahead scheduling.

    The fixed schedules of {!Asyncolor_kernel.Adversary} are oblivious; an
    adaptive adversary may inspect the configuration before choosing whom
    to activate.  This one simulates every candidate activation set on a
    scratch engine and picks a set that lets the {e fewest} processes
    return (ties: the largest such set) — a simple malicious scheduler
    that maximises work greedily.

    Two uses, both exercised by the tests and E13:
    - [`Singletons] mode approximates the worst interleaved schedule; on
      small instances it can be compared with the exhaustive explorer's
      exact worst case;
    - [`All_subsets] mode hunts for configurations where some set yields
      {e no} progress at all — run to a step cap it rediscovers the F1
      phase-locks of Algorithms 2–3 without being told about them. *)

module Make (P : Asyncolor_kernel.Protocol.S) : sig
  module E : module type of Asyncolor_kernel.Engine.Make (P)

  val worst_rounds :
    ?mode:[ `All_subsets | `Singletons ] ->
    ?max_steps:int ->
    Asyncolor_topology.Graph.t ->
    idents:int array ->
    E.run_result
  (** Convenience: run a fresh engine to completion (or the cap) under the
      greedy scheduler. *)
end
