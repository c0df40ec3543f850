(** Systematic search for finding-F1 phase-locks at scale.

    The exhaustive explorer proves or refutes wait-freedom for tiny
    systems; this module scales the *attack* instead of the proof: for
    every edge [(p, q)] of the graph it plays the
    {!Asyncolor_kernel.Adversary.isolate_pair} schedule — run everyone
    else to completion, then activate [p] and [q] in perfect lockstep —
    and reports which pairs never terminate.  A non-empty result is a
    concrete, replayable wait-freedom violation for that topology and
    identifier assignment. *)

module Make (P : Asyncolor_kernel.Protocol.S) : sig
  module E : module type of Asyncolor_kernel.Engine.Make (P)

  type finding = {
    pair : int * int;
    locked : bool;
    steps : int;  (** steps consumed (= the cap when locked) *)
    pair_activations : int * int;  (** rounds the two processes worked *)
  }

  val probe : ?max_steps:int -> Asyncolor_topology.Graph.t -> idents:int array -> int * int -> finding
  (** Attack one adjacent pair.  Default [max_steps]: [2_000 + 20 * n]. *)

  val hunt :
    ?max_steps:int ->
    ?jobs:int ->
    ?policy:Asyncolor_util.Executor.policy ->
    ?budget:Asyncolor_resilience.Budget.t ->
    ?stop:(unit -> bool) ->
    ?obs:Asyncolor_obs.Obs.t ->
    Asyncolor_topology.Graph.t ->
    idents:int array ->
    finding list
  (** Attack every edge; findings in edge order.  The edge list is cut
      into [jobs] contiguous slices, each owning one engine that is
      rewound (snapshot/restore) between probes rather than re-created
      per edge; with [jobs > 1] the slices fan out across that many
      domains through an {!Asyncolor_util.Executor} running [policy]
      (default: [Serial] when [jobs <= 1], else [Synchronous]; an
      [Asynchronous] policy bounds how many slices are in flight at
      once).  Probes share no mutable state and findings are merged by
      slice index, so the result is identical for every [jobs] value and
      policy and comes back in edge order regardless.  [jobs] defaults
      to [1] (sequential, no domain spawned).

      [budget] and [stop] are polled between probes: when either fires
      the hunt returns the findings gathered so far instead of raising —
      a result shorter than the edge list means the hunt was cut short
      (each parallel slice keeps the prefix it had probed).

      [obs] (default {!Asyncolor_obs.Obs.disabled}) wraps the hunt in a
      ["lockhunt"] span, traces the executor when [jobs > 1], and
      accumulates the ["lockhunt.probes"]/["lockhunt.locked"] counters
      (probes performed, including those of a truncated hunt, and how
      many locked). *)

  val locked : finding list -> (int * int) list
  (** The pairs that locked. *)
end
