(** Exhaustive verification over *all* schedules, for small systems.

    The configuration of an execution is the tuple of per-process statuses,
    private states and register contents.  Because protocols are
    deterministic, fixing the topology and the identifiers makes the set of
    reachable configurations a finite directed graph whose edges are the
    nonempty activation subsets of the not-yet-returned processes.  The
    explorer builds this graph breadth-first and decides:

    - {b Wait-freedom}.  The protocol is wait-free (for this topology and
      identifier assignment) iff the configuration graph is acyclic: every
      edge activates at least one working process, so a cycle is exactly a
      schedule on which some process takes working steps forever, and
      conversely an acyclic graph bounds every execution by its longest
      path.  On violation a concrete lasso schedule (prefix + cycle) is
      returned, replayable with {!Asyncolor_kernel.Adversary.finite}.

    - {b Safety}.  User predicates are evaluated at every reachable
      configuration — e.g. proper colouring of the returned subgraph,
      palette membership, or the Lemma 4.5 identifier invariant.  Each
      violation comes with the schedule prefix that reaches it.

    - {b Worst case}.  When the graph is acyclic, a longest-path dynamic
      program yields the exact worst-case number of activations of any
      single process over {e all} schedules — the paper's round
      complexity, computed exactly rather than sampled.

    {1 Data layer}

    Activation subsets are bitmasks end-to-end (bit [p] = process [p]):
    enumeration ({!masks_of}), engine steps
    ({!Asyncolor_kernel.Engine.Make.activate_mask}), the adjacency of the
    configuration graph (flat int arrays in CSR layout) and the
    longest-path table (one flat [n * configs] int array).  Lists of
    process indices only appear at the API boundary, in
    {!Make.violation.schedule}.  This caps the explorer at
    [n <= Sys.int_size - 1] processes — far beyond exhaustive reach. *)

val subsets_of : [ `All_subsets | `Singletons ] -> int list -> int list list
(** [subsets_of mode procs] enumerates the activation subsets of [procs]:
    every nonempty subset for [`All_subsets] ([2^k - 1] of them), the
    singletons for [`Singletons].  The enumeration order is part of the
    explorer's determinism contract (it fixes BFS discovery order and
    hence configuration ids). *)

val masks_of : [ `All_subsets | `Singletons ] -> int -> int array
(** [masks_of mode unfinished] is the packed counterpart of
    {!subsets_of}: the same subsets, of the set bits of [unfinished], as
    bitmasks, in the same order — [Array.to_list (Array.map subset_of_mask
    (masks_of mode m))] equals [subsets_of mode (subset_of_mask m)]. *)

val subset_of_mask : int -> int list
(** Ascending list of the set bits of a mask. *)

val mask_of_subset : int list -> int
(** Bitmask with the listed bits set. *)

type orbit_stats = {
  group_order : int;  (** ident-preserving automorphisms used *)
  expanded_configs : int;
      (** sum of orbit sizes over interned representatives — equals the
          unreduced explorer's [configs] on complete runs *)
  expanded_transitions : int;  (** likewise for [transitions] *)
  expanded_terminal : int;  (** likewise for [terminal_configs] *)
}
(** Orbit accounting of a symmetry-reduced run.  Shared across functor
    instances (like the report conversions the experiments do). *)

module Make (P : Asyncolor_kernel.Protocol.S) : sig
  module E : module type of Asyncolor_kernel.Engine.Make (P)

  type violation = {
    message : string;
    schedule : int list list;  (** activation sets reaching the violation *)
  }

  type report = {
    configs : int;  (** reachable configurations explored *)
    transitions : int;  (** edges of the configuration graph *)
    terminal_configs : int;  (** configurations with every process returned or only crashed futures *)
    complete : bool;  (** false iff exploration stopped at [max_configs] *)
    wait_free : bool;  (** graph acyclic (meaningful when [complete]) *)
    livelock : violation option;  (** a lasso schedule witnessing non-wait-freedom *)
    safety : violation list;  (** safety violations, oldest first (capped) *)
    worst_case_activations : int;
        (** Exact worst-case rounds over all schedules.  The sentinel value
            [-1] means "no meaningful bound": either the graph is cyclic
            (worst case is unbounded), or the exploration was truncated at
            [max_configs] ([complete = false]) so the longest path of the
            explored subgraph would silently under-report the true worst
            case.  Always check {!complete} (and {!wait_free}) before
            quoting this number. *)
    orbit : orbit_stats option;
        (** [Some] iff the run was symmetry-reduced; the orbit-expanded
            counts a differential test compares against an unreduced run.
            [None] keeps symmetry-off reports (and their printed form)
            byte-identical to previous releases. *)
  }

  val symmetry_group :
    symmetry:bool ->
    Asyncolor_topology.Graph.t ->
    idents:int array ->
    int array array
  (** The automorphisms the quotient runs under: the graph's
      index-dihedral automorphisms ({!Asyncolor_topology.Graph.automorphisms})
      that fix the identifier assignment pointwise, identity first.  With
      [symmetry:false] (or pairwise-distinct idents) just the identity —
      the explorer's symmetry-off path literally runs the same code with
      a trivial group.  Exposed for the canonicalization property tests. *)

  val canonicalize : int array array -> E.config -> E.key * E.config * int * int
  (** [canonicalize group c] is the orbit canonicalization on the intern
      path: the lexicographically-least packed key among
      [E.config_key (E.config_permute c sigma)] over the group, the
      first index attaining it winning ties.  Candidates are compared in
      place over [c]'s key slices ({!E.config_key_offsets}), never
      built; only a winner other than the identity is materialised.
      Returns [(key, representative, orbit_size, winner_index)] with
      [key = E.config_key representative],
      [representative = E.config_permute c group.(winner_index)], and
      [orbit_size] the number of distinct candidate keys, computed as
      [|group| / |stabiliser of c|].  [group] must be what
      {!symmetry_group} returns: a duplicate-free subgroup with the
      identity first.  A pure
      function of [(group, c)] — the determinism guarantee hangs on
      that, and the property tests pin it down
      ([canonicalize] is invariant under permuting [c] by any group
      element, and idempotent on representatives). *)

  val explore :
    ?max_configs:int ->
    ?max_violations:int ->
    ?mode:[ `All_subsets | `Singletons ] ->
    ?impl:[ `Hashcons | `Reference ] ->
    ?jobs:int ->
    ?policy:Asyncolor_util.Executor.policy ->
    ?checkpoint:string * int ->
    ?budget:Asyncolor_resilience.Budget.t ->
    ?stop:(configs:int -> bool) ->
    ?symmetry:bool ->
    ?spill:Asyncolor_resilience.Spill.t * int ->
    ?chaos:Asyncolor_resilience.Chaos.t ->
    ?retry:Asyncolor_resilience.Chaos.Retry.cfg ->
    ?check_outputs:(P.output option array -> string option) ->
    ?check_config:(E.t -> string option) ->
    ?obs:Asyncolor_obs.Obs.t ->
    Asyncolor_topology.Graph.t ->
    idents:int array ->
    report
  (** [explore g ~idents] exhausts the configuration graph of the protocol
      on [g] with the given identifiers.  [check_outputs] inspects the
      partial output vector of each configuration; [check_config] is given
      an engine restored to the configuration (read-only use).

      [mode] selects the schedule space: [`All_subsets] (default) allows
      arbitrary simultaneous activations, the paper's full model;
      [`Singletons] restricts to interleaved schedules (one process per
      time step), i.e. executions with no perfectly-simultaneous rounds.
      The distinction matters: see the "phase-lock" finding in
      EXPERIMENTS.md.  Defaults: [max_configs = 500_000],
      [max_violations = 5].

      [impl] selects the exploration engine: [`Hashcons] (default) is the
      packed BFS — configurations interned by the integer keys of
      {!Asyncolor_kernel.Engine.Make.config_key} in one
      {!Asyncolor_util.Intern} store (varint bytes in an arena, about
      100 B a configuration), adjacency in flat int arrays, one FIFO
      merge loop for every policy;
      [`Reference] is the seed
      implementation (sequential FIFO BFS over a [Map] keyed by
      [config_compare]), kept as the oracle for the differential tests.

      [jobs] (default 1, [`Hashcons] only) sets the number of domains
      expanding configurations; [policy] the execution policy (default:
      [Serial] when [jobs <= 1], else [Synchronous]).  Whenever the
      executor has one job — [Serial], or any policy at [jobs = 1] — the
      merging domain expands each entry in line.  With more jobs,
      expansions run ahead of the merge as executor futures:
      [Synchronous] keeps a full barrier between BFS levels (level k+1
      expansion starts only once level k has fully merged);
      [Asynchronous {kappa; _}] lets level k+1 expansion start once a κ
      fraction of level k has merged, bounded by the policy's in-flight
      window — discovery is async and unordered, id assignment stays a
      sequential FIFO merge.
      {b Deterministic-output guarantee}: the report — configuration ids
      embedded in messages, schedules, violation order, every counter —
      is byte-identical for every [jobs] value, every policy, and
      identical to [`Reference]'s, because dense ids are assigned by
      awaiting expansion futures strictly in submission (FIFO) order and
      walking each candidate array in activation-subset order — exactly
      sequential BFS discovery order, independent of which domain stole
      which expansion when.

      {b Crash safety} ([`Hashcons] only — [`Reference] raises
      [Invalid_argument] when any of the options below is given):

      [checkpoint:(path, every)] persists the exploration state to [path]
      (atomically, through {!Asyncolor_resilience.Checkpoint}) whenever at
      least [every] new configurations have been interned since the last
      save, and once more when the run is stopped early.  The interval is
      measured in configurations, not seconds, so checkpoint placement is
      deterministic and testable.  A save is not free in memory: the v2
      format holds every key as an [int array], so each save decodes the
      whole intern store into boxed arrays (about 60 words a
      configuration) until the file is written.  The heap at a save
      therefore peaks near where it sat when keys were boxed for good
      (C5 [5,1,9,4,7] at one job: 130 MiB with a save every 20,000
      configurations, 64 MiB without checkpoints), and a
      [budget] on live heap words can trip just after one.

      [budget] bounds the run by wall-clock time and/or live heap words
      ({!Asyncolor_resilience.Budget}); [stop] is an arbitrary
      cancellation callback (e.g. {!Asyncolor_resilience.Stop.requested}
      fed by signal handlers), polled with the current number of interned
      configurations.  Both are checked at the same boundary under every
      policy: before each pending entry is merged.  When either fires,
      the run {e degrades, never corrupts}: a final checkpoint is
      written (if configured) while the pending set is intact, and the
      returned report is a well-formed truncation with [complete = false]
      (unless every pending configuration was terminal anyway) — exactly
      the [max_configs] contract.

      {b Symmetry reduction} ([symmetry], default [false]; [`Hashcons]
      only).  Every successor is mapped to the lexicographically-least
      packed key of its orbit under the graph's ident-preserving
      index-dihedral automorphisms
      ({!Asyncolor_topology.Graph.automorphisms} filtered by
      [idents.(sigma p) = idents.(p)]) before interning, so each orbit is
      explored once — an up-to-[2n] state-space cut on cycles and cliques
      with symmetric identifier assignments (with {e distinct} idents the
      group is trivial and the run coincides with symmetry-off).  The
      quotient is a bisimulation up to permutation (see DESIGN.md):
      wait-freedom, livelock existence, safety of G-invariant predicates
      and — via per-edge automorphism tracking in the packed adjacency —
      the exact worst case are all preserved; [report.configs/transitions/
      terminal_configs] count {e representatives}, with the orbit-expanded
      totals in {!report.orbit}.  Caveats: user predicates must be
      G-invariant (proper colouring and palette checks are); violation and
      lasso schedules are witnesses {e up to automorphism} — each step's
      activation set is stated in the coordinates of that step's stored
      representative, so they replay the quotient, not a literal engine
      execution.  The canonical representative is a pure function of the
      successor, so the deterministic-output guarantee above is unchanged.

      {b Spilling} ([spill:(store, threshold_words)]; [`Hashcons] only).
      The adjacency stream of merged configurations — the dominant
      allocation of a full-model run, 2–3 words per transition, never read
      again until the post-BFS analyses — is closed into levels of
      [threshold_words] at merge boundaries and written through
      {!Asyncolor_resilience.Spill} (delta-encoded, checksummed
      {!Asyncolor_resilience.Checkpoint} containers), leaving the live
      heap to the frontier, the intern store and the per-config arrays —
      all of which grow with the configurations explored.  Under a parallel policy the write runs as a background
      executor task while the pipeline keeps expanding.  The analyses
      reassemble the stream into an off-heap bigarray, so the peak-heap
      saving survives the analysis phase.  Spilling never changes any
      report field — only where bytes live.

      {b Observability} ([obs], default {!Asyncolor_obs.Obs.disabled}).
      The run is traced out-of-band — never through stdout, so the
      deterministic-output guarantee is untouched: the report is
      byte-identical with tracing on or off.  The whole call is an
      ["explore"] span; every run emits one ["bfs.level"] span per BFS
      level, with the executor's ["exec.task"] spans on per-domain
      [exec-worker-N] lanes underneath when expansion is parallel; checkpoint writes are
      ["checkpoint.save"] spans and the final analyses
      ["analyze.livelock"]/["analyze.worstcase"].  Counters:
      ["explorer.configs"] equals {!report.configs} exactly on fresh
      [`Hashcons] runs, any [jobs] (on resume it counts only newly
      interned configurations); ["explorer.transitions"] likewise tracks
      {!report.transitions}; plus ["explorer.levels"],
      ["checkpoint.saves"], ["explorer.wait_ns"] (time the FIFO merge
      spent blocked on the head expansion future — the barrier-wait the
      κ overlap removes), ["explorer.overlap_submits"] (expansions
      submitted past the current level boundary), and the
      ["explorer.frontier_max"] / ["exec.kappa_overlap"] gauges.
      Symmetry adds ["explorer.orbit_hits"] (successors whose winner
      index is not 0, i.e. remapped to another orbit member) and
      ["explorer.canon_ns"]; spilling adds ["spill.bytes_written"] /
      ["spill.bytes_read"] and the ["spill.levels_on_disk"] gauge; and
      ["explorer.peak_heap_words"] tracks the live-heap high-water mark
      sampled every 1024 merged entries and once at the end of the BFS —
      the number the bench's
      [peak_live_words] field reports — and ["explorer.intern_bytes"]
      the intern store's size at the end of the BFS ({!Asyncolor_util.Intern.bytes}).  The
      [`Reference] oracle is deliberately uninstrumented — its counters
      stay 0 — so differential tests compare protocol behaviour, not
      plumbing.

      {b Fault injection and recovery} ([chaos] / [retry]; [`Hashcons]
      only).  An enabled {!Asyncolor_resilience.Chaos} instance injects
      environment faults into every I/O edge of the run — checkpoint
      saves/loads (sites ["checkpoint.*"]) and spill writes/reads (sites
      ["spill.*"]).  Checkpoint saves go through
      {!Asyncolor_resilience.Checkpoint.save_rotated} (retry
      budget, read-back verify, last-good rotation); spill failures are
      retried and rebuilt from memory where resident.  [retry] defaults
      to {!Asyncolor_resilience.Chaos.Retry.default} when chaos is
      enabled and to a single fail-fast attempt otherwise.  Because
      recovery is deterministic (per-site fault schedules, FIFO merge),
      the report stays {e byte-identical to the fault-free run} for any
      schedule the retry budget survives.  When a budget is exhausted the
      run truncates cleanly instead of crashing: exploration stops at the
      failing merge boundary, the last-good checkpoint is left intact,
      and the report is a well-formed truncation with [complete = false]
      (the failure reason goes to the diagnostic stream only, never
      stdout).

      @raise Invalid_argument when the graph has more than
      [Sys.int_size - 1] nodes (activation masks could not name every
      process). *)

  (** {1 Resuming}

      What a checkpoint written by {!explore} (or {!explore_resume})
      describes, structurally: the packed configuration graph built so
      far, the intern table as flat key payloads, and the
      interned-but-unexpanded configurations in FIFO discovery order.
      Because the BFS driver expands pending entries in stored order and
      assigns dense ids in expansion order under every policy, resuming is
      {e byte-identical}: the final report of an interrupted-and-resumed
      run equals the report of an uninterrupted run, for every [jobs]
      value on either side of the interruption. *)

  type resume_info = {
    ri_graph : Asyncolor_topology.Graph.t;
    ri_idents : int array;
    ri_mode : [ `All_subsets | `Singletons ];
    ri_max_configs : int;
    ri_max_violations : int;
    ri_configs : int;  (** configurations interned when the checkpoint was written *)
    ri_pending : int;  (** configurations still awaiting expansion *)
  }

  val resume_info : string -> resume_info
  (** Inspect a checkpoint without resuming it — the CLI uses this to
      rebuild the safety predicates for the stored graph and identifiers
      before calling {!explore_resume}.
      @raise Asyncolor_resilience.Checkpoint.Corrupt on damaged files,
      version mismatches, or checkpoints written by a different
      protocol. *)

  val explore_resume :
    ?jobs:int ->
    ?policy:Asyncolor_util.Executor.policy ->
    ?checkpoint:string * int ->
    ?budget:Asyncolor_resilience.Budget.t ->
    ?stop:(configs:int -> bool) ->
    ?spill:Asyncolor_resilience.Spill.t * int ->
    ?chaos:Asyncolor_resilience.Chaos.t ->
    ?retry:Asyncolor_resilience.Chaos.Retry.cfg ->
    ?check_outputs:(P.output option array -> string option) ->
    ?check_config:(E.t -> string option) ->
    ?obs:Asyncolor_obs.Obs.t ->
    string ->
    report
  (** [explore_resume path] continues the exploration stored at [path] to
      the end (or to the next checkpoint/budget/stop boundary — resumed
      runs can themselves checkpoint and be resumed again).  The
      structural parameters — graph, identifiers, mode, [max_configs],
      [max_violations] — come from the checkpoint; only the things a
      checkpoint cannot serialise are re-supplied: the safety closures
      (which must be the same predicates for the byte-identity guarantee
      to cover violation messages), the degree of parallelism and
      execution policy ([jobs]/[policy] as in {!explore}), and the
      observability sink ([obs] as in {!explore}, with an extra
      ["checkpoint.load"] span; the ["explorer.configs"] counter counts
      only configurations interned {e after} the resume point).  Whether
      the run is symmetry-reduced is recorded {e in} the checkpoint (the
      persisted adjacency encoding depends on it) and cannot be changed on
      resume; [spill] may be freshly supplied — checkpoints are
      self-contained (the adjacency stream is reassembled into the file at
      save time), so a resumed run re-spills into its own directory as
      levels close.  [chaos]/[retry] behave as in {!explore}; the resume
      load itself goes through
      {!Asyncolor_resilience.Checkpoint.load_rotated}, so a corrupt
      primary is quarantined and the previous rotation resumed instead.
      Stale [.tmp] files left by a killed predecessor (at [path] and at
      the new checkpoint target) are swept before any I/O.
      @raise Asyncolor_resilience.Checkpoint.Corrupt as {!resume_info}. *)

  val pp_report : Format.formatter -> report -> unit
end
