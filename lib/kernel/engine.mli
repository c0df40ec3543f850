(** Execution engine for the asynchronous state model.

    [Make (P)] instantiates the model of paper §2.1–2.2 for protocol [P]:
    processes sit on the nodes of a graph, communicate through
    single-writer/multi-reader registers readable only along edges, and are
    driven by an explicit schedule of activation sets.

    Semantics guaranteed by {!Make.activate}:
    - processes activated in the same step all write before any of them
      reads (simultaneous immediate-snapshot behaviour);
    - a register reads as [None] ([⊥]) until its owner's first activation;
    - a returned process ignores further activations (it "no longer
      partakes in the execution");
    - a process's round — write, read, update — is atomic with respect to
      other steps.

    {e The unfinished mask.}  When [n <= Sys.int_size - 1] an engine keeps
    the set of processes that have not returned (asleep or working) as a
    bitmask, bit [p] for process [p], updated where statuses change: every
    bit is set by {!Make.create}, a process's bit is cleared by the round
    in which it returns and set again by {!Make.reset}, and {!Make.restore}
    rewrites the bits of the processes it rewrites.  It equals a scan of
    {!Make.status} after every operation, and makes {!Make.unfinished_mask}
    and {!Make.all_returned} O(1) and {!Make.activate_mask} O(popcount) of
    the processes that step.  Wider engines keep the O(n) status scans of
    the list API, and the mask entry points raise there.

    {e The segment cache.}  A step changes only the processes it steps
    (paper §2.1), and a masked engine makes its snapshot loop pay for
    those alone:
    - every step marks the processes it steps, once per step;
    - {!Make.restore} of the configuration restored last (the same
      physical value) rewrites only the processes stepped since that
      restore; any other configuration, and every restore after a
      {!Make.reset}, is copied whole;
    - the engine caches each process's framed key segment and the
      segment's hash.  A segment is stale once its process is stepped
      or rewritten, and every segment is stale after {!Make.reset} or a
      full restore.  {!Make.key_probe} and {!Make.canonical_probe}
      re-encode only the stale ones.
    The invariant: after every operation, a segment that is not stale
    equals the encoding of its process's live status, state and
    register.  So a probe reads every process's segment from the cache,
    in any order: {!Make.key_probe} in process order,
    {!Make.canonical_probe} in the order of each candidate permutation.
    Wider engines re-encode every segment and copy every restore. *)

module Make (P : Protocol.S) : sig
  type t

  type event = {
    time : int;
    activated : int list;  (** the working processes that actually took a round *)
    returned : (int * P.output) list;  (** processes whose stopping condition fired *)
    resets : (int * int) list;
        (** recovery events [(p, fresh_ident)] recorded by {!reset};
            empty for every [activate] step *)
  }

  val create : ?record_trace:bool -> Asyncolor_topology.Graph.t -> idents:int array -> t
  (** [create g ~idents] sets up one process per node of [g], all asleep,
      process [p] holding input identifier [idents.(p)].
      @raise Invalid_argument if [Array.length idents <> Graph.n g]. *)

  val graph : t -> Asyncolor_topology.Graph.t
  val n : t -> int
  val time : t -> int
  (** Number of [activate] steps executed so far. *)

  val ident : t -> int -> int
  val status : t -> int -> P.output Status.t
  val state : t -> int -> P.state
  (** Current private state (the last one before return for a returned
      process).  @raise Invalid_argument if the process is still asleep. *)

  val public : t -> int -> P.register option
  (** Current register content, [None] for [⊥]. *)

  val activations : t -> int -> int
  (** Number of rounds process [p] has performed while working. *)

  val max_activations : t -> int
  val unfinished : t -> int list
  (** Sorted list of processes that have not returned (asleep or working). *)

  val all_returned : t -> bool
  (** O(1) when [n t <= Sys.int_size - 1] (a test of the unfinished mask), an O(n) status scan otherwise. *)

  val outputs : t -> P.output option array

  val activate : t -> int list -> unit
  (** [activate t set] executes one time step with activation set [set].
      Input contract (shared with {!activate_mask}):
      - {e out-of-range} indices ([p < 0] or [p >= n t]) raise
        [Invalid_argument] {e before} the engine mutates — time does not
        advance and nobody wakes up;
      - {e duplicate} indices are coalesced: a process activates at most
        once per step, however many times it appears in [set];
      - indices of {e returned} processes are ignored (the paper's "no
        longer partakes in the execution").
      Asleep processes in [set] wake up (their state becomes
      [init ~ident]) and take their first round within this very step. *)

  val activate_mask : t -> int -> unit
  (** [activate_mask t mask] is [activate t set] for the set whose members
      are the set bits of [mask] (bit [p] = process [p]) — the packed
      entry point of the run-core layer.  Observably identical to the
      list version on equal sets (returned processes drop out, ascending
      activation order) but allocation-free per step unless a trace is
      recorded, which is what the exhaustive explorer's hot loop needs.
      Shares the input contract of {!activate}: a mask naming a process
      outside [\[0, n t)] (a negative mask, or any set bit at position
      [>= n t]) raises [Invalid_argument] before the engine mutates.
      @raise Invalid_argument when [n t > Sys.int_size - 1] (the mask
      cannot name every process). *)

  val unfinished_mask : t -> int
  (** {!unfinished} as a bitmask, in O(1).  @raise Invalid_argument when
      [n t > Sys.int_size - 1]. *)

  val reset : t -> int -> ident:int -> unit
  (** [reset t p ~ident] is the {e recovery event} of the dynamic model
      (the churn layer's kernel primitive): the process on node [p] —
      crashed, returned or still working — is replaced by a brand-new one
      that holds input identifier [ident], sits asleep in its initial
      state, and whose register reads as [None] ([⊥]) again until its
      first activation.  Neighbours observe the change through their
      ordinary shared-register reads; no out-of-band signal exists.  The
      activation counter of [p] restarts at [0], so wait-freedom bounds
      are per incarnation.  Freshness of [ident] — no collision with the
      identifiers of live processes — is the {e caller's} contract (use
      {!Asyncolor_workload.Idents.fresh}); the engine installs it blindly.
      Recorded as a {!event} with a singleton [resets] field when tracing.
      Note that configurations snapshotted {e before} a reset still carry
      the old incarnation: {!restore} rewinds states and registers but
      identifiers are input data and are {e not} part of a snapshot, so
      interleaving [reset] with snapshot/restore loops is only sound if
      the caller replays resets in order (the churn session engine never
      restores across a reset).
      @raise Invalid_argument if [p] is outside [\[0, n t)], before any
      mutation. *)

  val set_monitor : t -> (t -> unit) -> unit
  (** Install a callback invoked after every [activate]; used to assert
      execution invariants (e.g. Lemma 4.5) at every time step. *)

  val trace : t -> event list
  (** Events in chronological order ([create ~record_trace:true] only). *)

  val pp_spacetime : Format.formatter -> t -> unit
  (** ASCII space-time diagram of the recorded trace: one row per time
      step, one column per process; [·] idle, [#] performed a round,
      [R] returned at that step, [_] already returned.  Requires
      [record_trace:true]. *)

  val pp_snapshot : Format.formatter -> t -> unit
  (** Render the full configuration (status, state, register per node). *)

  (** {1 Configuration snapshots}

      A configuration records an execution point: per-process status,
      private state and register content, plus the observers — the time
      step and the per-process activation counters.

      The {e restore contract}: {!restore} rewinds the engine to the
      execution point in full, observers included, so a snapshot/restore
      loop (explorer, adaptive adversary) can never leak activation
      counts or time from one explored branch into another.

      {e Configuration identity} ({!config_compare}, {!config_key}) is
      narrower: it covers only the process-visible part (status, state,
      register) and deliberately ignores the observers — two points of an
      execution with equal visible parts are indistinguishable to every
      process, which is what makes cycle detection in the configuration
      graph sound.  Traces and monitors are part of neither. *)

  type config

  val snapshot : t -> config
  val restore : t -> config -> unit
  (** [restore t c] rewinds statuses, states, registers, the time counter
      and the per-process activation counters to their values at
      [snapshot], and sets the unfinished mask from the restored statuses
      (a configuration does not store it).  The recorded trace and the
      monitor are left alone.  When [c] is the configuration [t] restored
      last and no {!reset} came since, only the processes stepped since
      then are rewritten: O(popcount) of them instead of O(n).  The result
      is the same either way. *)

  val config_compare : config -> config -> int
  (** Total order on the process-visible part of configurations
      (structural; time and activation counters are ignored — see the
      identity note above).  Requires [P.state] and [P.register] to be
      pure data (no functions, no cycles), which holds for every protocol
      in this repository. *)

  val config_unfinished : config -> int list

  val config_unfinished_mask : config -> int
  (** {!config_unfinished} as a bitmask (bit [p] = process [p]).
      @raise Invalid_argument when the mask cannot name every process. *)

  val config_outputs : config -> P.output option array

  (** {1 Packed configuration keys}

      The run-core layer interns configurations through a packed integer
      key built by the protocol's {!Protocol.S.encode_state} family
      instead of polymorphic comparison over boxed option arrays.  Key
      equality coincides with [config_compare x y = 0] whenever the
      encoders are injective (the {!Protocol.S} contract). *)

  type key

  val config_key : config -> key
  (** Pack the process-visible part of [c] into a flat, hashable key
      (observers excluded, exactly like {!config_compare}). *)

  val key : t -> key
  (** [key t] packs the live engine's process-visible part: it equals
      [config_key (snapshot t)] (same data, same hash) without building
      the snapshot.  It is [key_copy (key_probe t)]. *)

  val key_probe : t -> key
  (** [key_probe t] is {!key} without the copy: its data is a buffer
      owned by [t], which the next operation on [t] may overwrite.  So a
      probe is valid until the next engine operation, and it is for
      lookups only: a table must store [key_copy] of it.  The explorer
      looks up every successor with a probe and copies it only on a miss,
      so a duplicate copies no key data.  It re-encodes only the stale
      segments (see the segment cache above).  Like every other engine
      operation, it is for one domain at a time. *)

  val canonical_probe : t -> int array array -> key * int * int * int
  (** [canonical_probe t group] canonicalises the live configuration
      over [group], a duplicate-free group of process permutations given
      as arrays of length [n t]: among the candidate keys, the key of
      {!config_permute} of the live configuration by [sigma] for each
      [sigma] in [group], it picks the lexicographically least, the
      first index attaining it winning ties.  It returns
      [(key, winner, orbit, unfinished)]:
      - [key], a probe ({!key_probe}'s lifetime rule) whose data and
        hash are those of the winner's key;
      - [winner], the winner's index in [group];
      - [orbit], the number of distinct candidate keys, computed as
        [|group| / ties] (orbit-stabiliser; exact because [group] is a
        group and key equality is configuration equality);
      - [unfinished], the representative's unfinished mask: bit [q] is
        set iff process [group.(winner).(q)] has not returned.

      It works on the segment cache alone: it re-encodes the stale
      segments and compares the candidates in place over the cached
      ones.  A segment is self-delimiting, so two different segments
      differ inside the shorter one, and two candidates compare as their
      first differing pair of segments: the probe ranks the [n]
      segments once and compares candidates as sequences of ranks.  It
      folds the winner's hash from the cached segment hashes in the
      winner's order, and writes the winner's ints and nothing else.  With the identity alone in [group] it is
      {!key_probe} plus the unfinished mask.  It equals the explorer's
      [canonicalize] of [snapshot t] on every output, which the
      symmetry tests check.
      @raise Invalid_argument when [n t > Sys.int_size - 1]. *)

  val key_copy : key -> key
  (** A key equal to its argument that shares no buffer with an engine. *)

  val key_hash : key -> int
  (** The polynomial hash [h <- 31 h + x] modulo 2{^62} over the key's
      ints, put through a 64-bit-style finaliser.  The polynomial part
      concatenates: the hash of [a @ b] is [hash a * 31^length b + hash b],
      so {!key_probe} combines cached segment hashes into exactly the hash
      {!config_key} and {!key_of_data} compute from the flat data. *)

  val key_equal : key -> key -> bool

  val key_data : key -> int array
  (** The packed payload of a key.  [key_of_data (key_data k)] is equal
      (and equi-hashed) to [k] — the round-trip the explorer's checkpoint
      format relies on to persist its intern table as flat int arrays. *)

  val key_of_data : int array -> key
  (** Rebuild a key from {!key_data} output (the hash is recomputed, so a
      checkpoint never has to trust a stored hash). *)

  val config_key_offsets : config -> key * int array
  (** [config_key_offsets c] is [(config_key c, offsets)], packed by the
      same per-process encoder pass: [offsets] has [n + 1] entries,
      starts at [0], is nondecreasing and ends at the key's length, and
      process [p]'s framed (status, state, register) segment is
      [key_data k] from [offsets.(p)] to [offsets.(p + 1)] (exclusive).
      So the key of [config_permute c sigma] is the concatenation of the
      slices [sigma.(0)], ..., [sigma.(n - 1)]: the explorer's symmetry
      layer compares permuted keys by walking these slices in place,
      without re-running the protocol encoders or building the permuted
      keys. *)

  val config_of_key_data : n:int -> ?len:int -> int array -> config
  (** [config_of_key_data ~n data] is the configuration of [n] processes
      whose key data ({!key_data}) is the first [len] integers of [data]
      (default: all of them), rebuilt by the protocol's decoders
      ({!Protocol.S.decode_state} and its siblings).  Its key equals the
      key it was read from, and it is {!config_compare}-equal to every
      configuration with that key whenever the decoders give back
      structurally equal values.

      A key holds only the process-visible part, so the observers of
      the result are zero: time 0 and every activation counter 0.  The
      explorer keeps its pending configurations as keys and rebuilds each
      with this function when it expands it, so nothing in exploration
      may read the observers of a configuration it expands: neither
      identity ({!config_compare}, {!config_key}), the cycle check, the
      worst-case DP (which counts activations along edges), nor a safety
      predicate.  A predicate that prints [time] in its message gets the
      distance from the last expanded configuration, not from the root.
      @raise Invalid_argument when the data is not the key of [n]
      processes: a bad tag or frame, too few integers, or integers left
      over. *)

  val config_permute : config -> int array -> config
  (** [config_permute c perm] is the configuration whose position [q]
      holds what [c] held at position [perm.(q)] (status, state, register
      and activation counter alike; time is preserved).  When [perm] is
      an automorphism of the topology that fixes the identifier
      assignment, the result is a reachable configuration of the same
      system — the orbit member the symmetry-reduced explorer picks
      representatives from.  @raise Invalid_argument if [perm]'s length
      differs from the process count (bijectivity is the caller's
      contract; see {!Asyncolor_topology.Graph.is_automorphism}). *)

  module Key_tbl : Hashtbl.S with type key = key
  (** Hash table over packed keys — the hash-consed configuration store
      of {!Asyncolor_check.Explorer}. *)

  (** {1 Running against an adversary} *)

  type run_result = {
    steps : int;  (** time steps consumed *)
    rounds : int;  (** max activations over all processes — the paper's round complexity *)
    activations_per_process : int array;
    outputs : P.output option array;
    all_returned : bool;  (** every process returned (no crashes, schedule long enough) *)
    schedule_ended : bool;  (** the adversary returned [None] (remaining processes crashed) *)
  }

  val run : ?max_steps:int -> t -> Adversary.t -> run_result
  (** Drive [t] with the adversary until every process returned, the
      adversary ends the schedule, or [max_steps] (default [1_000_000])
      time steps elapse.  The engine is left in its final configuration for
      inspection. *)
end
