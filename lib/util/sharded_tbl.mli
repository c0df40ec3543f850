(** A hash table split into independent shards by key hash.  The
    explorer interns through {!Intern} instead; this table remains the
    baseline the benchmark's intern probe times.

    Shard ownership is a pure function of the key: the high bits of its
    mixed hash, masked to the shard count (rounded up to a power of two).
    They are independent of the low bits each shard's buckets use, and
    the partition of the key space is fixed at creation and never
    depends on scheduling.  A
    group of workers that (a) agrees on the shard count and (b) lets each
    worker touch only its own shards needs no locks at all: two workers
    never access the same underlying [Hashtbl].

    The plain {!find_opt}/{!add} entry points route to the owning shard and
    are safe for single-domain use; the [_in] variants take the shard
    explicitly for the partitioned-parallel pattern (the caller computed
    {!shard_of} already and is responsible for staying inside its shard). *)

module Make (H : Hashtbl.HashedType) : sig
  type 'a t

  val create : shards:int -> int -> 'a t
  (** [create ~shards n] makes a table of [shards] (rounded up to a power
      of two, at least 1) shards, each with initial capacity [n]. *)

  val shards : 'a t -> int
  val shard_of : 'a t -> H.t -> int

  val find_opt : 'a t -> H.t -> 'a option
  val add : 'a t -> H.t -> 'a -> unit

  val find_opt_in : 'a t -> shard:int -> H.t -> 'a option
  (** [find_opt_in t ~shard k] looks [k] up in [shard] directly.  Only
      meaningful when [shard = shard_of t k]. *)

  val add_in : 'a t -> shard:int -> H.t -> 'a -> unit

  val length : 'a t -> int
  (** Total bindings over all shards. *)

  val shard_lengths : 'a t -> int array
  (** Bindings per shard, by shard index — occupancy skew is the number
      that tells whether the key hash is spreading the intern load
      (exported as a gauge by the explorer's obs instrumentation).
      Single-domain use only, like {!iter}. *)

  val iter : (H.t -> 'a -> unit) -> 'a t -> unit
  (** Iterate every binding, shard by shard, in unspecified order (the
      explorer's checkpoint writer re-indexes by value, so the order does
      not leak into any output).  Single-domain use only. *)
end

(** An append-only log of machine words whose closed prefix can leave the
    heap — the explorer's adjacency stream.

    The explorer's intern store must stay resident (every successor is
    looked up against it) and grows with the configurations explored.
    The append-only adjacency stream of already-merged BFS levels, 2–3
    words per transition, is the part that can leave: it is never read
    again until the post-BFS analyses.  A [Level_log] keeps
    an open {e tail} level in a resident vector and, at caller-chosen safe
    boundaries ({!seal}), closes the tail once it crosses the spill
    threshold: the log forgets the payload and remembers only its word
    count, handing the caller the snapshot to persist (the explorer writes
    it through {!Asyncolor_resilience.Spill} — possibly on a background
    executor task while the pipeline keeps expanding).  Reassembly
    ({!to_array}/{!to_bigarray}) streams the closed levels back through a
    caller-supplied [fetch], so this module never touches the filesystem
    itself and stays deterministic and trivially testable. *)
module Level_log : sig
  type t

  val create : ?threshold_words:int -> unit -> t
  (** A fresh log.  Without [threshold_words], {!seal} never closes a
      level and the log degenerates to a plain resident vector.
      @raise Invalid_argument on a negative threshold. *)

  val of_array : ?threshold_words:int -> int array -> t
  (** A log whose tail starts as a copy of the array — how a resumed
      explorer rebuilds its adjacency stream from a checkpoint. *)

  val push : t -> int -> unit
  (** Append one word to the resident tail. *)

  val length : t -> int
  (** Total words, closed levels included — the stable absolute offset of
      the next {!push}, which is what the explorer stores in its CSR
      row-offset array. *)

  val get : t -> int -> int
  (** [get t i] reads the word at absolute position [i] in place, with
      no copy — valid only for resident words, so on a log that has
      never spilled it reads the whole stream.
      @raise Invalid_argument when [i] lies in a closed level or at or
      past {!length}. *)

  val resident_words : t -> int
  val spilled_words : t -> int
  val spilled_levels : t -> int

  val seal : t -> (int * int array) option
  (** Close the tail as level [spilled_levels t] if it has reached the
      threshold, returning [(level, words)] for the caller to persist —
      the log itself drops the payload.  [None] when the tail is below
      threshold, empty, or no threshold was given.  Call only at points
      where every word pushed so far is final. *)

  val to_array : fetch:(level:int -> int array) -> t -> int array
  (** Reassemble the whole stream; [fetch] supplies each closed level's
      words (it must return exactly the sealed snapshot —
      @raise Invalid_argument on a length mismatch, the cheap second line
      of defence behind the spill file's checksum). *)

  val to_bigarray :
    fetch:(level:int -> int array) ->
    t ->
    (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
  (** Like {!to_array} but into off-heap storage, so the post-BFS
      analyses of a spilled run never pull the full stream back into the
      OCaml heap (the GC neither scans nor accounts it). *)
end
