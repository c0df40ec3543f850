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
