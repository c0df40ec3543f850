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

    {!find_opt} and {!add} route to the owning shard and are safe for
    single-domain use. *)

module Make (H : Hashtbl.HashedType) : sig
  type 'a t

  val create : shards:int -> int -> 'a t
  (** [create ~shards n] makes a table of [shards] (rounded up to a power
      of two, at least 1) shards, each with initial capacity [n]. *)

  val find_opt : 'a t -> H.t -> 'a option
  val add : 'a t -> H.t -> 'a -> unit
end
