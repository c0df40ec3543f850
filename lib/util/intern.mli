(** An append-only intern store for int sequences — the explorer's
    configuration index.

    Each interned sequence gets a dense id, [0, 1, 2, ...] in insertion
    order, and is stored once, compactly, in three parts:

    - {b Payload.}  The sequence is written as LEB128 varint bytes: its
      length, then each element zigzag-encoded ({!Level_log.Varint}, the
      codec the adjacency stream uses too).  Zigzag LEB128 is
      injective and prefix-free, so two stored sequences are equal iff
      their bytes are.  The bytes live in fixed-size [Bytes] chunks
      (a sequence never straddles two), so the arena grows by adding a
      chunk and never copies what it holds.
    - {b Offsets.}  The start of each id's bytes, one int per id.
    - {b Slots.}  An open-addressed table (power-of-two size, linear
      probing, load at most 1/2) of one int per slot: a tag taken from
      the high bits of the caller's hash, and the id.  A lookup probes
      slots, and compares bytes only where the tag matches; nothing is
      allocated, and growing the table rehashes from the tags alone.

    There is one lookup path, over bytes: a caller hands the store a
    sequence already encoded ({!intern_encoded}), as the engine's
    probes write it, and a hit is a compare of that slice against the
    stored bytes, eight bytes at a time.

    A small-valued sequence costs about one byte per element plus its
    share of the offset and slot arrays — against a boxed array, a
    record and a hash-table cell per key in a [Hashtbl].  The caller
    supplies the hash (the explorer passes the configuration key's), so
    equal sequences must be given equal hashes.

    Not thread-safe: one domain owns a store. *)

type t

val create : ?capacity:int -> unit -> t
(** An empty store sized for [capacity] (default 1024) sequences before
    its first growth. *)

val length : t -> int
(** Number of interned sequences — the id the next new one gets. *)

val intern_encoded : t -> hash:int -> Bytes.t -> pos:int -> len:int -> int
(** [intern_encoded t ~hash src ~pos ~len] is the id of the sequence
    whose encoding ({!Level_log.Varint.put_seq}, the arena's own layout)
    is the [len] bytes of [src] at [pos], interning it first if it is
    new: a new sequence gets id [length t] (so the caller tells a miss by
    comparing with [length t] taken before the call).  It decodes
    nothing: a hit is a byte compare against the stored bytes, a miss a
    blit of the slice into the arena; the slice is never retained.
    [hash] is the caller's hash of the sequence, equal for equal
    sequences (the explorer's is the configuration key's).  The slice
    must be one well-formed encoding, as {!Level_log.Varint.put_seq}
    writes it.
    @raise Invalid_argument when the slice is not inside [src].
    @raise Failure past [2^30] sequences (the tag/id slot layout). *)

val seq_length : t -> int -> int
(** The length of the sequence with that id, read from its prefix.
    @raise Invalid_argument when the id is out of range. *)

val blit : t -> int -> int array -> unit
(** [blit t id dst] decodes the sequence with that id into
    [dst.(0 .. seq_length t id - 1)], allocating nothing: how the
    explorer reads a pending configuration's key into a reused buffer.
    @raise Invalid_argument when the id is out of range or [dst] is
    shorter than the sequence. *)

(** {1 Images}

    An image is the store's content as plain data — the arena's bytes
    and each id's offset into them — for a checkpoint to marshal as it
    is, without decoding one sequence.  The slot table is not part of
    it: {!of_image} rebuilds it from hashes it recomputes. *)

type image = {
  im_chunks : Bytes.t array;  (** the arena, chunk by chunk *)
  im_starts : int array;
      (** by id: [(chunk lsl 32) lor offset] of its bytes *)
}

val image : t -> image
(** The store's image.  Every chunk but the last is shared with the
    store, not copied (the store never writes bytes it has handed out);
    the last is copied up to its used length, and the offsets up to
    {!length}. *)

val of_image : image -> hash:(int array -> int) -> t
(** The store whose ids and sequences are the image's: id [i] holds the
    sequence at [im_starts.(i)].  [hash] must be the hash the store's
    lookups are given ({!intern_encoded}'s [~hash]); it is recomputed for
    every sequence from its decoded ints, never stored, and each
    sequence probes the rebuilt table with its own arena bytes.  New sequences go to a fresh chunk.
    @raise Invalid_argument when an offset lies outside the arena, a
    varint runs past its chunk, or two ids hold equal sequences. *)

val bytes : t -> int
(** Bytes the store holds: arena chunks, offset and slot arrays, all at
    allocated capacity. *)

val compares : t -> int
(** Byte compares made by lookups so far.  A lookup compares only at
    slots whose tag matches its hash, so with well-spread hashes this is
    about the number of hits — the count that shows the tags at work. *)
