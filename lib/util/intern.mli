(** An append-only intern store for int sequences — the explorer's
    configuration index.

    Each interned sequence gets a dense id, [0, 1, 2, ...] in insertion
    order, and is stored once, compactly, in three parts:

    - {b Payload.}  The sequence is written as LEB128 varint bytes: its
      length, then each element zigzag-encoded.  Zigzag LEB128 is
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

val intern : t -> hash:int -> int array -> int
(** The id of the sequence, interning it first if it is new: a new
    sequence gets id [length t] (so the caller tells a miss by comparing
    with [length t] taken before the call).  The array is copied into the
    arena, never retained.
    @raise Failure past [2^30] sequences (the tag/id slot layout). *)

val get : t -> int -> int array
(** The sequence with that id, decoded afresh.
    @raise Invalid_argument when the id is out of range. *)

val bytes : t -> int
(** Bytes the store holds: arena chunks, offset and slot arrays, all at
    allocated capacity. *)

val compares : t -> int
(** Byte compares made by lookups so far.  A lookup compares only at
    slots whose tag matches its hash, so with well-spread hashes this is
    about the number of hits — the count that shows the tags at work. *)
