(** An append-only log of ints in fixed-size chunks — the explorer's
    per-configuration tables.

    The words live in plain [int array] chunks of one power-of-two size.
    Growing the log adds a chunk and copies none it already has, so a
    log never holds two copies of its contents the way a doubling vector
    does at each resize, and the GC sees a few large blocks instead of
    one that keeps moving.  The chunks hold unboxed ints, so a store is
    a plain write with no GC write barrier.  Reads index the chunk with
    the high bits of the position and the word with the low bits.

    The first chunk is the exception that keeps small logs small: it
    starts at 1,024 words and doubles up to the chunk size, so a
    log of a few hundred words costs a few KiB, not a full chunk.

    Not thread-safe: one domain owns a log. *)

type t

val chunk_words_for : ?threshold_words:int -> unit -> int
(** The chunk size for a log that is cut every [threshold_words] words
    (a spill threshold): that threshold rounded up to a power of two,
    clamped to [[1024, 65536]].  65,536 words (512 KiB on a 64-bit
    host) without a threshold. *)

val create : ?chunk_words:int -> unit -> t
(** An empty log; it allocates nothing until the first {!push}.
    Default [chunk_words]: 65,536.
    @raise Invalid_argument unless [chunk_words] is a power of two. *)

val length : t -> int

val push : t -> int -> unit
(** Append one word. *)

val get : t -> int -> int
(** [get t i] reads word [i] in place.
    @raise Invalid_argument unless [0 <= i < length t]. *)

val iter_chunks : t -> (int array -> int -> unit) -> unit
(** [iter_chunks t f] calls [f chunk n] for each chunk in order, where
    the first [n] words of [chunk] are the log's next [n] words.  The
    chunk is the log's own storage: read it, do not keep it. *)

val bytes : t -> int
(** Bytes the log holds: every allocated chunk at capacity, plus the
    chunk table. *)
