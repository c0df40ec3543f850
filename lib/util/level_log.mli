(** An append-only log of graph edges as varint bytes, whose closed
    prefix can leave the heap — the explorer's adjacency stream.

    {b Encoding.}  An edge of row [uid] is its activation mask, then
    [zigzag (target - uid)], then, at stride 3, the index of an
    automorphism, each as unsigned LEB128 ({!Varint}).  Masks and most
    targets' distances from their row are small, so an edge takes a few
    bytes where the int encoding it replaces took two or three words.
    The bytes live in fixed power-of-two [Bytes] chunks.  An edge never
    straddles two chunks: one that does not fit starts the next chunk,
    and the rest of the previous one is zeroed.  A mask is never 0, so a
    zero byte where an edge could start is that padding, and readers
    skip it.  Growth appends a chunk and copies none.

    {b Offsets.}  Every byte has a stable absolute offset in the stream:
    the closed levels' bytes end to end, then the resident tail's chunks
    (each full chunk with its padding).  {!offset} is where the next
    edge goes; the explorer records it at the end of each row, so a row
    is the byte range between two recorded offsets.  Closing a level
    never renumbers a byte.

    {b Levels.}  At caller-chosen safe boundaries ({!seal}) the tail is
    closed once it holds [threshold_words] pushed entries — an edge
    counts as its stride, the word count of the int encoding, so level
    cut points do not depend on the encoding.  The explorer's boundaries
    are the ends of its BFS levels, so a closed level is one or more
    whole BFS levels: exactly one at threshold 0.  The log keeps only the
    level's byte length and hands its bytes to the caller to persist
    (the explorer writes them through {!Asyncolor_resilience.Spill});
    the tail's chunks are kept and refilled.  Reassembly streams the
    closed levels back through a caller-supplied [fetch], so this module
    never touches the filesystem.

    {b Reading.}  A {!cursor} decodes one row at a time into its own
    mutable fields and allocates nothing: in place from the resident
    chunks, or from a flat reassembly ({!reassemble}).

    Not thread-safe: one domain owns a log. *)

(** Zigzag LEB128: the varint codec of this log and of {!Intern}'s
    arena.  [zigzag] maps small negative and positive ints to small
    non-negative ones; an unsigned LEB128 varint is 7 bits a byte, low
    bits first, the top bit set on every byte but the last.  The code is
    injective and prefix-free. *)
module Varint : sig
  val put : Bytes.t -> int -> int -> int
  (** [put b pos z] writes [z] at [pos] and returns the position after
      it.  The caller ensures [b] has room (at most 9 bytes). *)

  val put_ints : Bytes.t -> int -> int array -> int -> int
  (** [put_ints b pos data len] writes [data.(0)] to [data.(len - 1)],
      each zigzagged, and returns the position after them: a sequence's
      elements without its length.  The caller ensures [b] has room
      ([9 * len] bytes always suffice).
      @raise Invalid_argument when [len] is not within [data]. *)

  val read : Bytes.t -> int ref -> int
  (** The value at [!p], advancing [p] past it. *)

  (** {2 Sequences}

      An int sequence as its length, then each element zigzagged — the
      layout of an {!Intern} payload. *)

  val seq_size : int array -> int
  val put_seq : Bytes.t -> int -> int array -> int

  val seq_length : Bytes.t -> int -> int
  (** The length prefix at that position.
      @raise Invalid_argument when the rest of the bytes cannot hold that
      many elements. *)

  val read_seq : Bytes.t -> int -> int array -> int
  (** [read_seq b pos dst] decodes the sequence into [dst] from index 0
      and returns the position just past it: its bytes are the slice
      from [pos] to the result.
      @raise Invalid_argument when [dst] is too short. *)
end

type t

val create : ?threshold_words:int -> stride:int -> unit -> t
(** An empty log of edges of [stride] 2 (mask, target) or 3 (mask,
    target, automorphism index); it allocates nothing until the first
    {!push}.  Its chunk is [threshold_words] bytes rounded up to a power
    of two, clamped to [[1024, 65536]]; 65,536 without a threshold.
    Without [threshold_words], {!seal} never closes a level.
    @raise Invalid_argument on a negative threshold or another stride. *)

val push : t -> uid:int -> mask:int -> target:int -> perm:int -> unit
(** Append an edge of row [uid].  [perm] is ignored at stride 2, where
    cursors read it as 0.
    @raise Invalid_argument when [mask] is 0. *)

val offset : t -> int
(** The absolute offset of the next edge: bytes in closed levels plus
    the tail's extent. *)

val bytes : t -> int
(** Bytes the resident tail holds: every allocated chunk at capacity,
    plus the chunk table. *)

val spilled_levels : t -> int

val seal : t -> (int * Bytes.t) option
(** Close the tail as level [spilled_levels t] if it holds at least the
    threshold's entries, returning [(level, bytes)] for the caller to
    persist: a fresh copy of the tail's bytes, its full chunks whole.
    [None] when the tail is below threshold, empty, or no threshold was
    given.  Call only where every edge pushed so far is final. *)

val iter_segments :
  fetch:(level:int -> Bytes.t) -> t -> (Bytes.t -> int -> unit) -> unit
(** [iter_segments ~fetch t f] calls [f data n] for each piece of the
    stream in order — each closed level as [fetch] returns it, then each
    chunk of the resident tail — where the first [n] bytes of [data] are
    the stream's next [n] bytes.  A tail chunk is the log's own storage:
    read it, do not keep it past the next push.
    @raise Invalid_argument when a fetched level's length is not the
    sealed one (the cheap second line of defence behind the spill file's
    checksum). *)

type flat = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t
(** A whole stream as off-heap bytes: byte [i] sits at offset [i]. *)

val reassemble : fetch:(level:int -> Bytes.t) -> t -> flat
(** The stream, closed levels included, in a bigarray the GC neither
    scans nor accounts.
    @raise Invalid_argument as {!iter_segments}. *)

val flat_of_segments : Bytes.t array -> flat
(** The concatenation of segments that {!iter_segments} produced. *)

(** {1 Cursors} *)

type cursor = private {
  mutable mask : int;
  mutable target : int;
  mutable perm : int;  (** 0 at stride 2 *)
  mutable pos : int;  (** the offset after the edge just read *)
  mutable stop : int;
  mutable uid : int;
  c_stride : int;
  src : source;
}
(** The edge last read by {!next}, in fields a caller reads directly. *)

and source

val cursor : t -> cursor
(** A cursor reading the log's resident bytes in place. *)

val flat_cursor : stride:int -> flat -> cursor
(** A cursor reading a reassembled stream of edges of that stride.
    @raise Invalid_argument on a stride other than 2 or 3. *)

val seek : cursor -> uid:int -> int -> int -> unit
(** [seek c ~uid start stop] positions [c] on row [uid], the edges
    between offsets [start] and [stop].
    @raise Invalid_argument when the cursor reads a log and [start] lies
    in a closed level. *)

val next : cursor -> bool
(** Decode the row's next edge into the cursor's fields; [false], with
    the fields unchanged, at the row's end. *)
