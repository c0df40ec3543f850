(* Arena chunk size.  A sequence longer than this gets a chunk of its own
   size, so the only bound on a sequence is [Bytes] itself. *)
let chunk_bytes = 65536

(* A slot is [(tag lsl 32) lor (id + 1)], 0 when empty.  The tag is the
   top 31 bits of the 63-bit product of the hash with an odd constant, so
   a caller's hash with weak high bits still spreads; a table of [2^k]
   slots indexes by the tag's top [k] bits, which is what lets growth
   rehash from the slots alone.  [max_count] keeps the table at or below
   [2^31] slots, so [k] never exceeds the tag's width. *)
let tag_bits = 31
let id_mask = 0xFFFF_FFFF
let max_count = 1 lsl (tag_bits - 1)
let tag_of hash = (hash * 0x1E37_79B9_7F4A_7C15) lsr 32

type t = {
  mutable chunks : Bytes.t array;  (* [chunks.(0 .. nchunks - 1)] in use *)
  mutable nchunks : int;
  mutable pos : int;  (* write position in the last chunk *)
  mutable arena : int;  (* bytes allocated across the chunks *)
  mutable starts : int array;  (* by id: [(chunk lsl 32) lor offset] *)
  mutable count : int;
  mutable slots : int array;
  mutable shift : int;  (* [tag lsr shift] is a slot index *)
  mutable compares : int;
}

let log2_ceil n =
  let k = ref 0 in
  while 1 lsl !k < n do
    incr k
  done;
  !k

let create ?(capacity = 1024) () =
  let capacity = max 16 capacity in
  let k = min tag_bits (log2_ceil (2 * capacity)) in
  {
    chunks = [||];
    nchunks = 0;
    pos = 0;
    arena = 0;
    starts = Array.make capacity 0;
    count = 0;
    slots = Array.make (1 lsl k) 0;
    shift = tag_bits - k;
    compares = 0;
  }

let length t = t.count
let compares t = t.compares

let bytes t =
  t.arena + (8 * (Array.length t.starts + Array.length t.slots + t.nchunks))

(* --- lookup ----------------------------------------------------------- *)

module Varint = Level_log.Varint

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

(* Are the stored bytes of [id] the [len] bytes of [src] at [pos]?  A
   stored sequence is one code word of a prefix-free code, and so is the
   slice, so equal bytes over the slice's length are equal sequences.
   Eight bytes a compare, then the tail byte by byte; both ranges lie
   inside their buffers ([intern_encoded] checks [src]'s), so the reads
   are unchecked. *)
let equal_at t id src pos len =
  t.compares <- t.compares + 1;
  let s = t.starts.(id) in
  let b = t.chunks.(s lsr 32) and off = s land id_mask in
  off + len <= Bytes.length b
  &&
  let i = ref 0 in
  while !i + 8 <= len && (get64u b (off + !i) : int64) = get64u src (pos + !i) do
    i := !i + 8
  done;
  while !i < len && Bytes.unsafe_get b (off + !i) = Bytes.unsafe_get src (pos + !i) do
    incr i
  done;
  !i = len

(* The slot holding the slice, or the empty slot where it would go: a
   slot index [i] with [slots.(i) = 0] on a miss.  A loop, not a local
   recursive function, so a lookup allocates no closure. *)
let probe t tag src pos len =
  let slots = t.slots in
  let mask = Array.length slots - 1 in
  let i = ref (tag lsr t.shift) in
  let found = ref false in
  while not !found do
    let s = Array.unsafe_get slots !i in
    if s = 0 || (s lsr 32 = tag && equal_at t ((s land id_mask) - 1) src pos len)
    then found := true
    else i := (!i + 1) land mask
  done;
  !i

(* --- growth ----------------------------------------------------------- *)

let grow_slots t =
  let old = t.slots in
  let k = log2_ceil (2 * Array.length old) in
  let slots = Array.make (1 lsl k) 0 in
  let shift = tag_bits - k and mask = (1 lsl k) - 1 in
  Array.iter
    (fun s ->
      if s <> 0 then begin
        let i = ref ((s lsr 32) lsr shift) in
        while slots.(!i) <> 0 do
          i := (!i + 1) land mask
        done;
        slots.(!i) <- s
      end)
    old;
  t.slots <- slots;
  t.shift <- shift

(* Room for [size] more bytes: in the last chunk, or in a new one. *)
let reserve t size =
  if t.nchunks = 0 || t.pos + size > Bytes.length t.chunks.(t.nchunks - 1)
  then begin
    let chunk = Bytes.make (max chunk_bytes size) '\000' in
    if t.nchunks = Array.length t.chunks then begin
      let chunks = Array.make (max 8 (2 * t.nchunks)) Bytes.empty in
      Array.blit t.chunks 0 chunks 0 t.nchunks;
      t.chunks <- chunks
    end;
    t.chunks.(t.nchunks) <- chunk;
    t.nchunks <- t.nchunks + 1;
    t.pos <- 0;
    t.arena <- t.arena + Bytes.length chunk
  end

(* A new id whose [size] bytes start at [t.pos] of the last chunk, which
   the caller then writes. *)
let append t size =
  if t.count >= max_count then failwith "Intern: too many sequences";
  reserve t size;
  let id = t.count in
  if id = Array.length t.starts then begin
    let starts = Array.make (2 * id) 0 in
    Array.blit t.starts 0 starts 0 id;
    t.starts <- starts
  end;
  t.starts.(id) <- ((t.nchunks - 1) lsl 32) lor t.pos;
  t.count <- id + 1;
  id

(* Occupy the empty slot [i] with the id just appended. *)
let fill_slot t i tag id =
  t.slots.(i) <- (tag lsl 32) lor (id + 1);
  if 2 * t.count > Array.length t.slots then grow_slots t;
  id

let intern_encoded t ~hash src ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length src - len then
    invalid_arg "Intern.intern_encoded: slice outside its bytes";
  let tag = tag_of hash in
  let i = probe t tag src pos len in
  let s = t.slots.(i) in
  if s <> 0 then (s land id_mask) - 1
  else begin
    let id = append t len in
    Bytes.blit src pos t.chunks.(t.nchunks - 1) t.pos len;
    t.pos <- t.pos + len;
    fill_slot t i tag id
  end

(* --- decoding --------------------------------------------------------- *)

let check_id t id what =
  if id < 0 || id >= t.count then invalid_arg ("Intern." ^ what ^ ": id out of range")

let length_of t id =
  let s = t.starts.(id) in
  Varint.seq_length t.chunks.(s lsr 32) (s land id_mask)

let decode_into t id dst =
  let s = t.starts.(id) in
  ignore (Varint.read_seq t.chunks.(s lsr 32) (s land id_mask) dst : int)

let seq_length t id =
  check_id t id "seq_length";
  length_of t id

let blit t id dst =
  check_id t id "blit";
  decode_into t id dst

(* --- images ----------------------------------------------------------- *)

type image = { im_chunks : Bytes.t array; im_starts : int array }

(* Full chunks are shared, not copied: an image costs the offsets and
   the used part of the last chunk. *)
let image t =
  let im_chunks = Array.sub t.chunks 0 t.nchunks in
  if t.nchunks > 0 then
    im_chunks.(t.nchunks - 1) <- Bytes.sub im_chunks.(t.nchunks - 1) 0 t.pos;
  { im_chunks; im_starts = Array.sub t.starts 0 t.count }

let of_image { im_chunks; im_starts } ~hash =
  let count = Array.length im_starts in
  if count > max_count then invalid_arg "Intern.of_image: too many sequences";
  let t = create ~capacity:count () in
  let nchunks = Array.length im_chunks in
  t.chunks <- Array.copy im_chunks;
  t.nchunks <- nchunks;
  (* The last chunk is full as far as appends go: the next one opens a
     fresh chunk. *)
  t.pos <- (if nchunks = 0 then 0 else Bytes.length im_chunks.(nchunks - 1));
  t.arena <- Array.fold_left (fun a c -> a + Bytes.length c) 0 im_chunks;
  Array.iteri
    (fun id s ->
      let c = s lsr 32 and off = s land id_mask in
      if c >= nchunks || off >= Bytes.length im_chunks.(c) then
        invalid_arg "Intern.of_image: offset outside the arena";
      t.starts.(id) <- s;
      t.count <- id + 1;
      (* Reading the sequence checks its varints stay inside the chunk,
         and its end bounds the slice that probes for it. *)
      let data = Array.make (length_of t id) 0 in
      let len = Varint.read_seq im_chunks.(c) off data - off in
      let tag = tag_of (hash data) in
      let i = probe t tag im_chunks.(c) off len in
      if t.slots.(i) <> 0 then invalid_arg "Intern.of_image: duplicate sequence";
      t.slots.(i) <- (tag lsl 32) lor (id + 1);
      if 2 * t.count > Array.length t.slots then grow_slots t)
    im_starts;
  t
