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

(* --- varints ---------------------------------------------------------- *)

let zigzag x = (x lsl 1) lxor (x asr (Sys.int_size - 1))
let unzigzag z = (z lsr 1) lxor -(z land 1)

(* Byte length of [z] as unsigned LEB128 (the top bit of a negative int
   counts as bit 62 of an unsigned 63-bit number). *)
let uleb_size z =
  let z = ref z and n = ref 1 in
  while !z lsr 7 <> 0 do
    z := !z lsr 7;
    incr n
  done;
  !n

let put_uleb b pos z =
  let z = ref z and p = ref pos in
  while !z lsr 7 <> 0 do
    Bytes.unsafe_set b !p (Char.unsafe_chr (!z land 127 lor 128));
    z := !z lsr 7;
    incr p
  done;
  Bytes.unsafe_set b !p (Char.unsafe_chr !z);
  !p + 1

(* Match [z]'s LEB128 bytes against [b] at [pos]: the position after
   them, or [-1] at the first differing byte.  Prefix-freeness makes a
   full match of the bytes a match of the value. *)
let match_uleb b pos z =
  let z = ref z and p = ref pos in
  while !p >= 0 && !z lsr 7 <> 0 do
    if Char.code (Bytes.get b !p) = !z land 127 lor 128 then begin
      z := !z lsr 7;
      incr p
    end
    else p := -1
  done;
  if !p >= 0 && Char.code (Bytes.get b !p) = !z then !p + 1 else -1

(* --- lookup ----------------------------------------------------------- *)

(* Do the stored bytes of [id] encode [data]?  The length prefix goes
   first, so a stored sequence that [data] is a proper prefix of (or
   vice versa) differs there, and the element loop never reads past the
   stored sequence's end. *)
let equal_at t id data =
  t.compares <- t.compares + 1;
  let s = t.starts.(id) in
  let b = t.chunks.(s lsr 32) in
  let n = Array.length data in
  let p = ref (match_uleb b (s land id_mask) n) in
  let i = ref 0 in
  while !p >= 0 && !i < n do
    p := match_uleb b !p (zigzag (Array.unsafe_get data !i));
    incr i
  done;
  !p >= 0

(* The slot holding [data], or the empty slot where it would go: a slot
   index [i] with [slots.(i) = 0] on a miss.  A loop, not a local
   recursive function, so a lookup allocates no closure. *)
let probe t tag data =
  let slots = t.slots in
  let mask = Array.length slots - 1 in
  let i = ref (tag lsr t.shift) in
  let found = ref false in
  while not !found do
    let s = Array.unsafe_get slots !i in
    if s = 0 || (s lsr 32 = tag && equal_at t ((s land id_mask) - 1) data)
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

let append t data =
  let n = Array.length data in
  let size = ref (uleb_size n) in
  for i = 0 to n - 1 do
    size := !size + uleb_size (zigzag data.(i))
  done;
  reserve t !size;
  let id = t.count in
  if id = Array.length t.starts then begin
    let starts = Array.make (2 * id) 0 in
    Array.blit t.starts 0 starts 0 id;
    t.starts <- starts
  end;
  let c = t.nchunks - 1 in
  t.starts.(id) <- (c lsl 32) lor t.pos;
  let b = t.chunks.(c) in
  let p = ref (put_uleb b t.pos n) in
  for i = 0 to n - 1 do
    p := put_uleb b !p (zigzag data.(i))
  done;
  t.pos <- !p;
  t.count <- id + 1;
  id

let intern t ~hash data =
  let tag = tag_of hash in
  let i = probe t tag data in
  let s = t.slots.(i) in
  if s <> 0 then (s land id_mask) - 1
  else begin
    if t.count >= max_count then failwith "Intern: too many sequences";
    let id = append t data in
    t.slots.(i) <- (tag lsl 32) lor (id + 1);
    if 2 * t.count > Array.length t.slots then grow_slots t;
    id
  end

(* --- decoding --------------------------------------------------------- *)

let get t id =
  if id < 0 || id >= t.count then invalid_arg "Intern.get: id out of range";
  let s = t.starts.(id) in
  let b = t.chunks.(s lsr 32) in
  let p = ref (s land id_mask) in
  (* One-byte varints (small zigzagged values, nearly every element of a
     configuration key) return at the first test. *)
  let next () =
    let c = Char.code (Bytes.get b !p) in
    incr p;
    if c < 128 then c
    else begin
      let v = ref (c land 127) and shift = ref 7 and continue = ref true in
      while !continue do
        let c = Char.code (Bytes.get b !p) in
        incr p;
        v := !v lor ((c land 127) lsl !shift);
        shift := !shift + 7;
        continue := c land 128 <> 0
      done;
      !v
    end
  in
  let n = next () in
  let a = Array.make n 0 in
  for i = 0 to n - 1 do
    Array.unsafe_set a i (unzigzag (next ()))
  done;
  a
