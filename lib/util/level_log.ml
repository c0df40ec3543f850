module Varint = struct
  let zigzag x = (x lsl 1) lxor (x asr (Sys.int_size - 1))
  let unzigzag z = (z lsr 1) lxor -(z land 1)

  (* Byte length of [z] as unsigned LEB128 (the top bit of a negative int
     counts as bit 62 of an unsigned 63-bit number). *)
  let size z =
    let z = ref z and n = ref 1 in
    while !z lsr 7 <> 0 do
      z := !z lsr 7;
      incr n
    done;
    !n

  let put b pos z =
    let z = ref z and p = ref pos in
    while !z lsr 7 <> 0 do
      Bytes.unsafe_set b !p (Char.unsafe_chr (!z land 127 lor 128));
      z := !z lsr 7;
      incr p
    done;
    Bytes.unsafe_set b !p (Char.unsafe_chr !z);
    !p + 1

  (* One-byte varints (small values, nearly every element of a
     configuration key) return at the first test. *)
  let read b p =
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

  (* Match [z]'s LEB128 bytes against [b] at [pos]: the position after
     them, or [-1] at the first differing byte.  Prefix-freeness makes a
     full match of the bytes a match of the value. *)
  let match_at b pos z =
    let z = ref z and p = ref pos in
    while !p >= 0 && !z lsr 7 <> 0 do
      if Char.code (Bytes.get b !p) = !z land 127 lor 128 then begin
        z := !z lsr 7;
        incr p
      end
      else p := -1
    done;
    if !p >= 0 && Char.code (Bytes.get b !p) = !z then !p + 1 else -1

  let seq_size data =
    let n = Array.length data in
    let total = ref (size n) in
    for i = 0 to n - 1 do
      total := !total + size (zigzag (Array.unsafe_get data i))
    done;
    !total

  let put_seq b pos data =
    let n = Array.length data in
    let p = ref (put b pos n) in
    for i = 0 to n - 1 do
      p := put b !p (zigzag (Array.unsafe_get data i))
    done;
    !p

  (* The length prefix goes first, so a stored sequence that [data] is a
     proper prefix of (or vice versa) differs there, and the element loop
     never reads past the stored sequence's end. *)
  let equal_seq b pos data =
    let n = Array.length data in
    let p = ref (match_at b pos n) in
    let i = ref 0 in
    while !p >= 0 && !i < n do
      p := match_at b !p (zigzag (Array.unsafe_get data !i));
      incr i
    done;
    !p >= 0

  (* Every element takes at least one byte, so a length the rest of [b]
     cannot hold is damage, not a sequence. *)
  let seq_length b pos =
    let p = ref pos in
    let n = read b p in
    if n > Bytes.length b - !p then invalid_arg "Varint: sequence runs past its bytes";
    n

  let seq_end b pos =
    let p = ref pos in
    let n = read b p in
    for _ = 1 to n do
      while Char.code (Bytes.get b !p) >= 128 do
        incr p
      done;
      incr p
    done;
    !p

  let read_seq b pos dst =
    let p = ref pos in
    let n = read b p in
    if Array.length dst < n then invalid_arg "Varint.read_seq: destination too short";
    for i = 0 to n - 1 do
      Array.unsafe_set dst i (unzigzag (read b p))
    done;
    n
end

type flat = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  stride : int;
  shift : int;  (* log2 of the chunk size *)
  mask : int;  (* chunk size - 1 *)
  mutable chunks : Bytes.t array;  (* allocated chunks, kept across seals *)
  mutable nalloc : int;
  mutable cur : int;  (* the chunk being written *)
  mutable pos : int;  (* write position in it *)
  mutable words : int;  (* entries pushed since the last seal *)
  mutable closed : int array;  (* byte length of each closed level *)
  mutable nclosed : int;
  mutable spilled : int;  (* bytes across closed levels *)
  threshold : int option;
}

let max_chunk_bytes = 65536
let min_chunk_bytes = 1024

let chunk_bytes_for ?threshold_words () =
  match threshold_words with
  | None -> max_chunk_bytes
  | Some w ->
      let s = ref min_chunk_bytes in
      while !s < w && !s < max_chunk_bytes do
        s := 2 * !s
      done;
      !s

let create ?threshold_words ~stride () =
  (match threshold_words with
  | Some w when w < 0 -> invalid_arg "Level_log.create: negative threshold"
  | _ -> ());
  if stride <> 2 && stride <> 3 then invalid_arg "Level_log.create: stride must be 2 or 3";
  let size = chunk_bytes_for ?threshold_words () in
  let shift = ref 0 in
  while 1 lsl !shift < size do
    incr shift
  done;
  {
    stride;
    shift = !shift;
    mask = size - 1;
    chunks = [||];
    nalloc = 0;
    cur = 0;
    pos = 0;
    words = 0;
    closed = [||];
    nclosed = 0;
    spilled = 0;
    threshold = threshold_words;
  }

let offset t = t.spilled + (t.cur lsl t.shift) + t.pos
let spilled_levels t = t.nclosed

let bytes t =
  ((t.mask + 1) * t.nalloc) + (Sys.word_size / 8 * Array.length t.chunks)

(* Growth appends a chunk and copies no byte; a chunk allocated by an
   earlier level is reused. *)
let add_chunk t =
  if t.nalloc = Array.length t.chunks then begin
    let spine = Array.make (max 4 (2 * t.nalloc)) Bytes.empty in
    Array.blit t.chunks 0 spine 0 t.nalloc;
    t.chunks <- spine
  end;
  t.chunks.(t.nalloc) <- Bytes.make (t.mask + 1) '\000';
  t.nalloc <- t.nalloc + 1

(* An edge never straddles two chunks: one that does not fit in the rest
   of the current chunk starts the next, and the rest is zeroed.  An edge
   starts with its mask, which is never 0, so a zero byte where an edge
   could start is padding, and a reader skips it. *)
let push t ~uid ~mask ~target ~perm =
  if mask = 0 then invalid_arg "Level_log.push: zero mask";
  let d = Varint.zigzag (target - uid) in
  let size =
    Varint.size mask + Varint.size d
    + if t.stride = 3 then Varint.size perm else 0
  in
  if t.cur < t.nalloc && t.pos + size > t.mask + 1 then begin
    Bytes.fill t.chunks.(t.cur) t.pos (t.mask + 1 - t.pos) '\000';
    t.cur <- t.cur + 1;
    t.pos <- 0
  end;
  if t.cur = t.nalloc then add_chunk t;
  let b = t.chunks.(t.cur) in
  let p = Varint.put b t.pos mask in
  let p = Varint.put b p d in
  t.pos <- (if t.stride = 3 then Varint.put b p perm else p);
  t.words <- t.words + t.stride

(* The tail's bytes in stream order: every full chunk whole (its padding
   included), the last one up to the write position. *)
let iter_tail t f =
  for c = 0 to t.cur - 1 do
    f t.chunks.(c) (t.mask + 1)
  done;
  if t.pos > 0 then f t.chunks.(t.cur) t.pos

let seal t =
  match t.threshold with
  | Some w when t.words >= w && t.words > 0 ->
      let level = t.nclosed in
      let data = Bytes.create ((t.cur lsl t.shift) + t.pos) in
      let at = ref 0 in
      iter_tail t (fun chunk n ->
          Bytes.blit chunk 0 data !at n;
          at := !at + n);
      if level >= Array.length t.closed then begin
        let grown = Array.make (max 4 (2 * Array.length t.closed)) 0 in
        Array.blit t.closed 0 grown 0 t.nclosed;
        t.closed <- grown
      end;
      t.closed.(level) <- Bytes.length data;
      t.nclosed <- level + 1;
      t.spilled <- t.spilled + Bytes.length data;
      t.cur <- 0;
      t.pos <- 0;
      t.words <- 0;
      Some (level, data)
  | _ -> None

let iter_segments ~fetch t f =
  for level = 0 to t.nclosed - 1 do
    let data = fetch ~level in
    if Bytes.length data <> t.closed.(level) then
      invalid_arg
        (Printf.sprintf "Level_log: fetched level %d has %d bytes, expected %d"
           level (Bytes.length data) t.closed.(level));
    f data (Bytes.length data)
  done;
  iter_tail t f

let blit_into (out : flat) at data n =
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set out (at + i) (Bytes.unsafe_get data i)
  done

let flat_of_segments segs =
  let total = Array.fold_left (fun a s -> a + Bytes.length s) 0 segs in
  let out = Bigarray.Array1.create Bigarray.char Bigarray.c_layout total in
  let at = ref 0 in
  Array.iter
    (fun s ->
      blit_into out !at s (Bytes.length s);
      at := !at + Bytes.length s)
    segs;
  out

let reassemble ~fetch t =
  let out = Bigarray.Array1.create Bigarray.char Bigarray.c_layout (offset t) in
  let at = ref 0 in
  iter_segments ~fetch t (fun data n ->
      blit_into out !at data n;
      at := !at + n);
  out

(* --- cursors ---------------------------------------------------------- *)

type source = Log of t | Flat of flat

type cursor = {
  mutable mask : int;
  mutable target : int;
  mutable perm : int;
  mutable pos : int;
  mutable stop : int;
  mutable uid : int;
  c_stride : int;
  src : source;
}

let cursor t =
  { mask = 0; target = 0; perm = 0; pos = 0; stop = 0; uid = 0;
    c_stride = t.stride; src = Log t }

let flat_cursor ~stride flat =
  if stride <> 2 && stride <> 3 then invalid_arg "Level_log.flat_cursor: stride must be 2 or 3";
  { mask = 0; target = 0; perm = 0; pos = 0; stop = 0; uid = 0;
    c_stride = stride; src = Flat flat }

let seek c ~uid start stop =
  (match c.src with
  | Log t when start < t.spilled -> invalid_arg "Level_log.seek: offset is spilled"
  | _ -> ());
  c.uid <- uid;
  c.pos <- start;
  c.stop <- stop

(* The readers keep their position in [c.pos] and allocate nothing: each
   varint is decoded in a loop over plain locals. *)
let read_log c b base =
  let o = c.pos - base in
  let x = Char.code (Bytes.get b o) in
  if x < 128 then begin
    c.pos <- c.pos + 1;
    x
  end
  else begin
    let v = ref (x land 127) and s = ref 7 and p = ref (o + 1) in
    let x = ref (Char.code (Bytes.get b !p)) in
    while !x >= 128 do
      v := !v lor ((!x land 127) lsl !s);
      s := !s + 7;
      incr p;
      x := Char.code (Bytes.get b !p)
    done;
    c.pos <- base + !p + 1;
    !v lor (!x lsl !s)
  end

let read_flat c (ba : flat) =
  let x = Char.code (Bigarray.Array1.get ba c.pos) in
  if x < 128 then begin
    c.pos <- c.pos + 1;
    x
  end
  else begin
    let v = ref (x land 127) and s = ref 7 and p = ref (c.pos + 1) in
    let x = ref (Char.code (Bigarray.Array1.get ba !p)) in
    while !x >= 128 do
      v := !v lor ((!x land 127) lsl !s);
      s := !s + 7;
      incr p;
      x := Char.code (Bigarray.Array1.get ba !p)
    done;
    c.pos <- !p + 1;
    !v lor (!x lsl !s)
  end

let next_log c t =
  (* Skip padding: zero bytes at a chunk's end, before an edge that
     starts the next chunk. *)
  let rel = ref (c.pos - t.spilled) in
  while Bytes.get t.chunks.(!rel lsr t.shift) (!rel land t.mask) = '\000' do
    incr rel
  done;
  let base = t.spilled + (!rel land lnot t.mask) in
  let b = t.chunks.(!rel lsr t.shift) in
  c.pos <- t.spilled + !rel;
  c.mask <- read_log c b base;
  c.target <- c.uid + Varint.unzigzag (read_log c b base);
  c.perm <- (if c.c_stride = 3 then read_log c b base else 0)

let next_flat c ba =
  while Bigarray.Array1.get ba c.pos = '\000' do
    c.pos <- c.pos + 1
  done;
  c.mask <- read_flat c ba;
  c.target <- c.uid + Varint.unzigzag (read_flat c ba);
  c.perm <- (if c.c_stride = 3 then read_flat c ba else 0)

let next c =
  if c.pos >= c.stop then false
  else begin
    (match c.src with Log t -> next_log c t | Flat ba -> next_flat c ba);
    true
  end
