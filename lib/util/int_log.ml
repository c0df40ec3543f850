let max_chunk_words = 65536
let min_chunk_words = 1024

let pow2_at_least n =
  let s = ref 1 in
  while !s < n do
    s := 2 * !s
  done;
  !s

let chunk_words_for ?threshold_words () =
  match threshold_words with
  | None -> max_chunk_words
  | Some w -> min max_chunk_words (max min_chunk_words (pow2_at_least w))

type t = {
  shift : int;  (* log2 of the chunk size *)
  mask : int;  (* chunk size - 1 *)
  mutable chunks : int array array;  (* [chunks.(0 .. nchunks - 1)] in use *)
  mutable nchunks : int;
  mutable cap : int;  (* words writable before the next growth *)
  mutable len : int;
}

let create ?(chunk_words = max_chunk_words) () =
  if chunk_words < 1 || chunk_words land (chunk_words - 1) <> 0 then
    invalid_arg "Int_log.create: chunk_words must be a power of two";
  let shift = ref 0 in
  while 1 lsl !shift < chunk_words do
    incr shift
  done;
  { shift = !shift; mask = chunk_words - 1; chunks = [||]; nchunks = 0;
    cap = 0; len = 0 }

let length t = t.len

(* The first chunk starts at [min_chunk_words] and doubles up to the chunk
   size, so a log that stays small costs a few KiB, not a full chunk; the
   copies this makes add up to less than one chunk over the log's life.
   Every later growth appends a full chunk and copies no word. *)
let grow t =
  let size = t.mask + 1 in
  if t.nchunks = 0 then begin
    t.chunks <- [| Array.make (min size min_chunk_words) 0 |];
    t.nchunks <- 1;
    t.cap <- Array.length t.chunks.(0)
  end
  else if t.cap < size then begin
    let grown = Array.make (min size (2 * t.cap)) 0 in
    Array.blit t.chunks.(0) 0 grown 0 t.len;
    t.chunks.(0) <- grown;
    t.cap <- Array.length grown
  end
  else begin
    if t.nchunks = Array.length t.chunks then begin
      let spine = Array.make (2 * t.nchunks) [||] in
      Array.blit t.chunks 0 spine 0 t.nchunks;
      t.chunks <- spine
    end;
    t.chunks.(t.nchunks) <- Array.make size 0;
    t.nchunks <- t.nchunks + 1;
    t.cap <- t.cap + size
  end

let push t x =
  let i = t.len in
  if i >= t.cap then grow t;
  Array.unsafe_set (Array.unsafe_get t.chunks (i lsr t.shift)) (i land t.mask) x;
  t.len <- i + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Int_log.get: index out of bounds";
  Array.unsafe_get (Array.unsafe_get t.chunks (i lsr t.shift)) (i land t.mask)

let iter_chunks t f =
  let size = t.mask + 1 in
  let c = ref 0 in
  while !c * size < t.len do
    f t.chunks.(!c) (min size (t.len - (!c * size)));
    incr c
  done

let bytes t =
  let words = ref (Array.length t.chunks) in
  for c = 0 to t.nchunks - 1 do
    words := !words + Array.length t.chunks.(c)
  done;
  !words * (Sys.word_size / 8)
