module Make (H : Hashtbl.HashedType) = struct
  module Tbl = Hashtbl.Make (H)

  type 'a t = { tables : 'a Tbl.t array; mask : int }

  (* Shard count is rounded up to a power of two so [shard_of] is a mask,
     not a division — and, more importantly, so the key → shard map is a
     function of the key alone, independent of how many workers happen to
     run.  That independence is what lets callers prove determinism: the
     partition of keys never changes, only who owns each part. *)
  let shards_for want =
    let want = max 1 want in
    let s = ref 1 in
    while !s < want do
      s := 2 * !s
    done;
    !s

  let create ~shards n =
    let shards = shards_for shards in
    { tables = Array.init shards (fun _ -> Tbl.create n); mask = shards - 1 }

  let shards t = Array.length t.tables

  (* The shard comes from the high bits of the multiplicatively mixed
     hash.  Each shard's [Hashtbl] buckets on the {e low} bits of the raw
     hash, so taking the shard from those bits too would leave a shard
     only the buckets congruent to its own index: 1/16 of them at 16
     shards, with chains 16 times longer than the load factor says. *)
  let shard_of t k = ((H.hash k * 0x2545F4914F6CDD1D) lsr 40) land t.mask
  let find_opt t k = Tbl.find_opt t.tables.(shard_of t k) k
  let add t k v = Tbl.add t.tables.(shard_of t k) k v

  let find_opt_in t ~shard k = Tbl.find_opt t.tables.(shard) k
  let add_in t ~shard k v = Tbl.add t.tables.(shard) k v

  let length t =
    Array.fold_left (fun acc tbl -> acc + Tbl.length tbl) 0 t.tables

  let shard_lengths t = Array.map Tbl.length t.tables

  let iter f t = Array.iter (Tbl.iter f) t.tables
end

module Level_log = struct
  type t = {
    mutable closed : int array;
        (* word count of each closed (spilled) level, by level index *)
    mutable nclosed : int;
    tail : Int_log.t;  (* the resident open level *)
    mutable spilled : int;  (* total words across closed levels *)
    threshold : int option;
  }

  let create ?threshold_words () =
    (match threshold_words with
    | Some w when w < 0 -> invalid_arg "Level_log.create: negative threshold"
    | _ -> ());
    {
      closed = [||];
      nclosed = 0;
      tail =
        Int_log.create
          ~chunk_words:(Int_log.chunk_words_for ?threshold_words ())
          ();
      spilled = 0;
      threshold = threshold_words;
    }

  let of_array ?threshold_words a =
    let t = create ?threshold_words () in
    Array.iter (Int_log.push t.tail) a;
    t

  let push t x = Int_log.push t.tail x
  let resident_words t = Int_log.length t.tail
  let resident_bytes t = Int_log.bytes t.tail
  let spilled_words t = t.spilled
  let spilled_levels t = t.nclosed
  let length t = t.spilled + Int_log.length t.tail

  let get t i =
    if i < t.spilled then invalid_arg "Level_log.get: word is spilled";
    Int_log.get t.tail (i - t.spilled)

  let seal t =
    match t.threshold with
    | Some w when Int_log.length t.tail >= w && Int_log.length t.tail > 0 ->
        let level = t.nclosed in
        let data = Int_log.to_array t.tail in
        if level >= Array.length t.closed then begin
          let grown = Array.make (max 4 (2 * Array.length t.closed)) 0 in
          Array.blit t.closed 0 grown 0 t.nclosed;
          t.closed <- grown
        end;
        t.closed.(level) <- Array.length data;
        t.nclosed <- level + 1;
        t.spilled <- t.spilled + Array.length data;
        Int_log.clear t.tail;
        Some (level, data)
    | _ -> None

  (* Calls [f off data n] for each segment of the stream in order — the
     closed levels as fetched, then the tail chunk by chunk — where the
     first [n] words of [data] sit at stream offset [off]. *)
  let iter_stored ~fetch t f =
    let off = ref 0 in
    let emit data n =
      f !off data n;
      off := !off + n
    in
    for level = 0 to t.nclosed - 1 do
      let data = fetch ~level in
      if Array.length data <> t.closed.(level) then
        invalid_arg
          (Printf.sprintf
             "Level_log: fetched level %d has %d words, expected %d" level
             (Array.length data) t.closed.(level));
      emit data (Array.length data)
    done;
    Int_log.iter_chunks t.tail emit

  let iter_segments ~fetch t f = iter_stored ~fetch t (fun _ data n -> f data n)

  let to_array ~fetch t =
    let out = Array.make (length t) 0 in
    iter_stored ~fetch t (fun off data n -> Array.blit data 0 out off n);
    out

  let to_bigarray ~fetch t =
    let out =
      Bigarray.Array1.create Bigarray.int Bigarray.c_layout (length t)
    in
    iter_stored ~fetch t (fun off data n ->
        for i = 0 to n - 1 do
          out.{off + i} <- data.(i)
        done);
    out
end
