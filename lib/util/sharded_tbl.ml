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
    tail : int Vec.t;  (* the resident open level *)
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
      tail = Vec.create ~dummy:0 ();
      spilled = 0;
      threshold = threshold_words;
    }

  let of_array ?threshold_words a =
    let t = create ?threshold_words () in
    Array.iter (Vec.push t.tail) a;
    t

  let push t x = Vec.push t.tail x
  let resident_words t = Vec.length t.tail
  let spilled_words t = t.spilled
  let spilled_levels t = t.nclosed
  let length t = t.spilled + Vec.length t.tail

  let seal t =
    match t.threshold with
    | Some w when Vec.length t.tail >= w && Vec.length t.tail > 0 ->
        let level = t.nclosed in
        let data = Vec.to_array t.tail in
        if level >= Array.length t.closed then begin
          let grown = Array.make (max 4 (2 * Array.length t.closed)) 0 in
          Array.blit t.closed 0 grown 0 t.nclosed;
          t.closed <- grown
        end;
        t.closed.(level) <- Array.length data;
        t.nclosed <- level + 1;
        t.spilled <- t.spilled + Array.length data;
        Vec.clear t.tail;
        Some (level, data)
    | _ -> None

  let iter_stored ~fetch t f =
    let off = ref 0 in
    for level = 0 to t.nclosed - 1 do
      let data = fetch ~level in
      if Array.length data <> t.closed.(level) then
        invalid_arg
          (Printf.sprintf
             "Level_log: fetched level %d has %d words, expected %d" level
             (Array.length data) t.closed.(level));
      f !off data;
      off := !off + Array.length data
    done;
    f !off (Vec.to_array t.tail)

  let to_array ~fetch t =
    let out = Array.make (length t) 0 in
    iter_stored ~fetch t (fun off data ->
        Array.blit data 0 out off (Array.length data));
    out

  let to_bigarray ~fetch t =
    let out =
      Bigarray.Array1.create Bigarray.int Bigarray.c_layout (length t)
    in
    iter_stored ~fetch t (fun off data ->
        for i = 0 to Array.length data - 1 do
          out.{off + i} <- data.(i)
        done);
    out
end
