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

  (* The shard comes from the high bits of the multiplicatively mixed
     hash.  Each shard's [Hashtbl] buckets on the {e low} bits of the raw
     hash, so taking the shard from those bits too would leave a shard
     only the buckets congruent to its own index: 1/16 of them at 16
     shards, with chains 16 times longer than the load factor says. *)
  let shard_of t k = ((H.hash k * 0x2545F4914F6CDD1D) lsr 40) land t.mask
  let find_opt t k = Tbl.find_opt t.tables.(shard_of t k) k
  let add t k v = Tbl.add t.tables.(shard_of t k) k v
end
