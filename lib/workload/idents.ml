module Prng = Asyncolor_util.Prng

let increasing n = Array.init n Fun.id
let decreasing n = Array.init n (fun i -> n - 1 - i)

let zigzag n = Array.init n (fun i -> if i mod 2 = 0 then i / 2 else n + (i / 2))

let random_permutation prng n =
  let a = increasing n in
  Prng.shuffle prng a;
  a

let random_sparse prng ~n ~universe =
  if universe < n then invalid_arg "Idents.random_sparse: universe too small";
  Array.of_list (Prng.sample_without_replacement prng n universe)
  |> fun sorted ->
  Prng.shuffle prng sorted;
  sorted

let uniform ?(ident = 7) n = Array.make n ident

(* Consecutive identifiers share a long low-bit prefix, so the first
   differing bit — what Cole–Vishkin keys on — sits high. *)
let bit_adversarial n =
  Array.init n (fun i ->
      (* Gray code of i, shifted to make identifiers large. *)
      let gray = i lxor (i lsr 1) in
      (gray lsl 8) lor 0xAA)

(* Fresh-identifier allocator for recovery: deterministic (smallest
   candidate), so a replay needs no allocator state. *)
let fresh ~live ~universe =
  if universe <= 0 then invalid_arg "Idents.fresh: universe must be positive";
  let taken = Array.make universe false in
  List.iter (fun x -> if x >= 0 && x < universe then taken.(x) <- true) live;
  let c = ref 0 in
  while !c < universe && taken.(!c) do
    incr c
  done;
  if !c >= universe then invalid_arg "Idents.fresh: universe exhausted";
  !c

let is_injective a =
  let module S = Set.Make (Int) in
  let s = Array.fold_left (fun s x -> S.add x s) S.empty a in
  S.cardinal s = Array.length a

let longest_monotone_run a =
  let n = Array.length a in
  if n < 2 then 0
  else begin
    (* Walk the doubled cycle tracking the current run direction. *)
    let best = ref 0 in
    let run = ref 0 in
    let dir = ref 0 in
    for i = 0 to (2 * n) - 2 do
      let x = a.(i mod n) and y = a.((i + 1) mod n) in
      let d = compare y x in
      if d = !dir && d <> 0 then incr run
      else begin
        (* an edge between equal identifiers is in no strict run *)
        dir := d;
        run := if d = 0 then 0 else 1
      end;
      if !run > !best then best := !run
    done;
    min !best n
  end
