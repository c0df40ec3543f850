(* SplitMix64 (Steele, Lea, Flood 2014).  The generator is a 64-bit counter
   advanced by the golden-gamma constant; each output is a finalizing hash of
   the counter.  Splitting hands out the hash of the current counter as the
   seed of the child stream. *)

(* The counter lives unboxed in 8 bytes rather than in a [mutable int64]
   field: without flambda, every store of a fresh [int64] into a record
   field boxes it, i.e. one allocation per draw.  Reading and writing it
   through [Bytes.get/set_int64_ne], with [bits64] and [mix] inlined into
   the draw functions, keeps the arithmetic in registers. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state state =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 state;
  t

let create ~seed = of_state (mix (Int64.of_int seed))

let copy = Bytes.copy

let[@inline] bits64 t =
  let state = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 state;
  mix state

let split t = of_state (mix (bits64 t))

(* Rejection sampling on the top bits keeps the distribution uniform. *)
let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  let bound64 = Int64.of_int bound in
  (* Reject the partial final block to avoid modulo bias. *)
  let limit = Int64.(sub (sub max_int bound64) one) in
  let v = ref (-1) in
  while !v < 0 do
    let r = Int64.logand (bits64 t) Int64.max_int in
    let m = Int64.rem r bound64 in
    if Int64.sub r m <= limit then v := Int64.to_int m
  done;
  !v

let int_in t lo hi =
  if hi < lo then invalid_arg "Prng.int_in: empty range";
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (bits64 t) 1L = 1L

(* The counter stays in a register across the coins: one load and one
   store per call instead of per draw, and successive draws' mixes
   overlap. *)
let bool_mask t m =
  let state = ref (Bytes.get_int64_ne t 0) and rest = ref m and heads = ref 0 in
  while !rest <> 0 do
    let low = !rest land - !rest in
    rest := !rest lxor low;
    state := Int64.add !state golden_gamma;
    (* branch-free: the coin is random, so a branch would mispredict
       half the time *)
    let coin = Int64.to_int (Int64.logand (mix !state) 1L) in
    heads := !heads lor (low land -coin)
  done;
  Bytes.set_int64_ne t 0 !state;
  !heads

let float t x =
  let r = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  x *. (r /. 9007199254740992.0 (* 2^53 *))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  if Array.length a = 0 then invalid_arg "Prng.choose: empty array";
  a.(int t (Array.length a))

let sample_without_replacement t k n =
  if k < 0 || k > n then invalid_arg "Prng.sample_without_replacement";
  (* Floyd's algorithm: k iterations, set-backed. *)
  let module S = Set.Make (Int) in
  let set = ref S.empty in
  for j = n - k to n - 1 do
    let v = int t (j + 1) in
    set := if S.mem v !set then S.add j !set else S.add v !set
  done;
  S.elements !set
