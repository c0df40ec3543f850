(* A growable FIFO ring addressed by absolute position: pushes are
   numbered [start, start+1, ...] forever, drops advance the low end, and
   [get] takes the absolute position — so a client whose positions are
   meaningful ids (the explorer's dense config ids) needs no offset
   arithmetic.  Dropped slots are overwritten with the dummy so the ring
   never retains a popped element for the GC. *)

type 'a t = {
  mutable buf : 'a array;  (* length is a power of two *)
  mutable lo : int;  (* absolute position of the front *)
  mutable hi : int;  (* absolute position one past the back *)
  dummy : 'a;
}

let create ?(capacity = 16) ?(start = 0) ~dummy () =
  let cap = ref 16 in
  while !cap < capacity do
    cap := !cap * 2
  done;
  { buf = Array.make !cap dummy; lo = start; hi = start; dummy }

let get t p =
  if p < t.lo || p >= t.hi then
    invalid_arg
      (Printf.sprintf "Ring.get: position %d outside [%d, %d)" p t.lo t.hi);
  t.buf.(p land (Array.length t.buf - 1))

let grow t =
  let osz = Array.length t.buf in
  let nw = Array.make (2 * osz) t.dummy in
  for p = t.lo to t.hi - 1 do
    nw.(p land ((2 * osz) - 1)) <- t.buf.(p land (osz - 1))
  done;
  t.buf <- nw

let push t x =
  if t.hi - t.lo >= Array.length t.buf then grow t;
  t.buf.(t.hi land (Array.length t.buf - 1)) <- x;
  t.hi <- t.hi + 1

let drop t =
  if t.lo >= t.hi then invalid_arg "Ring.drop: empty";
  t.buf.(t.lo land (Array.length t.buf - 1)) <- t.dummy;
  t.lo <- t.lo + 1
