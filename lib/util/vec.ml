type 'a t = { mutable data : 'a array; mutable len : int; dummy : 'a }

let create ?(capacity = 16) ~dummy () =
  { data = Array.make (max 1 capacity) dummy; len = 0; dummy }

let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get: index out of bounds";
  t.data.(i)

let set t i x =
  if i < 0 || i >= t.len then invalid_arg "Vec.set: index out of bounds";
  t.data.(i) <- x

let ensure_capacity t n =
  if n > Array.length t.data then begin
    let cap = ref (Array.length t.data) in
    while !cap < n do
      cap := 2 * !cap
    done;
    let data = Array.make !cap t.dummy in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end

let push t x =
  ensure_capacity t (t.len + 1);
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Vec.pop: empty";
  t.len <- t.len - 1;
  let x = t.data.(t.len) in
  t.data.(t.len) <- t.dummy;
  x

let to_array t = Array.sub t.data 0 t.len
