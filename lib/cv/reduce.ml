let f x y =
  if x < 0 || y < 0 then invalid_arg "Reduce.f: negative input";
  let cut = min (Bits.length x) (Bits.length y) in
  let i = match Bits.first_differing_bit x y with
    | Some k -> min cut k
    | None -> cut
  in
  (2 * i) + Bits.bit x i

let iterations_to_small ?(limit = 10) x =
  if x < 0 then invalid_arg "Reduce.iterations_to_small: negative input";
  let envelope z = (2 * Bits.length z) + 1 in
  let rec loop count z =
    if z < limit then count
    else begin
      let z' = envelope z in
      if z' >= z then count + 1 (* fixed point reached at/above the limit *)
      else loop (count + 1) z'
    end
  in
  loop 0 x
