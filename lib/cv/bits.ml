let check_nat name z = if z < 0 then invalid_arg (name ^ ": negative input")

let length z =
  check_nat "Bits.length" z;
  let rec loop acc z = if z = 0 then acc else loop (acc + 1) (z lsr 1) in
  loop 0 z

let bit z k =
  check_nat "Bits.bit" z;
  check_nat "Bits.bit" k;
  if k >= 62 then 0 else (z lsr k) land 1

let first_differing_bit x y =
  check_nat "Bits.first_differing_bit" x;
  check_nat "Bits.first_differing_bit" y;
  if x = y then None
  else
    let d = x lxor y in
    let rec loop k = if d lsr k land 1 = 1 then k else loop (k + 1) in
    Some (loop 0)
