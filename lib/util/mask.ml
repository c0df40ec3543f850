let popcount m =
  let c = ref 0 and m = ref m in
  while !m <> 0 do
    incr c;
    m := !m land (!m - 1)
  done;
  !c

(* By halving the isolated lowest bit. *)
let lowest_bit m =
  let b = ref (m land -m) and i = ref 0 in
  if !b land 0xFFFF_FFFF = 0 then begin
    i := !i + 32;
    b := !b lsr 32
  end;
  if !b land 0xFFFF = 0 then begin
    i := !i + 16;
    b := !b lsr 16
  end;
  if !b land 0xFF = 0 then begin
    i := !i + 8;
    b := !b lsr 8
  end;
  if !b land 0xF = 0 then begin
    i := !i + 4;
    b := !b lsr 4
  end;
  if !b land 0x3 = 0 then begin
    i := !i + 2;
    b := !b lsr 2
  end;
  if !b land 0x1 = 0 then incr i;
  !i

let nth_bit m k =
  let m = ref m in
  for _ = 1 to k do
    m := !m land (!m - 1)
  done;
  lowest_bit !m
