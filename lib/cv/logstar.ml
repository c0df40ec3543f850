let log_star x =
  if not (Float.is_finite x) then invalid_arg "Logstar.log_star: non-finite";
  let rec loop k x = if x <= 1.0 then k else loop (k + 1) (Float.log2 x) in
  loop 0 x

let log_star_int n =
  if n < 0 then invalid_arg "Logstar.log_star_int: negative";
  log_star (float_of_int n)
