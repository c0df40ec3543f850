type summary = {
  count : int;
  min : int;
  max : int;
  mean : float;
  stddev : float;
  p50 : int;
  p95 : int;
  p99 : int;
}

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  if q < 0.0 || q > 1.0 then invalid_arg "Stats.percentile: q out of range";
  let rank = int_of_float (ceil (q *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

let summarize_array a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.summarize: empty";
  let sorted = Array.copy a in
  Array.sort compare sorted;
  let sum = Array.fold_left ( + ) 0 a in
  let mean = float_of_int sum /. float_of_int n in
  let var =
    (* summed over the sorted copy, so the float sum does not depend
       on the sample's order *)
    Array.fold_left
      (fun acc x -> acc +. ((float_of_int x -. mean) ** 2.0))
      0.0 sorted
    /. float_of_int n
  in
  {
    count = n;
    min = sorted.(0);
    max = sorted.(n - 1);
    mean;
    stddev = sqrt var;
    p50 = percentile sorted 0.5;
    p95 = percentile sorted 0.95;
    p99 = percentile sorted 0.99;
  }

let summarize l = summarize_array (Array.of_list l)

let pp_summary ppf s =
  Format.fprintf ppf "n=%d min=%d p50=%d p95=%d p99=%d max=%d mean=%.2f sd=%.2f"
    s.count s.min s.p50 s.p95 s.p99 s.max s.mean s.stddev

let linear_fit points =
  let n = List.length points in
  if n < 2 then invalid_arg "Stats.linear_fit: need >= 2 points";
  let fn = float_of_int n in
  let sx = List.fold_left (fun acc (x, _) -> acc +. x) 0.0 points in
  let sy = List.fold_left (fun acc (_, y) -> acc +. y) 0.0 points in
  let sxx = List.fold_left (fun acc (x, _) -> acc +. (x *. x)) 0.0 points in
  let sxy = List.fold_left (fun acc (x, y) -> acc +. (x *. y)) 0.0 points in
  let denom = (fn *. sxx) -. (sx *. sx) in
  if Float.abs denom < 1e-12 then invalid_arg "Stats.linear_fit: degenerate x values";
  let a = ((fn *. sxy) -. (sx *. sy)) /. denom in
  let b = (sy -. (a *. sx)) /. fn in
  (a, b)
