let of_sorted s =
  let rec scan next = function
    | [] -> next
    | x :: rest ->
        if x < next then scan next rest
        else if x = next then scan (next + 1) rest
        else next
  in
  scan 0 s

let of_list s = of_sorted (List.sort_uniq compare s)

let kth_free k taken =
  if k < 1 then invalid_arg "Mex.kth_free: k must be >= 1";
  let rec scan k candidate taken =
    match taken with
    | t :: rest when t < candidate -> scan k candidate rest
    | t :: rest when t = candidate -> scan k (candidate + 1) rest
    | _ -> if k = 1 then candidate else scan (k - 1) (candidate + 1) taken
  in
  scan k 0 (List.sort_uniq compare taken)
