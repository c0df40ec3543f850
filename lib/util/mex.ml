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
