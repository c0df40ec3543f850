type 'output t = Asleep | Working | Returned of 'output

let is_returned = function Returned _ -> true | Asleep | Working -> false
let output = function Returned o -> Some o | Asleep | Working -> None

let pp pp_output ppf = function
  | Asleep -> Format.pp_print_string ppf "asleep"
  | Working -> Format.pp_print_string ppf "working"
  | Returned o -> Format.fprintf ppf "returned(%a)" pp_output o
