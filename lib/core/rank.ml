type t = Fin of int | Inf

let zero = Fin 0
let succ = function Fin k -> Fin (k + 1) | Inf -> Inf
let is_finite = function Fin _ -> true | Inf -> false

let compare a b =
  match (a, b) with
  | Fin x, Fin y -> Int.compare x y
  | Fin _, Inf -> -1
  | Inf, Fin _ -> 1
  | Inf, Inf -> 0

let ( <= ) a b = compare a b <= 0
let min a b = if a <= b then a else b

let encode emit = function
  | Fin k ->
      emit 0;
      emit k
  | Inf -> emit 1

let decode data pos =
  match data.(pos) with
  | 0 -> Fin data.(pos + 1)
  | 1 -> Inf
  | tag -> invalid_arg (Printf.sprintf "Rank.decode: tag %d" tag)

let encoded_length = function Fin _ -> 2 | Inf -> 1

let pp ppf = function
  | Fin k -> Format.pp_print_int ppf k
  | Inf -> Format.pp_print_string ppf "∞"
