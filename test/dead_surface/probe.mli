val used : int -> int
val unused : int -> int
