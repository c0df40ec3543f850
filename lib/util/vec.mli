(** Growable arrays (amortised O(1) push), the backing store of the
    run-core layer: the hash-consed configuration store and adjacency
    lists of the explorer grow through this module instead of rehashing
    [Hashtbl]s keyed by dense integer ids.

    A [dummy] element fills the unused capacity (OCaml arrays cannot be
    partially initialised without it); it is never observable through the
    API. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
val length : 'a t -> int

val get : 'a t -> int -> 'a
(** @raise Invalid_argument when out of bounds. *)

val set : 'a t -> int -> 'a -> unit
(** @raise Invalid_argument when out of bounds. *)

val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a
(** Remove and return the last element (the slot is reset to [dummy] so
    no value is retained).  @raise Invalid_argument when empty. *)

val to_array : 'a t -> 'a array
(** Fresh array of the first [length t] elements. *)
