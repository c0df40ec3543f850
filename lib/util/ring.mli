(** A growable FIFO ring addressed by {e absolute position}: element
    positions count up from [start] forever and never shift, so a client
    whose positions are meaningful ids — the explorer's dense
    configuration ids — indexes pending entries directly, no offset
    arithmetic.  The live window is [[lo, hi)]; {!push} appends at [hi],
    {!drop} retires the front (clearing the slot for the GC). *)

type 'a t

val create : ?capacity:int -> ?start:int -> dummy:'a -> unit -> 'a t
(** An empty ring whose first pushed element will be position [start]
    (default 0).  [dummy] fills unused slots. *)

val get : 'a t -> int -> 'a
(** [get t p] is the element at absolute position [p].
    @raise Invalid_argument outside [[lo, hi)]. *)

val push : 'a t -> 'a -> unit
(** Append at position [hi]. *)

val drop : 'a t -> unit
(** Retire the front element.
    @raise Invalid_argument when empty. *)
