(** Lifecycle of a process in an execution.

    Every process starts [Asleep]; its first activation wakes it
    ([Working]); fulfilling the stopping condition makes it [Returned].
    A crash is not a status: a crashed process is simply one the schedule
    stops activating (it stays [Asleep] or [Working] forever). *)

type 'output t = Asleep | Working | Returned of 'output

val is_returned : 'o t -> bool

val output : 'o t -> 'o option
(** [output s] is [Some o] iff [s = Returned o]. *)

val pp : (Format.formatter -> 'o -> unit) -> Format.formatter -> 'o t -> unit
