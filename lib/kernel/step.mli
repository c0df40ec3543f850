(** Result of one asynchronous round of a process. *)

type ('state, 'output) t =
  | Continue of 'state  (** The stopping condition is not met; adopt this state. *)
  | Return of 'output  (** Terminate and output; the process takes no further steps. *)
