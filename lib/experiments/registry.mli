(** All experiments, in index order. *)

type entry = {
  id : string;
  title : string;
  run : ?quick:bool -> unit -> Outcome.t;
}

val find : string -> entry option
(** Lookup by case-insensitive id, e.g. "e4". *)

val run_all : ?quick:bool -> ?jobs:int -> unit -> Outcome.t list
(** Run every experiment — across [jobs] domains when [jobs > 1] — and
    print the outcomes in registry order.  Experiments are pure cells
    (all printing happens here, after the runs), so the output is
    byte-identical for every [jobs] value.  [jobs] defaults to [1]. *)
