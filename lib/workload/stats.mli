(** Summary statistics over integer samples (activation counts, rounds). *)

type summary = {
  count : int;
  min : int;
  max : int;
  mean : float;
  stddev : float;
  p50 : int;
  p95 : int;
  p99 : int;
}

val summarize : int list -> summary
(** @raise Invalid_argument on the empty list. *)

val pp_summary : Format.formatter -> summary -> unit

val linear_fit : (float * float) list -> float * float
(** Least-squares [y = a*x + b]; returns [(a, b)].  Used to verify the
    O(n)-vs-O(log* n) growth shapes.  @raise Invalid_argument with fewer
    than two points. *)
