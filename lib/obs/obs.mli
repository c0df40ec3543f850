(** Structured spans, counters and gauges — the tracing/metrics sink.

    A sink ([t]) collects three kinds of facts about a run:

    - {b Spans}: named intervals with a lane (Chrome "thread" id, by
      default the executing domain), an {e explicit} parent scope and
      optional string arguments.  Parenthood is passed by the caller, not
      inferred from thread-local state, so a span opened on one domain
      can own work recorded on another (the pool lanes do exactly this).
    - {b Counters}: monotonically accumulated integers, sharded per
      domain ({!Counter.add} touches one atomic cell chosen by the
      executing domain's id) and merged on read — safe and cheap under
      {!Asyncolor_util.Executor} fan-outs.
    - {b Gauges}: last-write or running-max integers for level-style
      measurements (frontier width, shard occupancy).

    Every sink is either {e enabled} (created by {!create}, holding a
    {!Clock.t}) or the shared {!disabled} singleton, on which every
    operation is a near-free no-op — instrumented code threads a [t]
    unconditionally and pays nothing unless the user asked for a trace.
    Timestamps come only from the injected clock, so a {!Clock.virtual_}
    sink produces byte-deterministic exports (see {!Trace_export}). *)

type t

type span
(** An open interval, returned by {!begin_span} and closed by
    {!end_span}.  A value, not a handle into hidden state: dropping one
    on an error path leaks nothing (the span is simply never recorded). *)

type span_record = {
  r_sid : int;  (** unique id, allocation order *)
  r_parent : int;  (** parent span id, or [-1] at a root *)
  r_tid : int;  (** lane (Chrome thread id) *)
  r_name : string;
  r_start : int64;  (** clock reading at {!begin_span}, ns *)
  r_dur : int64;  (** non-negative duration, ns *)
  r_args : (string * string) list;
}

val create : ?clock:Clock.t -> ?spans:bool -> unit -> t
(** A fresh enabled sink.  Default clock: {!Clock.monotonic}.  With
    [~spans:false] it keeps only counters, gauges and lane names: every
    span call runs its body and records nothing, so a metrics-only run
    does not hold one record per task and wait interval (default
    [true]). *)

val disabled : t
(** The no-op sink: never reads a clock, never allocates a record. *)

val enabled : t -> bool

val now : t -> int64
(** One clock read; [0L] on {!disabled} (no syscall). *)

(** {1 Spans} *)

val begin_span :
  t ->
  ?tid:int ->
  ?parent:span ->
  ?args:(string * string) list ->
  string ->
  span
(** Open a span.  [tid] defaults to the executing domain's id; [parent]
    defaults to none (a root span). *)

val end_span : t -> span -> unit
(** Close and record the span.  Duration is clamped to be
    non-negative. *)

val span :
  t ->
  ?tid:int ->
  ?parent:span ->
  ?args:(string * string) list ->
  string ->
  (unit -> 'a) ->
  'a
(** Scoped form: open, run, close — the span is recorded even when the
    body raises. *)

val interval :
  t ->
  ?tid:int ->
  ?parent:span ->
  ?args:(string * string) list ->
  string ->
  start:int64 ->
  unit
(** Record an interval whose start was sampled earlier with {!now} and
    which ends now — for measurements that bracket blocking operations
    ({!Asyncolor_util.Executor}'s worker-wait lanes). *)

val set_lane : t -> tid:int -> string -> unit
(** Give a lane a human name, exported as Chrome [thread_name]
    metadata.  Last write per lane wins. *)

(** {1 Counters and gauges} *)

module Counter : sig
  type t

  val add : t -> int -> unit
  (** Atomic add to the shard owned by the executing domain. *)

  val incr : t -> unit

end

module Gauge : sig
  type t

  val set : t -> int -> unit
  val max_ : t -> int -> unit  (** keep the running maximum *)

end

val counter : t -> string -> Counter.t
(** The counter registered under [name], created at zero on first use.
    Same name, same counter.  On {!disabled} the returned counter
    ignores writes. *)

val gauge : t -> string -> Gauge.t

(** {1 Reading back} *)

val spans : t -> span_record list
(** Completed spans, in completion order. *)

val metrics : t -> (string * int) list
(** All counters and gauges with their current merged values, sorted by
    name — the flat metrics table both exporters consume. *)

val lanes : t -> (int * string) list
(** Named lanes, sorted by lane id. *)
