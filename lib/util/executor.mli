(** The async execution core: per-worker work-stealing deques, futures,
    and policy-driven in-flight windows — every parallel path in the repo
    (explorer BFS, fuzz campaigns, lockhunt slices, the sweep harness)
    runs on this one engine.

    {b Shape.}  An executor owns [jobs] Chase–Lev deques — one per worker
    domain plus one ([0]) for the submitting caller — and [jobs - 1]
    spawned domains.  {!submit} pushes a task onto the submitter's deque
    and returns a {!future}; idle workers pop their own deque LIFO and
    steal from everyone else's top FIFO (a lock-free CAS, no mutex on the
    steal path).  The caller's deque is drained from the {e top} by
    everybody — caller included, while it blocks in {!await} — so tasks
    submitted by the caller are {e dispatched in submission order}.  That
    FIFO dispatch is the executor's determinism anchor: batch failures
    report the lowest failing index (see {!map_result}) and the
    explorer's sequential id-merge stays byte-identical whatever the
    steal interleaving.

    {b Policies.}  {!policy} fixes how many tasks a batch or stream may
    keep in flight: [Serial] (one at a time, on the caller),
    [Synchronous] (a batch whole at once, fork-join; a stream
    [4 * jobs] tasks ahead),
    [Asynchronous {max_active; kappa}] (bounded window with backpressure; [kappa] additionally gates how
    early the explorer may overlap successive BFS levels — see
    {!Asyncolor_check.Explorer}).  Policy never changes {e results}, only
    scheduling: outputs are byte-identical across policies and [jobs].

    {b Failure.}  {!submit} wraps every task, so an exception from a task
    lands in its future and never reaches the worker loop.  Should a
    worker domain ever die some other way, {!shutdown}'s [Domain.join]
    re-raises its exception rather than hiding it.

    {b Observability} (all out-of-band, stdout untouched): every task
    runs under an ["exec.task"] span on the executing domain's lane
    (workers are named [exec-worker-N]); ["exec.tasks"],
    ["exec.steals"] and ["exec.backpressure"]
    counters accumulate per-domain sharded; ["exec.wait"] intervals
    record worker idle gaps and the ["exec.inflight_max"] gauge the
    widest batch window. *)

(** A lock-free work-stealing deque (Chase–Lev).  Owner pushes and pops
    at the bottom; any domain steals at the top through a CAS on a
    monotonic counter, so an element is handed out exactly once.
    Exposed for the linearizability tests; clients use the executor. *)
module Ws_deque : sig
  type 'a t

  val create : unit -> 'a t

  val push : 'a t -> 'a -> unit
  (** Owner only. *)

  val pop : 'a t -> 'a option
  (** Owner only: LIFO end.  [None] when empty. *)

  val steal : 'a t -> 'a option
  (** Any domain: FIFO end.  [None] only when the deque is empty —
      losing a CAS race to another thief retries internally. *)

  val length : 'a t -> int
  (** Snapshot size (racy under concurrent use, exact when quiescent). *)
end

type policy =
  | Serial  (** one task at a time, executed by the caller; no domains *)
  | Synchronous
      (** a whole batch in flight, join at the end — fork-join
          semantics; a stream keeps [4 * jobs] in flight
          ({!stream_window}), and the explorer barriers at every BFS
          level *)
  | Asynchronous of { max_active : int; kappa : float }
      (** at most [max_active] tasks in flight, submission stalls
          (counted as ["exec.backpressure"]) when the window is full;
          [kappa] ∈ [0, 1] is the fraction of BFS level [k] that must
          have merged before level [k+1] expansion may start *)

val asynchronous : ?max_active:int -> ?kappa:float -> jobs:int -> unit -> policy
(** Smart constructor: [max_active] defaults to [4 * jobs] and is clamped
    to at least 1; [kappa] (default [0.5]) is clamped into [[0, 1]]. *)

val policy_of_string :
  ?max_active:int -> ?kappa:float -> jobs:int -> string -> policy
(** ["serial"], ["sync"]/["synchronous"], ["async"]/["asynchronous"]
    (case-insensitive); the CLI surface of [--exec-policy].
    @raise Invalid_argument on anything else. *)

val policy_name : policy -> string
(** ["serial"], ["synchronous"] or ["asynchronous"] — recorded in
    [bench --json]. *)

val policy_kappa : policy -> float
(** The level-overlap fraction: [kappa] for [Asynchronous], [1.0] for
    [Serial] and [Synchronous] (a full barrier between levels). *)

type t

type 'a future
(** The result of a submitted task: pending, a value, or an exception
    with its backtrace.  Futures are tied to the executor that created
    them. *)

type batch_error = {
  index : int;  (** input index whose execution failed *)
  error : exn;  (** the exception it raised *)
  backtrace : Printexc.raw_backtrace;  (** its backtrace *)
}

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val create :
  ?obs:Asyncolor_obs.Obs.t ->
  ?policy:policy ->
  ?jobs:int ->
  unit ->
  t
(** [create ~policy ~jobs ()] spawns [jobs - 1] worker domains (so the
    caller is always worker 0).  {b [jobs] is clamped to at least 1 here,
    at the executor boundary} — [~jobs:0] and negative values behave as
    [~jobs:1], uniformly for every client; a [Serial] policy forces
    [jobs = 1] and spawns nothing.  Defaults: [policy = Synchronous],
    [jobs = default_jobs ()], [obs = Asyncolor_obs.Obs.disabled]. *)

val jobs : t -> int
(** The clamped worker count (caller included). *)

val policy : t -> policy
(** The policy passed to {!create}; it is fixed for the executor's
    lifetime. *)

val stream_window : t -> int
(** The in-flight bound a streaming client (the explorer) should keep:
    [1] for [Serial], [max_active] for [Asynchronous], and [4 * jobs]
    for [Synchronous] — the default [max_active] of {!asynchronous}.
    The stream's level barrier is its own business; the window only
    bounds how many finished tasks' results wait for the client at once,
    so a wide level is not held in memory whole. *)

val note_backpressure : t -> unit
(** Count one submission stall on the ["exec.backpressure"] counter —
    called by streaming clients when {!stream_window} makes them hold a
    ready task back. *)

val note_inflight : t -> int -> unit
(** Raise the ["exec.inflight_max"] gauge to [k] tasks submitted and not
    yet consumed — called by streaming clients after each top-up, as
    {!map} does for its own window. *)

val submit : t -> (unit -> 'a) -> 'a future
(** Queue a task.  Tasks submitted by the caller are dispatched in
    submission order (FIFO).  Only submit from the caller domain or from
    inside a running task.
    @raise Invalid_argument after {!shutdown}. *)

val await : 'a future -> 'a
(** Block until the future lands, helping execute queued tasks while
    waiting (so [await] never deadlocks the pipeline and [jobs = 1]
    degenerates to sequential execution on the caller).  Re-raises the
    task's exception with its original backtrace. *)

val await_result : 'a future -> ('a, exn * Printexc.raw_backtrace) result
(** Like {!await} but returns the exception instead of raising. *)

val map_result : t -> ('a -> 'b) -> 'a array -> ('b array, batch_error) result
(** Parallel [Array.map] with deterministic result order: output index
    [i] always holds [f input.(i)].  The policy fixes the in-flight
    window (see {!policy}); completed futures are consumed as a
    sequential FIFO stream.

    {b Failure isolation.}  Once an item raises, the batch is
    {e cancelled}: tasks above the lowest failing index not yet
    started complete as no-ops (their [f] is never called), only
    in-flight items run to completion — one poisoned item no longer pays
    for the whole remaining batch.  Items below that index always run
    (dispatch is FIFO in index order, so they were all submitted before
    it), so the reported error is the overall lowest failing index,
    deterministic regardless of domain scheduling or policy.  The
    executor stays usable after a failed batch. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** Like {!map_result} but re-raises the lowest-index error with its
    backtrace. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** {!map} over lists, preserving order. *)

val shutdown : t -> unit
(** Drain the remaining queued tasks, stop and join the worker domains.
    Safe to call while or after a batch has failed; subsequent {!submit}
    or {!map} calls raise [Invalid_argument].  A worker domain that died
    of an exception (tasks cannot cause one, see {!submit}) has it
    re-raised here by [Domain.join]. *)

val with_executor :
  ?obs:Asyncolor_obs.Obs.t ->
  ?policy:policy ->
  ?jobs:int ->
  (t -> 'a) ->
  'a
(** [with_executor f] runs [f] with a fresh executor and always shuts it
    down, including on exceptions. *)
