(** The async execution core: one FIFO task queue, futures, and
    policy-driven in-flight windows — every parallel path in the repo
    (explorer BFS, fuzz campaigns, lockhunt slices, the sweep harness)
    runs on this one engine.

    {b Shape.}  An executor owns one queue of tasks, guarded by a mutex
    and a condition variable, and [jobs - 1] spawned worker domains.
    {!submit} appends a task and returns a {!future}; idle workers take
    the oldest task, and so does the caller while it blocks in {!await}.
    Tasks are therefore {e dispatched in submission order}.  That FIFO
    dispatch is the executor's determinism anchor: batch failures report
    the lowest failing index (see {!map}) and the explorer's
    sequential id-merge stays byte-identical whichever domain runs which
    task.

    {b Policies.}  {!policy} fixes how many tasks a batch or stream may
    keep in flight: [Serial] (one at a time, on the caller) or a window
    of [4 * jobs] with backpressure, whose [kappa] additionally gates
    how early the explorer may overlap successive BFS levels (see
    {!Asyncolor_check.Explorer}).  Callers normally pass only [jobs]:
    {!with_executor} picks the policy.  Policy never changes {e results}, only
    scheduling: outputs are byte-identical across policies and [jobs].

    {b Failure.}  {!submit} wraps every task, so an exception from a task
    lands in its future and never reaches the worker loop.  Should a
    worker domain ever die some other way, the [Domain.join] that shuts
    the executor down re-raises its exception rather than hiding it.

    {b Observability} (all out-of-band, stdout untouched): every task
    runs under an ["exec.task"] span on the executing domain's lane
    (workers are named [exec-worker-N]); the ["exec.tasks"] counter
    counts tasks run, ["exec.steals"] the tasks a spawned worker took
    (the rest ran on the caller, or inside an {!await}), and
    ["exec.backpressure"] the stalled submissions; ["exec.wait"]
    intervals record worker idle gaps and the ["exec.inflight_max"] gauge
    the widest batch window. *)

type policy =
  | Serial  (** one task at a time, executed by the caller; no domains *)
  | Synchronous
      (** [Asynchronous] at [kappa = 1]: [4 * jobs] tasks in flight,
          and the explorer barriers at every BFS level *)
  | Asynchronous of { max_active : int; kappa : float }
      (** at most [max_active] tasks in flight, submission stalls
          (counted as ["exec.backpressure"]) when the window is full;
          [kappa] ∈ [0, 1] is the fraction of BFS level [k] that must
          have merged before level [k+1] expansion may start *)

val asynchronous : ?kappa:float -> jobs:int -> unit -> policy
(** Smart constructor: [max_active = 4 * jobs] ([jobs] clamped to at
    least 1); [kappa] (default [0.5]) is clamped into [[0, 1]]. *)

val policy_name : policy -> string
(** ["serial"], ["synchronous"] or ["asynchronous"]. *)

val policy_kappa : policy -> float
(** The level-overlap fraction: [kappa] for [Asynchronous], [1.0] for
    [Serial] and [Synchronous] (a full barrier between levels). *)

type t

type 'a future
(** The result of a submitted task: pending, a value, or an exception
    with its backtrace.  Futures are tied to the executor that created
    them. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val jobs : t -> int
(** The clamped worker count (caller included). *)

val policy : t -> policy
(** The policy passed to {!with_executor}, or the one it picked; it is
    fixed for the executor's lifetime. *)

val stream_window : t -> int
(** The in-flight bound a streaming client (the explorer) should keep:
    [1] for [Serial], [max_active] for [Asynchronous], and [4 * jobs]
    for [Synchronous].  {!map} keeps the same window.  The
    stream's level barrier is its own business; the window only bounds
    how many finished tasks' results wait for the client at once, so a
    wide level is not held in memory whole. *)

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
    @raise Invalid_argument once the executor is shut down. *)

val await : 'a future -> 'a
(** Block until the future lands, helping execute queued tasks while
    waiting (so [await] never deadlocks the pipeline and [jobs = 1]
    degenerates to sequential execution on the caller).  Re-raises the
    task's exception with its original backtrace. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map t f input] applies [f] to every item on the executor, results
    in index order.  A failing item cancels the rest of the batch, and
    the lowest-index failure is re-raised with its backtrace. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** {!map} over lists, preserving order. *)

val with_executor :
  ?obs:Asyncolor_obs.Obs.t ->
  ?policy:policy ->
  ?jobs:int ->
  (t -> 'a) ->
  'a
(** [with_executor f] runs [f] with a fresh executor and always shuts it
    down, including on exceptions. *)
