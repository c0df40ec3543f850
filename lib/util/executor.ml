(* The async execution core: one FIFO queue of tasks under one mutex and
   condition variable, a policy-driven in-flight window, and futures.

   Every domain — the spawned workers in their loop, the caller while it
   helps in [await] — takes the oldest task from the same queue, so tasks
   are dispatched in submission order.  That FIFO dispatch is what keeps
   batch failures (lowest-index error) and the explorer's id assignment
   deterministic whichever domain runs what.  Every check-then-wait is
   made under the mutex, and every state change (a submit, a completed
   task, shutdown) broadcasts under it, so no wakeup is lost. *)

module Obs = Asyncolor_obs.Obs

type policy =
  | Serial
  | Synchronous
  | Asynchronous of { max_active : int; kappa : float }

let clamp_kappa k =
  if Float.is_nan k then 1.0 else Float.max 0.0 (Float.min 1.0 k)

let asynchronous ?(kappa = 0.5) ~jobs () =
  Asynchronous { max_active = 4 * max 1 jobs; kappa = clamp_kappa kappa }

let policy_name = function
  | Serial -> "serial"
  | Synchronous -> "synchronous"
  | Asynchronous _ -> "asynchronous"

let policy_kappa = function
  | Serial | Synchronous -> 1.0
  | Asynchronous { kappa; _ } -> kappa

type 'a fstate =
  | Pending
  | Returned of 'a
  | Raised of exn * Printexc.raw_backtrace

type t = {
  jobs : int;
  pol : policy;
  queue : (unit -> unit) Queue.t;  (* guarded by [mutex] *)
  mutex : Mutex.t;
  changed : Condition.t;  (* broadcast under [mutex] on every state change *)
  mutable stopping : bool;
  mutable domains : unit Domain.t list;
  obs : Obs.t;
  c_tasks : Obs.Counter.t;
  c_steals : Obs.Counter.t;
  c_backpressure : Obs.Counter.t;
  g_inflight : Obs.Gauge.t;
}

type 'a future = { mutable fst : 'a fstate; owner : t }

type batch_error = {
  index : int;
  error : exn;
  backtrace : Printexc.raw_backtrace;
}

let default_jobs () = Domain.recommended_domain_count ()
let jobs t = t.jobs
let policy t = t.pol

let stream_window t =
  match t.pol with
  | Serial -> 1
  | Synchronous -> 4 * t.jobs
  | Asynchronous { max_active; _ } -> max 1 max_active

let note_backpressure t = Obs.Counter.incr t.c_backpressure
let note_inflight t k = Obs.Gauge.max_ t.g_inflight k

let complete t fut v =
  Mutex.lock t.mutex;
  fut.fst <- v;
  Condition.broadcast t.changed;
  Mutex.unlock t.mutex

let submit t f =
  let fut = { fst = Pending; owner = t } in
  let task () =
    Obs.Counter.incr t.c_tasks;
    let v =
      match Obs.span t.obs "exec.task" f with
      | v -> Returned v
      | exception e -> Raised (e, Printexc.get_raw_backtrace ())
    in
    complete t fut v
  in
  Mutex.lock t.mutex;
  if t.stopping then begin
    Mutex.unlock t.mutex;
    invalid_arg "Executor.submit: executor is shut down"
  end;
  Queue.push task t.queue;
  Condition.broadcast t.changed;
  Mutex.unlock t.mutex;
  fut

(* A spawned worker: wait while the queue is empty, run the oldest task,
   and exit once shutdown has been asked for and the queue is drained.
   The time between finishing one task and receiving the next is queue
   wait — an "exec.wait" interval on this domain's lane. *)
let rec worker_loop t =
  let t0 = Obs.now t.obs in
  Mutex.lock t.mutex;
  while Queue.is_empty t.queue && not t.stopping do
    Condition.wait t.changed t.mutex
  done;
  match Queue.take_opt t.queue with
  | None -> Mutex.unlock t.mutex
  | Some task ->
      Mutex.unlock t.mutex;
      Obs.Counter.incr t.c_steals;
      Obs.interval t.obs "exec.wait" ~start:t0;
      task ();
      worker_loop t

let await_result fut =
  let t = fut.owner in
  Mutex.lock t.mutex;
  let rec loop () =
    match fut.fst with
    | Returned v ->
        Mutex.unlock t.mutex;
        Ok v
    | Raised (e, bt) ->
        Mutex.unlock t.mutex;
        Error (e, bt)
    | Pending -> (
        (* Help: run queued tasks instead of blocking, so a window of
           submitted work always makes progress even at jobs = 1. *)
        match Queue.take_opt t.queue with
        | Some task ->
            Mutex.unlock t.mutex;
            task ();
            Mutex.lock t.mutex;
            loop ()
        | None ->
            if t.stopping then begin
              Mutex.unlock t.mutex;
              invalid_arg
                "Executor.await: executor shut down with the future still \
                 pending"
            end;
            Condition.wait t.changed t.mutex;
            loop ())
  in
  loop ()

let await fut =
  match await_result fut with
  | Ok v -> v
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

let create ?(obs = Obs.disabled) ?policy ?jobs () =
  (* The one place [jobs] is sanitised (clamped to at least 1) and the
     one place a policy is chosen when none is given: [Serial] at one
     job, else [asynchronous].  [Serial] runs everything on the caller,
     so it forces a single worker and spawns nothing. *)
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let policy =
    match policy with
    | Some p -> p
    | None -> if jobs = 1 then Serial else asynchronous ~jobs ()
  in
  let jobs = match policy with Serial -> 1 | Synchronous | Asynchronous _ -> jobs in
  let t =
    {
      jobs;
      pol = policy;
      queue = Queue.create ();
      mutex = Mutex.create ();
      changed = Condition.create ();
      stopping = false;
      domains = [];
      obs;
      c_tasks = Obs.counter obs "exec.tasks";
      c_steals = Obs.counter obs "exec.steals";
      c_backpressure = Obs.counter obs "exec.backpressure";
      g_inflight = Obs.gauge obs "exec.inflight_max";
    }
  in
  t.domains <-
    List.init (jobs - 1) (fun w ->
        Domain.spawn (fun () ->
            Obs.set_lane obs
              ~tid:(Domain.self () :> int)
              (Printf.sprintf "exec-worker-%d" (w + 1));
            worker_loop t));
  t

let shutdown t =
  Mutex.lock t.mutex;
  t.stopping <- true;
  Condition.broadcast t.changed;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.domains;
  t.domains <- []

let with_executor ?obs ?policy ?jobs f =
  let t = create ?obs ?policy ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* --- the batch layer: windowed map with failure isolation -------------- *)

let map_result t f input =
  let total = Array.length input in
  if total = 0 then Ok [||]
  else begin
    if t.stopping then invalid_arg "Executor.map: executor is shut down";
    let window = stream_window t in
    let results = Array.make total None in
    (* first (lowest-index) error wins, so failures are
       deterministic regardless of which domain hit them *)
    let error = ref None in
    (* Lowest index with an error so far; [total] while none. *)
    let first_failed = Atomic.make total in
    let cancelled () = Atomic.get first_failed < total in
    let record_error (e : batch_error) =
      Mutex.lock t.mutex;
      (match !error with
      | Some prev when prev.index <= e.index -> ()
      | _ ->
          error := Some e;
          Atomic.set first_failed e.index);
      Mutex.unlock t.mutex
    in
    let run_item i =
      (* After cancellation a task above the failed index completes as a
         no-op: [f] is never called, so a poisoned item costs at most the
         in-flight window beyond itself.  Items below it still run — one
         may have been dequeued but not started when a later item failed
         — so the lowest failing index is always found and the reported
         error is deterministic. *)
      if i < Atomic.get first_failed then
        match f input.(i) with
        | v -> results.(i) <- Some v
        | exception error ->
            let backtrace = Printexc.get_raw_backtrace () in
            record_error { index = i; error; backtrace }
    in
    let futs = Array.make total None in
    let submitted = ref 0 and consumed = ref 0 in
    while !consumed < total do
      while
        !submitted < total
        && !submitted - !consumed < window
        && not (cancelled ())
      do
        let i = !submitted in
        futs.(i) <- Some (submit t (fun () -> run_item i));
        incr submitted
      done;
      note_inflight t (!submitted - !consumed);
      if
        !submitted < total
        && !submitted - !consumed >= window
        && not (cancelled ())
      then note_backpressure t;
      if !consumed < !submitted then begin
        (match futs.(!consumed) with
        | Some fu ->
            await fu;
            futs.(!consumed) <- None
        | None -> assert false);
        incr consumed
      end
      else
        (* cancelled with nothing left in flight: the rest never runs *)
        consumed := total
    done;
    match !error with
    | Some e -> Error e
    | None ->
        Ok
          (Array.map
             (function Some v -> v | None -> assert false (* every item ran *))
             results)
  end

let map t f input =
  match map_result t f input with
  | Ok out -> out
  | Error e -> Printexc.raise_with_backtrace e.error e.backtrace

let map_list t f input = Array.to_list (map t f (Array.of_list input))
