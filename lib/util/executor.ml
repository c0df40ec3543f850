(* The async execution core: Chase–Lev work-stealing deques under a
   policy-driven in-flight window, with futures and a lost-wakeup-free
   sleep protocol.

   Layout: deque 0 belongs to the submitting caller and is drained from
   the top (FIFO) by every domain — caller included while it waits in
   [await] — so caller-submitted tasks are dispatched in submission
   order.  Deques 1..jobs-1 belong to the spawned workers: each pops its
   own LIFO and steals from the others' tops.  The FIFO discipline on
   deque 0 is what keeps batch failures (lowest-index error) and the
   explorer's id-assignment deterministic whatever the steal
   interleaving; the steal path itself is a single CAS on a monotonic
   [top] counter, no lock.

   Sleeping without lost wakeups: the deques are lock-free, so a worker
   cannot atomically check-empty-and-wait.  Instead a [stamp] change
   counter is bumped (under the one mutex) by every submit, completion
   and shutdown; a worker that found nothing records the stamp, rescans
   the deques, and only waits on the condvar if the stamp is still
   unchanged — any concurrent push either happened before the rescan
   (found) or bumps the stamp after it (wait skipped or woken). *)

module Obs = Asyncolor_obs.Obs

module Ws_deque = struct
  (* Chase–Lev: [top] advances by CAS only (thieves, and the owner when
     popping the last element), so it is monotonic and an index is handed
     out exactly once — no ABA.  [bottom] is written only by the owner.
     Slots hold ['a option] so dead entries can be dropped for the GC;
     the buffer is in an [Atomic] because the owner replaces it on grow
     while thieves may still be reading the old one (whose copied range
     is identical, so a stale read stays correct). *)
  type 'a t = {
    top : int Atomic.t;
    bottom : int Atomic.t;
    buf : 'a option array Atomic.t;
  }

  let create () =
    {
      top = Atomic.make 0;
      bottom = Atomic.make 0;
      buf = Atomic.make (Array.make 16 None);
    }

  let length q = max 0 (Atomic.get q.bottom - Atomic.get q.top)

  let grow q b t =
    let old = Atomic.get q.buf in
    let osz = Array.length old in
    let nw = Array.make (2 * osz) None in
    for i = t to b - 1 do
      nw.(i land ((2 * osz) - 1)) <- old.(i land (osz - 1))
    done;
    Atomic.set q.buf nw

  let push q x =
    let b = Atomic.get q.bottom and t = Atomic.get q.top in
    if b - t >= Array.length (Atomic.get q.buf) then grow q b t;
    let buf = Atomic.get q.buf in
    buf.(b land (Array.length buf - 1)) <- Some x;
    Atomic.set q.bottom (b + 1)

  let pop q =
    let b = Atomic.get q.bottom - 1 in
    Atomic.set q.bottom b;
    let t = Atomic.get q.top in
    if b < t then begin
      (* already empty: undo the decrement *)
      Atomic.set q.bottom t;
      None
    end
    else begin
      let buf = Atomic.get q.buf in
      let i = b land (Array.length buf - 1) in
      let x = buf.(i) in
      if b > t then begin
        buf.(i) <- None;
        x
      end
      else begin
        (* last element: race the thieves for it via the top CAS *)
        let won = Atomic.compare_and_set q.top t (t + 1) in
        Atomic.set q.bottom (t + 1);
        if won then x else None
      end
    end

  let rec steal q =
    let t = Atomic.get q.top in
    let b = Atomic.get q.bottom in
    if t >= b then None
    else begin
      let buf = Atomic.get q.buf in
      let x = buf.(t land (Array.length buf - 1)) in
      if Atomic.compare_and_set q.top t (t + 1) then x
      else steal q (* lost the race: someone else took index [t] *)
    end
end

type policy =
  | Serial
  | Synchronous
  | Asynchronous of { max_active : int; kappa : float }

let clamp_kappa k =
  if Float.is_nan k then 1.0 else Float.max 0.0 (Float.min 1.0 k)

let asynchronous ?max_active ?(kappa = 0.5) ~jobs () =
  let jobs = max 1 jobs in
  let max_active =
    match max_active with Some m -> max 1 m | None -> 4 * jobs
  in
  Asynchronous { max_active; kappa = clamp_kappa kappa }

let policy_of_string ?max_active ?kappa ~jobs s =
  match String.lowercase_ascii s with
  | "serial" -> Serial
  | "sync" | "synchronous" -> Synchronous
  | "async" | "asynchronous" -> asynchronous ?max_active ?kappa ~jobs ()
  | s ->
      invalid_arg
        (Printf.sprintf
           "Executor.policy_of_string: unknown policy %S (expected \
            serial|sync|async)"
           s)

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
  id : int;  (* key for the domain-local worker index *)
  jobs : int;
  pol : policy;
  deques : (unit -> unit) Ws_deque.t array;
  mutex : Mutex.t;
  changed : Condition.t;
  mutable stamp : int;  (* bumped under [mutex] on every state change *)
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

(* Which deque the current domain owns in executor [t]: spawned workers
   record (executor id, index) in domain-local storage; everyone else —
   the caller in particular — is worker 0. *)
let next_exec_id = Atomic.make 0

let dls_worker : (int * int) Domain.DLS.key =
  Domain.DLS.new_key (fun () -> (-1, 0))

let self_ix t =
  let eid, w = Domain.DLS.get dls_worker in
  if eid = t.id then w else 0

(* Take one task: own deque first (worker 0 from the top, to preserve the
   caller's FIFO dispatch; workers from the bottom), then steal from the
   others round-robin.  Only cross-deque takes count as steals. *)
let take_task t ~self =
  let own =
    if self = 0 then Ws_deque.steal t.deques.(0)
    else Ws_deque.pop t.deques.(self)
  in
  match own with
  | Some _ as r -> r
  | None ->
      let n = Array.length t.deques in
      let rec scan k =
        if k >= n then None
        else
          match Ws_deque.steal t.deques.((self + k) mod n) with
          | Some _ as r ->
              Obs.Counter.incr t.c_steals;
              r
          | None -> scan (k + 1)
      in
      scan 1

let complete t fut v =
  Mutex.lock t.mutex;
  fut.fst <- v;
  t.stamp <- t.stamp + 1;
  Condition.broadcast t.changed;
  Mutex.unlock t.mutex

let submit t f =
  if t.stopping then invalid_arg "Executor.submit: executor is shut down";
  let fut = { fst = Pending; owner = t } in
  let task () =
    Obs.Counter.incr t.c_tasks;
    let v =
      if Obs.enabled t.obs then begin
        match Obs.span t.obs "exec.task" f with
        | v -> Returned v
        | exception e -> Raised (e, Printexc.get_raw_backtrace ())
      end
      else
        match f () with
        | v -> Returned v
        | exception e -> Raised (e, Printexc.get_raw_backtrace ())
    in
    complete t fut v
  in
  Ws_deque.push t.deques.(self_ix t) task;
  Mutex.lock t.mutex;
  t.stamp <- t.stamp + 1;
  Condition.broadcast t.changed;
  Mutex.unlock t.mutex;
  fut

let rec worker_loop t self =
  (* The time between finishing one task and receiving the next is queue
     wait — an "exec.wait" interval on this domain's lane. *)
  let t0 = Obs.now t.obs in
  match take_task t ~self with
  | Some task ->
      Obs.interval t.obs "exec.wait" ~start:t0;
      task ();
      worker_loop t self
  | None ->
      Mutex.lock t.mutex;
      let s0 = t.stamp and stop = t.stopping in
      Mutex.unlock t.mutex;
      if not stop then begin
        (* Rescan after recording the stamp: a push that the first scan
           missed either lands in this one or bumps the stamp. *)
        (match take_task t ~self with
        | Some task ->
            Obs.interval t.obs "exec.wait" ~start:t0;
            task ()
        | None ->
            Mutex.lock t.mutex;
            if (not t.stopping) && t.stamp = s0 then
              Condition.wait t.changed t.mutex;
            Mutex.unlock t.mutex);
        worker_loop t self
      end

let await_result fut =
  let t = fut.owner in
  let self = self_ix t in
  let rec loop () =
    Mutex.lock t.mutex;
    match fut.fst with
    | Returned v ->
        Mutex.unlock t.mutex;
        Ok v
    | Raised (e, bt) ->
        Mutex.unlock t.mutex;
        Error (e, bt)
    | Pending ->
        let s0 = t.stamp in
        Mutex.unlock t.mutex;
        (* Help: run queued tasks instead of blocking, so a window of
           submitted work always makes progress even at jobs = 1. *)
        (match take_task t ~self with
        | Some task -> task ()
        | None -> (
            Mutex.lock t.mutex;
            match fut.fst with
            | Pending ->
                if t.stopping then begin
                  Mutex.unlock t.mutex;
                  invalid_arg
                    "Executor.await: executor shut down with the future \
                     still pending"
                end
                else begin
                  if t.stamp = s0 then Condition.wait t.changed t.mutex;
                  Mutex.unlock t.mutex
                end
            | _ -> Mutex.unlock t.mutex));
        loop ()
  in
  loop ()

let await fut =
  match await_result fut with
  | Ok v -> v
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

let create ?(obs = Obs.disabled) ?(policy = Synchronous) ?jobs () =
  (* The one place [jobs] is sanitised: clamped to at least 1, for every
     client uniformly; [Serial] runs everything
     on the caller, so it forces a single worker and spawns nothing. *)
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let jobs = match policy with Serial -> 1 | Synchronous | Asynchronous _ -> jobs in
  let t =
    {
      id = Atomic.fetch_and_add next_exec_id 1;
      jobs;
      pol = policy;
      deques = Array.init jobs (fun _ -> Ws_deque.create ());
      mutex = Mutex.create ();
      changed = Condition.create ();
      stamp = 0;
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
            Domain.DLS.set dls_worker (t.id, w + 1);
            worker_loop t (w + 1)));
  t

let shutdown t =
  Mutex.lock t.mutex;
  t.stopping <- true;
  t.stamp <- t.stamp + 1;
  Condition.broadcast t.changed;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.domains;
  t.domains <- []

let with_executor ?obs ?policy ?jobs f =
  let t = create ?obs ?policy ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* --- the batch layer: windowed map with failure isolation -------------- *)

let batch_window t ~total =
  match t.pol with
  | Serial -> 1
  | Synchronous -> total
  | Asynchronous { max_active; _ } -> max 1 max_active

let map_result t f input =
  let total = Array.length input in
  if total = 0 then Ok [||]
  else begin
    if t.stopping then invalid_arg "Executor.map: executor is shut down";
    let window = batch_window t ~total in
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
