type span_record = {
  r_sid : int;
  r_parent : int;
  r_tid : int;
  r_name : string;
  r_start : int64;
  r_dur : int64;
  r_args : (string * string) list;
}

type span = {
  sp_sid : int;  (* -1 on the disabled sink: end_span drops it *)
  sp_parent : int;
  sp_tid : int;
  sp_name : string;
  sp_start : int64;
  sp_args : (string * string) list;
}

(* Counter shards are indexed by [domain id land (shards - 1)]: a fixed
   power-of-two array of atomics, so adds from distinct pool domains
   mostly touch distinct cells (contention, not correctness, is what the
   sharding buys — a collision is just an atomic RMW on a shared cell).
   Merging is a read-time sum. *)
let counter_shards = 16

module Counter = struct
  type t = { c_on : bool; cells : int Atomic.t array }

  let make ~on =
    { c_on = on; cells = Array.init counter_shards (fun _ -> Atomic.make 0) }

  let add c k =
    if c.c_on then
      let s = (Domain.self () :> int) land (counter_shards - 1) in
      ignore (Atomic.fetch_and_add c.cells.(s) k)

  let incr c = add c 1
  let value c = Array.fold_left (fun acc cell -> acc + Atomic.get cell) 0 c.cells
end

module Gauge = struct
  type t = { g_on : bool; cell : int Atomic.t }

  let make ~on = { g_on = on; cell = Atomic.make 0 }
  let set g v = if g.g_on then Atomic.set g.cell v

  let max_ g v =
    if g.g_on then begin
      let rec loop () =
        let prev = Atomic.get g.cell in
        if v > prev && not (Atomic.compare_and_set g.cell prev v) then loop ()
      in
      loop ()
    end

  let value g = Atomic.get g.cell
end

type t = {
  on : bool;
  keep_spans : bool;  (* [on] and recording span records *)
  clock : Clock.t;
  mutex : Mutex.t;  (* guards everything below *)
  mutable completed : span_record list;  (* reverse completion order *)
  mutable next_sid : int;
  counters : (string, Counter.t) Hashtbl.t;
  gauges : (string, Gauge.t) Hashtbl.t;
  lane_names : (int, string) Hashtbl.t;
}

let make ~on ~spans ~clock =
  {
    on;
    keep_spans = on && spans;
    clock;
    mutex = Mutex.create ();
    completed = [];
    next_sid = 0;
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
    lane_names = Hashtbl.create 8;
  }

let create ?(clock = Clock.monotonic) ?(spans = true) () =
  make ~on:true ~spans ~clock

let disabled = make ~on:false ~spans:false ~clock:(fun () -> 0L)
let enabled t = t.on
let now t = if t.on then t.clock () else 0L

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let dummy_span =
  { sp_sid = -1; sp_parent = -1; sp_tid = 0; sp_name = ""; sp_start = 0L; sp_args = [] }

let begin_span t ?tid ?parent ?(args = []) name =
  if not t.keep_spans then dummy_span
  else begin
    (* Read the clock outside the lock: allocation order of sids may then
       differ from start order under contention, which is fine — nothing
       exported depends on sid order, and it keeps the critical section
       down to one increment. *)
    let start = t.clock () in
    let tid = match tid with Some i -> i | None -> (Domain.self () :> int) in
    let parent = match parent with Some p -> p.sp_sid | None -> -1 in
    let sid =
      locked t (fun () ->
          let id = t.next_sid in
          t.next_sid <- id + 1;
          id)
    in
    {
      sp_sid = sid;
      sp_parent = parent;
      sp_tid = tid;
      sp_name = name;
      sp_start = start;
      sp_args = args;
    }
  end

let end_span t sp =
  if t.keep_spans && sp.sp_sid >= 0 then begin
    let stop = t.clock () in
    let dur =
      let d = Int64.sub stop sp.sp_start in
      if Int64.compare d 0L < 0 then 0L else d
    in
    let r =
      {
        r_sid = sp.sp_sid;
        r_parent = sp.sp_parent;
        r_tid = sp.sp_tid;
        r_name = sp.sp_name;
        r_start = sp.sp_start;
        r_dur = dur;
        r_args = sp.sp_args;
      }
    in
    locked t (fun () -> t.completed <- r :: t.completed)
  end

let span t ?tid ?parent ?args name f =
  if not t.keep_spans then f ()
  else begin
    let sp = begin_span t ?tid ?parent ?args name in
    Fun.protect ~finally:(fun () -> end_span t sp) f
  end

let interval t ?tid ?parent ?args name ~start =
  if t.keep_spans then begin
    let sp = begin_span t ?tid ?parent ?args name in
    end_span t { sp with sp_start = start }
  end

let set_lane t ~tid name =
  if t.on then locked t (fun () -> Hashtbl.replace t.lane_names tid name)

let counter t name =
  if not t.on then Counter.make ~on:false
  else
    locked t (fun () ->
        match Hashtbl.find_opt t.counters name with
        | Some c -> c
        | None ->
            let c = Counter.make ~on:true in
            Hashtbl.add t.counters name c;
            c)

let gauge t name =
  if not t.on then Gauge.make ~on:false
  else
    locked t (fun () ->
        match Hashtbl.find_opt t.gauges name with
        | Some g -> g
        | None ->
            let g = Gauge.make ~on:true in
            Hashtbl.add t.gauges name g;
            g)

let spans t = locked t (fun () -> List.rev t.completed)

let metrics t =
  locked t (fun () ->
      let rows = ref [] in
      Hashtbl.iter (fun name c -> rows := (name, Counter.value c) :: !rows) t.counters;
      Hashtbl.iter (fun name g -> rows := (name, Gauge.value g) :: !rows) t.gauges;
      List.sort compare !rows)

let lanes t =
  locked t (fun () ->
      List.sort compare
        (Hashtbl.fold (fun tid name acc -> (tid, name) :: acc) t.lane_names []))
