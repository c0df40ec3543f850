(* Spilled BFS levels: each level's adjacency bytes, as the log coded
   them, inside the Checkpoint container, one file per level under a
   caller-owned directory.

   Failure handling is asymmetric by design.  A level is dropped from the
   in-memory Level_log *before* its write runs (seal clears the tail so
   the heap headroom is reclaimed immediately), so a write that exhausts
   its retries would otherwise lose the level outright.  Writes therefore
   retain their data in [failed] on the way out, and reads fall back to
   [failed]/[retained] — quarantining the bad file and rewriting it —
   whenever the on-disk copy is unreadable.  [retain] additionally keeps
   the last N successfully written levels resident as a bit-rot hedge. *)

type t = {
  dir : string;
  bytes_written : int Atomic.t;
  bytes_read : int Atomic.t;
  levels : int Atomic.t;
  n_quarantined : int Atomic.t;
  n_rebuilt : int Atomic.t;
  chaos : Chaos.t;
  retry : Chaos.Retry.cfg;
  retain : int;
  mu : Mutex.t;  (* retained/failed tables: writers run on executor tasks *)
  retained : (int, Bytes.t) Hashtbl.t;
  retained_order : int Queue.t;
  failed : (int, Bytes.t) Hashtbl.t;
}

let payload_version = 2

let create ?(chaos = Chaos.disabled) ?retry ?(retain = 0) ~dir () =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
  else if not (Sys.is_directory dir) then
    invalid_arg (Printf.sprintf "Spill.create: %s exists and is not a directory" dir);
  let retry =
    match retry with
    | Some r -> r
    | None -> if Chaos.enabled chaos then Chaos.Retry.default else Chaos.Retry.none
  in
  {
    dir;
    bytes_written = Atomic.make 0;
    bytes_read = Atomic.make 0;
    levels = Atomic.make 0;
    n_quarantined = Atomic.make 0;
    n_rebuilt = Atomic.make 0;
    chaos;
    retry;
    retain = max 0 retain;
    mu = Mutex.create ();
    retained = Hashtbl.create 8;
    retained_order = Queue.create ();
    failed = Hashtbl.create 4;
  }

let dir t = t.dir
let path t ~level = Filename.concat t.dir (Printf.sprintf "level-%06d.spill" level)

let retry_on = function Checkpoint.Corrupt _ -> true | _ -> false

let retain_success t ~level data =
  if t.retain > 0 then begin
    Mutex.lock t.mu;
    if not (Hashtbl.mem t.retained level) then begin
      Hashtbl.replace t.retained level data;
      Queue.add level t.retained_order;
      while Queue.length t.retained_order > t.retain do
        Hashtbl.remove t.retained (Queue.pop t.retained_order)
      done
    end;
    Mutex.unlock t.mu
  end

(* The level's bytes survive in memory whenever the disk lost them: a
   later read (checkpoint reassembly, resume) rebuilds from here. *)
let retain_failure t ~level data =
  Mutex.lock t.mu;
  Hashtbl.replace t.failed level data;
  Mutex.unlock t.mu

let resident t ~level =
  Mutex.lock t.mu;
  let r =
    match Hashtbl.find_opt t.failed level with
    | Some _ as r -> r
    | None -> Hashtbl.find_opt t.retained level
  in
  Mutex.unlock t.mu;
  r

let write t ~level data =
  let path = path t ~level in
  (try
     Chaos.Retry.run t.chaos t.retry ~retry_on ~site:"spill.write" (fun () ->
         Checkpoint.save ~chaos:t.chaos ~site:"spill" ~path
           ~version:payload_version data)
   with e ->
     retain_failure t ~level data;
     raise e);
  retain_success t ~level data;
  let bytes = (Unix.stat path).Unix.st_size in
  Atomic.fetch_and_add t.bytes_written bytes |> ignore;
  Atomic.incr t.levels;
  bytes

let corrupt_message = function
  | Checkpoint.Corrupt msg -> msg
  | Chaos.Retry.Exhausted { last = Checkpoint.Corrupt msg; _ } -> msg
  | e -> Printexc.to_string e

let read t ~level =
  let path = path t ~level in
  let account_read () =
    let bytes = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0 in
    Atomic.fetch_and_add t.bytes_read bytes |> ignore
  in
  match
    Chaos.Retry.run t.chaos t.retry ~retry_on ~site:"spill.read" (fun () ->
        Checkpoint.load ~chaos:t.chaos ~site:"spill" ~path
          ~version:payload_version ())
  with
  | data ->
      account_read ();
      data
  | exception e -> (
      match resident t ~level with
      | Some data ->
          (* Quarantine the damaged file (if any) and rewrite it from the
             resident copy so later reads hit the disk again.  The rewrite
             is best-effort: if it fails too, the data is still resident. *)
          (match Checkpoint.quarantine ~chaos:t.chaos path with
          | Some dest ->
              Atomic.incr t.n_quarantined;
              Diag.printf "spill: quarantined level %d (%s -> %s), rebuilt from memory\n"
                level path dest
          | None ->
              Diag.printf "spill: level %d missing on disk, rebuilt from memory\n"
                level);
          Atomic.incr t.n_rebuilt;
          (try
             Chaos.Retry.run t.chaos t.retry ~retry_on ~site:"spill.write"
               (fun () ->
                 Checkpoint.save ~chaos:t.chaos ~site:"spill" ~path
                   ~version:payload_version data)
           with _ -> ());
          account_read ();
          data
      | None ->
          raise
            (Checkpoint.Corrupt
               (Printf.sprintf "%s: %s" path (corrupt_message e))))

let bytes_written t = Atomic.get t.bytes_written
let bytes_read t = Atomic.get t.bytes_read
let levels_on_disk t = Atomic.get t.levels
let quarantined t = Atomic.get t.n_quarantined
let rebuilt t = Atomic.get t.n_rebuilt

let files t =
  Sys.readdir t.dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".spill")
  |> List.sort compare
