(* Spilled BFS levels: each level's adjacency bytes, as the log coded
   them, inside the Checkpoint container, one file per level under a
   caller-owned directory.

   A level is dropped from the in-memory Level_log *before* its write
   runs (seal clears the tail so the heap headroom is reclaimed
   immediately), so a failed write keeps its data in [failed], and a
   read serves a level from there without consulting the disk: the
   directory may hold an earlier run's file of the same level (a resumed
   run numbers its levels from 0 again), which a failed write never
   replaced.  Every other level is on disk. *)

type t = {
  dir : string;
  bytes_written : int Atomic.t;
  bytes_read : int Atomic.t;
  levels : int Atomic.t;
  chaos : Chaos.t;
  mu : Mutex.t;  (* [failed]: writers run on executor tasks *)
  failed : (int, Bytes.t) Hashtbl.t;
}

let payload_version = 2

let create ?(chaos = Chaos.disabled) ~dir () =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
  else if not (Sys.is_directory dir) then
    invalid_arg (Printf.sprintf "Spill.create: %s exists and is not a directory" dir);
  {
    dir;
    bytes_written = Atomic.make 0;
    bytes_read = Atomic.make 0;
    levels = Atomic.make 0;
    chaos;
    mu = Mutex.create ();
    failed = Hashtbl.create 4;
  }

let dir t = t.dir
let path t ~level = Filename.concat t.dir (Printf.sprintf "level-%06d.spill" level)

let write t ~level data =
  let path = path t ~level in
  (try
     Checkpoint.save ~chaos:t.chaos ~site:"spill" ~path
       ~version:payload_version data
   with e ->
     Mutex.lock t.mu;
     Hashtbl.replace t.failed level data;
     Mutex.unlock t.mu;
     raise e);
  let bytes = (Unix.stat path).Unix.st_size in
  Atomic.fetch_and_add t.bytes_written bytes |> ignore;
  Atomic.incr t.levels;
  bytes

let read t ~level =
  Mutex.lock t.mu;
  let resident = Hashtbl.find_opt t.failed level in
  Mutex.unlock t.mu;
  match resident with
  | Some data -> data
  | None -> (
      let path = path t ~level in
      match
        Checkpoint.load ~chaos:t.chaos ~site:"spill" ~path
          ~version:payload_version ()
      with
      | data ->
          Atomic.fetch_and_add t.bytes_read (Unix.stat path).Unix.st_size
          |> ignore;
          data
      | exception Checkpoint.Corrupt msg ->
          raise (Checkpoint.Corrupt (Printf.sprintf "%s: %s" path msg)))

let bytes_written t = Atomic.get t.bytes_written
let bytes_read t = Atomic.get t.bytes_read
let levels_on_disk t = Atomic.get t.levels

let files t =
  Sys.readdir t.dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".spill")
  |> List.sort compare
