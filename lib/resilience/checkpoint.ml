exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* 16 bytes, padded so the header fields below sit at fixed offsets. *)
let magic = "asyncolor-ckpt\x00\x00"
let container_format = 1

let buf_be32 b v =
  Buffer.add_char b (Char.chr ((v lsr 24) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char b (Char.chr (v land 0xff))

let buf_be64 b v =
  buf_be32 b ((v lsr 32) land 0xffffffff);
  buf_be32 b (v land 0xffffffff)

let header_bytes = 48

(* The container is streamed to [path] through [oc]: the header with a
   zero length and digest, the payload marshalled straight to the
   channel, then the real length and digest patched into the header.
   The digest is read back from the file, so a save holds no copy of the
   payload on the OCaml heap (the marshaller's buffer is off-heap and
   freed when the call returns).  The whole container is one write of
   the injectable filesystem ({!Chaos.write_with}), so fault injection
   sees one operation of the site's schedule, and a partial or torn
   write cuts the container exactly like a real crash would. *)
let write_container ~version path v oc =
  let header = Buffer.create header_bytes in
  Buffer.add_string header magic;
  buf_be32 header container_format;
  buf_be32 header version;
  Buffer.add_string header (String.make 24 '\000');
  Buffer.output_buffer oc header;
  Marshal.to_channel oc v [];
  flush oc;
  let len = pos_out oc - header_bytes in
  let digest =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        seek_in ic header_bytes;
        Digest.channel ic len)
  in
  let tail = Buffer.create 24 in
  buf_be64 tail len;
  Buffer.add_string tail digest;
  seek_out oc 24;
  Buffer.output_buffer oc tail

(* Check the container around a payload: the payload's version (one of
   [versions]) and its length, having checked the digest. *)
let validate ~versions data =
  let pos = ref 0 in
  let need n what =
    if !pos + n > Bytes.length data then
      corrupt "truncated file while reading %s" what;
    let at = !pos in
    pos := at + n;
    at
  in
  let be32 what =
    let at = need 4 what in
    (Char.code (Bytes.get data at) lsl 24)
    lor (Char.code (Bytes.get data (at + 1)) lsl 16)
    lor (Char.code (Bytes.get data (at + 2)) lsl 8)
    lor Char.code (Bytes.get data (at + 3))
  in
  let magic_len = String.length magic in
  let m = Bytes.sub_string data (need magic_len "magic") magic_len in
  if m <> magic then corrupt "bad magic: not an asyncolor checkpoint";
  let fmt = be32 "container format" in
  if fmt <> container_format then
    corrupt "container format %d (this build reads %d)" fmt container_format;
  let ver = be32 "payload version" in
  if not (List.mem ver versions) then
    corrupt "payload version %d, expected %s (stale checkpoint?)" ver
      (String.concat " or " (List.map string_of_int versions));
  let hi = be32 "payload length" in
  let lo = be32 "payload length" in
  let len = (hi lsl 32) lor lo in
  if len < 0 then corrupt "negative payload length";
  let digest = Bytes.sub_string data (need 16 "digest") 16 in
  let at = need len "payload" in
  if Digest.subbytes data at len <> digest then
    corrupt "digest mismatch: payload corrupted";
  (ver, len)

let parse_any ~versions data =
  let ver, _ = validate ~versions data in
  match Marshal.from_bytes data header_bytes with
  | v -> (ver, Obj.repr v)
  | exception _ -> corrupt "payload does not unmarshal"

(* Write the container to [path ^ ".tmp"]; under chaos, read it back and
   validate it — a Torn_write is silent, and without this verify the
   rename below would install a corrupt file as the last-good
   checkpoint. *)
let write_tmp ~chaos ~site ~tmp ~version v =
  Chaos.write_with chaos ~site:(site ^ ".write") tmp
    (write_container ~version tmp v);
  if Chaos.enabled chaos then begin
    let back =
      try Chaos.read_raw tmp
      with Sys_error msg -> corrupt "verify after save failed: %s" msg
    in
    match validate ~versions:[ version ] back with
    | _ -> ()
    | exception Corrupt msg ->
        corrupt "torn write detected verifying %s (%s)" tmp msg
  end

(* A write that fails removes its half-written tmp before it raises, so
   no later run or listing trips over it; whatever [path] held is
   untouched. *)
let write_tmp_or_clean ~chaos ~site ~tmp ~version v =
  try write_tmp ~chaos ~site ~tmp ~version v
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let save ?(chaos = Chaos.disabled) ?(site = "checkpoint") ~path ~version v =
  let tmp = path ^ ".tmp" in
  write_tmp_or_clean ~chaos ~site ~tmp ~version v;
  (* fsync happened before the rename: the rename must never become
     durable ahead of the data it points at *)
  Sys.rename tmp path

let load_any ?(chaos = Chaos.disabled) ?(site = "checkpoint") ~path ~versions
    () =
  let data =
    try Chaos.read_file chaos ~site:(site ^ ".read") path with
    | Sys_error msg -> corrupt "cannot open checkpoint: %s" msg
    | Chaos.Injected _ as e -> corrupt "cannot read: %s" (Printexc.to_string e)
  in
  parse_any ~versions data

let load ?chaos ?site ~path ~version () =
  Obj.obj (snd (load_any ?chaos ?site ~path ~versions:[ version ] ()))

(* ------------------------------------------------------------------ *)
(* Rotation, quarantine, stale-tmp hygiene                             *)

let rotated_path path = path ^ ".1"
let quarantine_dir ~path = Filename.concat (Filename.dirname path) "quarantine"

let quarantine ?(chaos = Chaos.disabled) path =
  if Sys.file_exists path then begin
    let dir = quarantine_dir ~path in
    (try if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
     with Unix.Unix_error _ -> ());
    let base = Filename.basename path in
    let rec fresh k =
      let d =
        Filename.concat dir
          (if k = 0 then base else Printf.sprintf "%s.%d" base k)
      in
      if Sys.file_exists d then fresh (k + 1) else d
    in
    let dest = fresh 0 in
    try
      Sys.rename path dest;
      Chaos.note_quarantine chaos;
      Some dest
    with Sys_error _ -> None
  end
  else None

let clean_stale ~path =
  let tmp = path ^ ".tmp" in
  if Sys.file_exists tmp then (
    try
      Sys.remove tmp;
      true
    with Sys_error _ -> false)
  else false

let save_rotated ?(chaos = Chaos.disabled) ?(site = "checkpoint") ~path
    ~version v =
  let tmp = path ^ ".tmp" in
  write_tmp_or_clean ~chaos ~site ~tmp ~version v;
  if Sys.file_exists path then (
    try Sys.rename path (rotated_path path) with Sys_error _ -> ());
  Sys.rename tmp path

let load_rotated_any ?(chaos = Chaos.disabled) ?(site = "checkpoint") ~path
    ~versions () =
  let attempt p = load_any ~chaos ~site ~path:p ~versions () in
  try attempt path
  with Corrupt _ as first -> (
    (* The primary is unreadable: move it aside as evidence and fall back
       to the previous rotation rather than aborting the resume. *)
    (match quarantine ~chaos path with
    | Some dest ->
        Diag.printf "checkpoint: quarantined corrupt %s -> %s\n" path dest
    | None -> ());
    match attempt (rotated_path path) with
    | v ->
        Diag.printf "checkpoint: resumed from rotation %s\n" (rotated_path path);
        v
    | exception Corrupt _ -> raise first)

let load_rotated ?chaos ?site ~path ~version () =
  Obj.obj (snd (load_rotated_any ?chaos ?site ~path ~versions:[ version ] ()))
