(* Seed-deterministic environment-fault injection.  See chaos.mli for
   the contract; the two structural commitments here are (a) one
   SplitMix64 stream *per site*, so the fault schedule at any site is a
   pure function of (seed, site, operation index) and is insensitive to
   operation interleavings at other sites, and (b) the injector is the
   only thing that touches the PRNG, so a disabled instance costs one
   branch per operation.

   The PRNG is the same SplitMix64 core as Asyncolor_util.Prng but
   deliberately not shared: stream origins are derived from (seed, site)
   and [stream_int] reduces by remainder where Prng.int rejection-samples,
   so switching would change every recorded checkpoint/spill fault
   schedule.  It also keeps resilience depending on obs alone. *)

module Obs = Asyncolor_obs.Obs

type fault = Enospc | Eio | Torn_write | Fsync_fail | Bit_rot

let fault_name = function
  | Enospc -> "enospc"
  | Eio -> "eio"
  | Torn_write -> "torn-write"
  | Fsync_fail -> "fsync-fail"
  | Bit_rot -> "bit-rot"

exception Injected of { site : string; op : int; fault : fault }

let () =
  Printexc.register_printer (function
    | Injected { site; op; fault } ->
        Some
          (Printf.sprintf "Chaos.Injected(%s at %s op %d)" (fault_name fault)
             site op)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* SplitMix64                                                          *)

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

type stream = { mutable state : int64; mutable op : int }

let stream_next st =
  st.state <- Int64.add st.state golden_gamma;
  mix64 st.state

(* Uniform in [0, 1) from the top 53 bits. *)
let stream_u01 st =
  Int64.to_float (Int64.shift_right_logical (stream_next st) 11)
  /. 9007199254740992.0

let stream_int st n = Int64.to_int (Int64.rem (Int64.shift_right_logical (stream_next st) 1) (Int64.of_int n))

(* ------------------------------------------------------------------ *)

type inner = {
  seed : int;
  rate : float;
  sites : string list option;
  mu : Mutex.t;  (* streams table + stream state; callers span domains *)
  streams : (string, stream) Hashtbl.t;
  n_injected : int Atomic.t;
  n_quarantined : int Atomic.t;
  c_injected : Obs.Counter.t;
  c_quarantined : Obs.Counter.t;
}

type t = inner option

let disabled : t = None

let create ?(obs = Obs.disabled) ?(rate = 0.0) ?sites ~seed () : t =
  Some
    {
      seed;
      rate = Float.min 1.0 (Float.max 0.0 rate);
      sites;
      mu = Mutex.create ();
      streams = Hashtbl.create 16;
      n_injected = Atomic.make 0;
      n_quarantined = Atomic.make 0;
      c_injected = Obs.counter obs "chaos.injected";
      c_quarantined = Obs.counter obs "chaos.quarantined";
    }

let enabled = function None -> false | Some _ -> true

type stats = { injected : int; quarantined : int }

let stats : t -> stats = function
  | None -> { injected = 0; quarantined = 0 }
  | Some c ->
      {
        injected = Atomic.get c.n_injected;
        quarantined = Atomic.get c.n_quarantined;
      }

let note_quarantine = function
  | None -> ()
  | Some c ->
      Atomic.incr c.n_quarantined;
      Obs.Counter.incr c.c_quarantined

(* ------------------------------------------------------------------ *)
(* Decision points                                                     *)

let is_prefix p s =
  String.length p <= String.length s && String.sub s 0 (String.length p) = p

let site_armed c site =
  match c.sites with
  | None -> true
  | Some prefixes -> List.exists (fun p -> is_prefix p site) prefixes

let stream_of c site =
  match Hashtbl.find_opt c.streams site with
  | Some st -> st
  | None ->
      (* Derive the stream origin from (seed, site) only; mix so that
         nearby seeds give unrelated schedules. *)
      let origin =
        mix64 (Int64.logxor (Int64.of_int c.seed)
                 (Int64.mul 0x632BE59BD9B4E019L (Int64.of_int (Hashtbl.hash site))))
      in
      let st = { state = origin; op = 0 } in
      Hashtbl.add c.streams site st;
      st

(* One decision = one op on the site's stream: a Bernoulli(rate) draw,
   plus a kind draw iff it hit.  Returns the op index with the fault so
   Injected can report it. *)
let draw (t : t) ~site kinds =
  match t with
  | None -> None
  | Some c when c.rate <= 0.0 || not (site_armed c site) -> None
  | Some c ->
      Mutex.lock c.mu;
      let st = stream_of c site in
      st.op <- st.op + 1;
      let op = st.op in
      let hit = stream_u01 st < c.rate in
      let kind = if hit then Some kinds.(stream_int st (Array.length kinds)) else None in
      Mutex.unlock c.mu;
      (match kind with
      | Some _ ->
          Atomic.incr c.n_injected;
          Obs.Counter.incr c.c_injected
      | None -> ());
      Option.map (fun f -> (op, f)) kind

let write_kinds = [| Enospc; Eio; Torn_write; Fsync_fail |]
let read_kinds = [| Eio; Bit_rot |]

(* A site-deterministic draw that does not count as an operation of the
   fault schedule (the position of a bit-rot flip). *)
let side_u01 t ~site =
  match t with
  | None -> 0.0
  | Some c ->
      Mutex.lock c.mu;
      let u = stream_u01 (stream_of c (site ^ "#side")) in
      Mutex.unlock c.mu;
      u

(* ------------------------------------------------------------------ *)
(* The injectable filesystem                                           *)

let read_raw path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let len = in_channel_length ic in
      let b = Bytes.create len in
      really_input ic b 0 len;
      b)

(* Run [write] on a fresh file at [path]; the file's length after it. *)
let output_with ~fsync path write =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      write oc;
      flush oc;
      if fsync then Unix.fsync (Unix.descr_of_out_channel oc);
      pos_out oc)

(* A drawn fault is realised on the whole written file by cutting it
   back to the prefix the fault leaves, so a streamed write needs no
   copy of its bytes in memory. *)
let write_with t ?(fsync = true) ~site path write =
  match draw t ~site write_kinds with
  | None -> ignore (output_with ~fsync path write)
  | Some (op, Enospc) ->
      (* Disk fills mid-write: half the payload lands, then the error. *)
      let len = output_with ~fsync:false path write in
      Unix.truncate path (len / 2);
      raise (Injected { site; op; fault = Enospc })
  | Some (op, Eio) ->
      let len = output_with ~fsync:false path write in
      Unix.truncate path (min 16 len);
      raise (Injected { site; op; fault = Eio })
  | Some (_, Torn_write) ->
      (* The lying disk: reports success, persists only a prefix.  Only
         a read-back verify can catch this one. *)
      let len = output_with ~fsync path write in
      Unix.truncate path (max 0 (len - max 1 (len / 4)))
  | Some (op, Fsync_fail) ->
      ignore (output_with ~fsync:false path write);
      raise (Injected { site; op; fault = Fsync_fail })
  | Some (_, Bit_rot) -> assert false

let read_file t ~site path =
  match draw t ~site read_kinds with
  | None -> read_raw path
  | Some (op, Eio) -> raise (Injected { site; op; fault = Eio })
  | Some (_, Bit_rot) ->
      let b = read_raw path in
      if Bytes.length b > 0 then begin
        let i =
          int_of_float (side_u01 t ~site *. float_of_int (Bytes.length b))
        in
        let i = min i (Bytes.length b - 1) in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40))
      end;
      b
  | Some (_, (Enospc | Torn_write | Fsync_fail)) -> assert false
