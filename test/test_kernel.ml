(* Tests for Asyncolor_kernel: engine semantics (the state model of paper
   §2.1-2.2), adversaries, snapshots, runner. *)

module Step = Asyncolor_kernel.Step
module Status = Asyncolor_kernel.Status
module Adversary = Asyncolor_kernel.Adversary
module Engine = Asyncolor_kernel.Engine
module Builders = Asyncolor_topology.Builders
module Prng = Asyncolor_util.Prng

let check = Alcotest.check
let qtest t = QCheck_alcotest.to_alcotest t

(* A probe protocol that records everything it sees: state is the list of
   views read so far; it returns its identifier after [ttl] rounds. *)
module Probe (TTL : sig
  val ttl : int
end) =
struct
  type state = { ident : int; rounds : int; views : int option list list }
  type register = int (* round counter of the writer at write time *)
  type output = int

  let name = "probe"
  let init ~ident = { ident; rounds = 0; views = [] }
  let publish s = s.rounds

  let transition s ~view =
    let seen = Array.to_list view in
    let s = { s with rounds = s.rounds + 1; views = seen :: s.views } in
    if s.rounds >= TTL.ttl then Step.Return s.ident else Step.Continue s

  let equal_state a b = a = b
  let equal_register = Int.equal

  let encode_state emit s =
    emit s.ident;
    emit s.rounds;
    emit (List.length s.views);
    List.iter
      (fun view ->
        emit (List.length view);
        List.iter
          (function
            | None -> emit 0
            | Some v ->
                emit 1;
                emit v)
          view)
      s.views

  let encode_register emit (r : register) = emit r
  let encode_output emit (c : output) = emit c

  (* The inverse of [encode_state]: each view, then the list of views,
     is length-prefixed. *)
  let decode_state data pos _ =
    let at = ref (pos + 3) in
    let next () =
      let x = data.(!at) in
      incr at;
      x
    in
    let views =
      List.init data.(pos + 2) (fun _ ->
          List.init (next ()) (fun _ ->
              match next () with 0 -> None | _ -> Some (next ())))
    in
    { ident = data.(pos); rounds = data.(pos + 1); views }

  let decode_register data pos _ : register = data.(pos)
  let decode_output data pos _ : output = data.(pos)
  let pp_state ppf s = Format.fprintf ppf "{id=%d;r=%d}" s.ident s.rounds
  let pp_register = Format.pp_print_int
  let pp_output = Format.pp_print_int
end

module P3 = Probe (struct
  let ttl = 3
end)

module E3 = Engine.Make (P3)

let idents3 = [| 10; 20; 30 |]
let mk () = E3.create (Builders.cycle 3) ~idents:idents3

(* --- basic lifecycle ------------------------------------------------ *)

let test_initial_state () =
  let e = mk () in
  check Alcotest.int "n" 3 (E3.n e);
  check Alcotest.int "time" 0 (E3.time e);
  for p = 0 to 2 do
    check Alcotest.bool "asleep" true (Status.is_asleep (E3.status e p));
    check Alcotest.bool "register ⊥" true (E3.public e p = None);
    check Alcotest.int "no activations" 0 (E3.activations e p)
  done;
  check Alcotest.(list int) "all unfinished" [ 0; 1; 2 ] (E3.unfinished e);
  Alcotest.check_raises "state of asleep raises"
    (Invalid_argument "Engine.state: process still asleep") (fun () ->
      ignore (E3.state e 0))

let test_wake_and_count () =
  let e = mk () in
  E3.activate e [ 0 ];
  check Alcotest.bool "working" true (Status.is_working (E3.status e 0));
  check Alcotest.int "one activation" 1 (E3.activations e 0);
  check Alcotest.int "time advanced" 1 (E3.time e);
  check Alcotest.bool "neighbour still asleep" true (Status.is_asleep (E3.status e 1))

let test_bot_visible_before_wake () =
  let e = mk () in
  E3.activate e [ 0 ];
  (* p0's first view must be [⊥; ⊥] — neighbours never woke. *)
  let s = E3.state e 0 in
  check
    Alcotest.(list (list (option int)))
    "first view all ⊥"
    [ [ None; None ] ]
    s.P3.views

let test_write_before_read_simultaneous () =
  (* Both neighbours of the cycle activated in the SAME step must see each
     other's just-written register (write phase precedes read phase). *)
  let e = mk () in
  E3.activate e [ 0; 1 ];
  let s0 = E3.state e 0 and s1 = E3.state e 1 in
  (* p0's neighbours are 1 and 2; p1 published rounds=0 in this step. *)
  check
    Alcotest.(list (list (option int)))
    "p0 sees p1's fresh write"
    [ [ Some 0; None ] ]
    s0.P3.views;
  check
    Alcotest.(list (list (option int)))
    "p1 sees p0's fresh write"
    [ [ Some 0; None ] ]
    s1.P3.views

let test_register_is_stale_by_one_round () =
  (* After p0 completes one round its private rounds = 1, but the register
     still holds the value written at the START of that round (0).  The
     neighbour activated afterwards reads the stale value. *)
  let e = mk () in
  E3.activate e [ 0 ];
  E3.activate e [ 1 ];
  let s1 = E3.state e 1 in
  check
    Alcotest.(list (list (option int)))
    "p1 reads p0's round-start value"
    [ [ Some 0; None ] ]
    s1.P3.views

let test_returned_ignores_activation () =
  let e = mk () in
  for _ = 1 to 3 do
    E3.activate e [ 0 ]
  done;
  check Alcotest.bool "returned" true (Status.is_returned (E3.status e 0));
  check Alcotest.int "3 activations" 3 (E3.activations e 0);
  E3.activate e [ 0 ];
  check Alcotest.int "no further activations" 3 (E3.activations e 0);
  check Alcotest.(list int) "unfinished shrunk" [ 1; 2 ] (E3.unfinished e)

let test_duplicate_activation_collapsed () =
  let e = mk () in
  E3.activate e [ 0; 0; 0 ];
  check Alcotest.int "deduplicated" 1 (E3.activations e 0)

(* Input validation: out-of-range indices raise before the engine mutates
   (the documented contract shared by [activate] and [activate_mask]). *)

let test_activate_out_of_range () =
  let e = mk () in
  E3.activate e [ 0 ];
  let t0 = E3.time e in
  let acts0 = E3.activations e 0 in
  List.iter
    (fun bad ->
      (match E3.activate e bad with
      | () -> Alcotest.failf "activate %s: expected Invalid_argument"
                (String.concat "," (List.map string_of_int bad))
      | exception Invalid_argument _ -> ());
      check Alcotest.int "time unchanged" t0 (E3.time e);
      check Alcotest.int "no activation happened" acts0 (E3.activations e 0);
      check Alcotest.bool "nobody woke up" true (Status.is_asleep (E3.status e 1)))
    [ [ 3 ]; [ -1 ]; [ 0; 3 ]; [ 1; -5; 2 ] ]

let test_activate_mask_out_of_range () =
  let e = mk () in
  let t0 = E3.time e in
  List.iter
    (fun bad ->
      (match E3.activate_mask e bad with
      | () -> Alcotest.failf "activate_mask %#x: expected Invalid_argument" bad
      | exception Invalid_argument _ -> ());
      check Alcotest.int "time unchanged" t0 (E3.time e))
    [ 0b1000; -1; 0b1001; max_int ]

let test_activate_mask_list_agree_on_valid_sets () =
  (* The two entry points stay observably identical on every valid set. *)
  let e1 = mk () and e2 = mk () in
  let sets = [ [ 0 ]; [ 1; 2 ]; [ 0; 1; 2 ]; []; [ 2 ] ] in
  List.iter
    (fun set ->
      E3.activate e1 set;
      E3.activate_mask e2 (List.fold_left (fun m p -> m lor (1 lsl p)) 0 set))
    sets;
  check Alcotest.int "same time" (E3.time e1) (E3.time e2);
  for p = 0 to 2 do
    check Alcotest.int "same activations" (E3.activations e1 p) (E3.activations e2 p)
  done

let test_outputs_and_all_returned () =
  let e = mk () in
  for _ = 1 to 3 do
    E3.activate e [ 0; 1; 2 ]
  done;
  check Alcotest.bool "all returned" true (E3.all_returned e);
  check
    Alcotest.(array (option int))
    "outputs are identifiers"
    [| Some 10; Some 20; Some 30 |]
    (E3.outputs e)

let test_monitor_runs_every_step () =
  let e = mk () in
  let calls = ref 0 in
  E3.set_monitor e (fun _ -> incr calls);
  E3.activate e [ 0 ];
  E3.activate e [ 1; 2 ];
  check Alcotest.int "monitor called per step" 2 !calls

let test_trace_recording () =
  let e = E3.create ~record_trace:true (Builders.cycle 3) ~idents:idents3 in
  E3.activate e [ 0; 2 ];
  E3.activate e [ 1 ];
  E3.activate e [ 0 ];
  E3.activate e [ 0 ];
  match E3.trace e with
  | [ e1; e2; e3; e4 ] ->
      check Alcotest.(list int) "step1 set" [ 0; 2 ] e1.E3.activated;
      check Alcotest.int "step1 time" 1 e1.E3.time;
      check Alcotest.(list int) "step2 set" [ 1 ] e2.E3.activated;
      check Alcotest.(list (pair int int)) "no early returns" [] e3.E3.returned;
      check Alcotest.(list (pair int int)) "p0 returns at 3rd activation"
        [ (0, 10) ] e4.E3.returned
  | l -> Alcotest.failf "expected 4 events, got %d" (List.length l)

let test_spacetime_rendering () =
  let e = E3.create ~record_trace:true (Builders.cycle 3) ~idents:idents3 in
  E3.activate e [ 0 ];
  E3.activate e [ 1; 2 ];
  E3.activate e [ 0 ];
  E3.activate e [ 0 ];
  E3.activate e [ 1 ];
  let s = Format.asprintf "%a" E3.pp_spacetime e in
  let lines = String.split_on_char '\n' s in
  check Alcotest.int "header + 5 steps" 6 (List.length lines);
  check Alcotest.bool "step 1 activates only p0" true
    (Astring.String.is_infix ~affix:"1 #.." s);
  check Alcotest.bool "p0 returns at its 3rd activation (step 4)" true
    (Astring.String.is_infix ~affix:"4 R.." s);
  check Alcotest.bool "p0 past-return marker at step 5" true
    (Astring.String.is_infix ~affix:"5 _#." s)

let test_idents_length_mismatch () =
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Engine.create: idents length must match node count")
    (fun () -> ignore (E3.create (Builders.cycle 3) ~idents:[| 1; 2 |]))

(* --- snapshots ------------------------------------------------------ *)

let test_snapshot_restore_roundtrip () =
  let e = mk () in
  E3.activate e [ 0; 1 ];
  let snap = E3.snapshot e in
  E3.activate e [ 0; 1; 2 ];
  E3.activate e [ 0 ];
  E3.restore e snap;
  check Alcotest.bool "p2 asleep again" true (Status.is_asleep (E3.status e 2));
  check Alcotest.int "p0 state rewound" 1 (E3.state e 0).P3.rounds;
  (* determinism: re-running the same steps gives the same configs *)
  E3.activate e [ 0; 1; 2 ];
  let again = E3.snapshot e in
  E3.restore e snap;
  E3.activate e [ 0; 1; 2 ];
  check Alcotest.int "deterministic replay" 0 (E3.config_compare again (E3.snapshot e))

let test_restore_rewinds_observers () =
  (* the restore contract: time and the per-process activation counters are
     part of the execution point and must rewind with it, so longest-path
     statistics measured from a restored configuration start from the
     configuration's own counters, not the detour's *)
  let e = mk () in
  E3.activate e [ 0; 1 ];
  E3.activate e [ 0 ];
  let snap = E3.snapshot e in
  let time = E3.time e and act0 = E3.activations e 0 in
  E3.activate e [ 0; 1; 2 ];
  E3.activate e [ 0; 1; 2 ];
  E3.restore e snap;
  check Alcotest.int "time rewound" time (E3.time e);
  check Alcotest.int "p0 activations rewound" act0 (E3.activations e 0);
  check Alcotest.int "p2 never activated" 0 (E3.activations e 2);
  check Alcotest.int "max activations rewound" act0 (E3.max_activations e);
  (* a snapshot is immune to later detours: restoring twice is idempotent *)
  E3.activate e [ 2 ];
  E3.restore e snap;
  check Alcotest.int "idempotent" time (E3.time e)

let test_config_key_identity () =
  (* packed keys agree with [config_compare]: equal configurations collide,
     distinct ones do not — including configurations that differ only in
     execution point (same key, they are the same configuration) *)
  let e = mk () in
  E3.activate e [ 0; 1 ];
  let a = E3.snapshot e in
  E3.restore e a;
  let b = E3.snapshot e in
  check Alcotest.bool "equal configs, equal keys" true
    (E3.key_equal (E3.config_key a) (E3.config_key b));
  check Alcotest.int "equal keys, equal hash"
    (E3.key_hash (E3.config_key a))
    (E3.key_hash (E3.config_key b));
  E3.activate e [ 2 ];
  let c = E3.snapshot e in
  check Alcotest.bool "distinct configs, distinct keys" false
    (E3.key_equal (E3.config_key a) (E3.config_key c));
  (* keys agree with config_compare across a batch of snapshots *)
  let e' = mk () in
  let snaps =
    b :: c
    :: List.map
         (fun set ->
           E3.activate e' set;
           E3.snapshot e')
         [ [ 0 ]; [ 1 ]; [ 0; 1 ]; [ 2 ]; [ 0; 1; 2 ] ]
  in
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          check Alcotest.bool "key_equal iff config_compare = 0"
            (E3.config_compare x y = 0)
            (E3.key_equal (E3.config_key x) (E3.config_key y)))
        snaps)
    snaps

(* [E.key] and the shared segment encoder, on random walks of the real
   protocols.  Two engines run in lockstep, one stepped through the list
   API and one through masks; masks may name returned processes and, with
   [resets], a step may instead reset a node to a fresh identifier.  At
   every step the live key must equal the snapshot's key, and the two
   engines' keys must agree: the per-node view buffers may leak nothing
   between entry points or between nodes.  The snapshot's segment offsets
   must frame its key (start at 0, nondecreasing, end at its length), and
   for every rotation and reflection sigma of the cycle the key of
   [config_permute c sigma] must be the offset slices concatenated in
   sigma-order — the invariant orbit canonicalization compares by. *)
module Key_walk (P : Asyncolor_kernel.Protocol.S) = struct
  module E = Engine.Make (P)

  let offsets_frame_key c dihedral =
    let key, offs = E.config_key_offsets c in
    let data = E.key_data key in
    let n = Array.length offs - 1 in
    let slice p = Array.sub data offs.(p) (offs.(p + 1) - offs.(p)) in
    E.key_data key = E.key_data (E.config_key c)
    && E.key_hash key = E.key_hash (E.config_key c)
    && offs.(0) = 0
    && offs.(n) = Array.length data
    && List.for_all (fun p -> offs.(p) <= offs.(p + 1)) (List.init n Fun.id)
    && List.for_all
         (fun sigma ->
           E.key_data (E.config_key (E.config_permute c sigma))
           = Array.concat (List.map slice (Array.to_list sigma)))
         dihedral

  let keys_agree dihedral eng =
    let c = E.snapshot eng in
    let live = E.key eng and packed = E.config_key c in
    E.key_data live = E.key_data packed
    && E.key_hash live = E.key_hash packed
    && offsets_frame_key c dihedral

  let walk ~resets (n, seed) =
    let prng = Prng.create ~seed in
    let idents =
      Asyncolor_workload.Idents.random_permutation (Prng.split prng) n
    in
    let g = Builders.cycle n in
    let dihedral = Asyncolor_topology.Graph.automorphisms g in
    let keys_agree = keys_agree dihedral in
    let by_list = E.create g ~idents and by_mask = E.create g ~idents in
    let next_ident = ref (10 * n) in
    let ok = ref (keys_agree by_list) in
    for _ = 1 to 40 do
      if resets && Prng.int prng 6 = 0 then begin
        let p = Prng.int prng n in
        incr next_ident;
        E.reset by_list p ~ident:!next_ident;
        E.reset by_mask p ~ident:!next_ident
      end
      else begin
        let mask = 1 + Prng.int prng ((1 lsl n) - 1) in
        E.activate by_list
          (List.filter (fun p -> mask land (1 lsl p) <> 0) (List.init n Fun.id));
        E.activate_mask by_mask mask
      end;
      ok :=
        !ok && keys_agree by_list && keys_agree by_mask
        && E.key_data (E.key by_list) = E.key_data (E.key by_mask)
    done;
    !ok

  let prop name ~resets =
    QCheck.Test.make ~name:("E.key = config_key (snapshot), " ^ name)
      ~count:60
      QCheck.(pair (int_range 5 8) (int_range 0 10_000))
      (walk ~resets)
end

module Walk1 = Key_walk (Asyncolor.Algorithm1.P)
module Walk2 = Key_walk (Asyncolor.Algorithm2.P)
module Walk3 = Key_walk (Asyncolor.Algorithm3.P)

(* The engine's incremental unfinished mask against a status scan, on
   random walks of the real protocols that interleave every operation
   which moves it: list and mask steps, resets, snapshots and restores.
   After each operation the mask must equal the scan and [all_returned]
   must agree with it; a mask step must step exactly the masked
   processes that were unfinished before it, as the activation counters
   show.  n ranges over small cycles and the two widest the mask
   supports. *)
module Mask_walk (P : Asyncolor_kernel.Protocol.S) = struct
  module E = Engine.Make (P)

  let scan eng =
    let m = ref 0 in
    for p = 0 to E.n eng - 1 do
      if not (Status.is_returned (E.status eng p)) then m := !m lor (1 lsl p)
    done;
    !m

  let consistent eng =
    E.unfinished_mask eng = scan eng
    && E.all_returned eng
       = Array.for_all Status.is_returned (Array.init (E.n eng) (E.status eng))

  let walk (n, seed) =
    let prng = Prng.create ~seed in
    let idents =
      Asyncolor_workload.Idents.random_permutation (Prng.split prng) n
    in
    let eng = E.create (Builders.cycle n) ~idents in
    let all = (1 lsl n) - 1 in
    (* dense and sparse random masks, so that steps both finish processes
       quickly and leave most of the cycle alone *)
    let random_mask () =
      if Prng.bool prng then Prng.bool_mask prng all
      else Prng.bool_mask prng all land Prng.bool_mask prng all
    in
    let snaps = ref [||] in
    let next_ident = ref (10 * n) in
    let ok = ref (consistent eng) in
    for _ = 1 to 80 do
      (match Prng.int prng 5 with
      | 0 ->
          let mask = random_mask () in
          E.activate eng
            (List.filter (fun p -> mask land (1 lsl p) <> 0) (List.init n Fun.id))
      | 1 ->
          let mask = random_mask () in
          let before = scan eng in
          let acts = Array.init n (E.activations eng) in
          E.activate_mask eng mask;
          for p = 0 to n - 1 do
            let stepped = if mask land before land (1 lsl p) <> 0 then 1 else 0 in
            if E.activations eng p <> acts.(p) + stepped then ok := false
          done
      | 2 ->
          incr next_ident;
          E.reset eng (Prng.int prng n) ~ident:!next_ident
      | 3 -> snaps := Array.append !snaps [| E.snapshot eng |]
      | _ ->
          if !snaps <> [||] then E.restore eng (Prng.choose prng !snaps));
      ok := !ok && consistent eng
    done;
    !ok

  let prop name =
    QCheck.Test.make ~name:("unfinished mask = status scan, " ^ name)
      ~count:100
      QCheck.(pair (oneofl [ 3; 4; 5; 6; 7; 8; 61; 62 ]) (int_range 0 10_000))
      walk
end

module Mask2 = Mask_walk (Asyncolor.Algorithm2.P)
module Mask3 = Mask_walk (Asyncolor.Algorithm3.P)

(* The segment cache and the restore fast path against their full
   counterparts, on random sequences of every operation that moves them:
   restores of the configuration restored last or of another one, list
   and mask steps, resets and snapshots.  Three engines take the same
   operations.  [fast] and [lazy_] restore the snapshots themselves, so
   restoring the configuration restored last takes the fast path; [full]
   restores a fresh copy each time (an identity [config_permute]), so it
   always copies the whole configuration.  After every operation [fast]
   and [lazy_] must equal [full] in [config_compare], time, activation
   counters and unfinished mask; on [fast], [key], [key_probe] and
   [config_key (snapshot)] must agree in data and hash.  [lazy_] is keyed
   only now and then, so stale marks pile up across operations between
   its keys.  n runs over C3..C8 and one cycle past the mask width, where
   every restore and key takes the full path. *)
module Cache_walk (P : Asyncolor_kernel.Protocol.S) = struct
  module E = Engine.Make (P)

  let keys_agree eng =
    let packed = E.config_key (E.snapshot eng) in
    let copied = E.key eng in
    let probe = E.key_probe eng in
    List.for_all
      (fun k ->
        E.key_data k = E.key_data packed
        && E.key_hash k = E.key_hash packed
        && E.key_equal k packed)
      [ copied; probe; E.key_of_data (E.key_data probe) ]

  let same a b =
    let n = E.n a in
    E.config_compare (E.snapshot a) (E.snapshot b) = 0
    && E.time a = E.time b
    && List.for_all
         (fun p -> E.activations a p = E.activations b p)
         (List.init n Fun.id)
    && (n > Sys.int_size - 1 || E.unfinished_mask a = E.unfinished_mask b)

  let walk (n, seed) =
    let prng = Prng.create ~seed in
    let idents =
      Asyncolor_workload.Idents.random_permutation (Prng.split prng) n
    in
    let g = Builders.cycle n in
    let fast = E.create g ~idents
    and lazy_ = E.create g ~idents
    and full = E.create g ~idents in
    let engines = [ fast; lazy_; full ] in
    let masked = n <= Sys.int_size - 1 in
    let all = if masked then (1 lsl n) - 1 else 0 in
    let random_set () =
      List.filter (fun _ -> Prng.int prng 3 = 0) (List.init n Fun.id)
    in
    let random_mask () =
      if Prng.bool prng then Prng.bool_mask prng all
      else Prng.bool_mask prng all land Prng.bool_mask prng all
    in
    let identity = Array.init n Fun.id in
    let snaps = ref [||] and last = ref None in
    let next_ident = ref (10 * n) in
    let ok = ref (keys_agree fast) in
    for _ = 1 to 60 do
      (match Prng.int prng 6 with
      | 0 | 1 -> (
          let c =
            match !last with
            | Some c when Prng.bool prng -> Some c
            | _ -> if !snaps = [||] then None else Some (Prng.choose prng !snaps)
          in
          match c with
          | None -> ()
          | Some c ->
              E.restore fast c;
              E.restore lazy_ c;
              E.restore full (E.config_permute c identity);
              last := Some c)
      | 2 when masked ->
          let mask = random_mask () in
          List.iter (fun e -> E.activate_mask e mask) engines
      | 2 | 3 ->
          let set = random_set () in
          List.iter (fun e -> E.activate e set) engines
      | 4 ->
          let p = Prng.int prng n in
          incr next_ident;
          List.iter (fun e -> E.reset e p ~ident:!next_ident) engines
      | _ -> snaps := Array.append !snaps [| E.snapshot fast |]);
      ok :=
        !ok && same fast full && same lazy_ full && keys_agree fast
        && (Prng.int prng 4 <> 0 || keys_agree lazy_)
    done;
    !ok

  let prop name =
    QCheck.Test.make
      ~name:("segment cache and fast restore = full path, " ^ name)
      ~count:100
      QCheck.(pair (oneofl [ 3; 4; 5; 6; 7; 8; 8; Sys.int_size ]) (int_range 0 10_000))
      walk
end

module Cache1 = Cache_walk (Asyncolor.Algorithm1.P)
module Cache2 = Cache_walk (Asyncolor.Algorithm2.P)
module Cache3 = Cache_walk (Asyncolor.Algorithm3.P)

(* --- decoders: decode (encode x) = x --------------------------------- *)

(* The ints [enc] emits for [x]. *)
let encoded enc x =
  let acc = ref [] in
  enc (fun i -> acc := i :: !acc) x;
  Array.of_list (List.rev !acc)

(* Decode [x]'s encoding from the middle of a larger buffer, so a decoder
   that ignores its position, or reads a neighbour's ints, is caught. *)
let round_trip enc dec equal x =
  let d = encoded enc x in
  let buf = Array.concat [ [| 91; -17 |]; d; [| 53; -8 |] ] in
  equal (dec buf 2 (Array.length d)) x

(* One qcheck per encoder of a protocol: state, register and output each
   come back equal from their encoding. *)
module Codec_props
    (P : Asyncolor_kernel.Protocol.S) (G : sig
      val state : P.state QCheck.Gen.t
      val register : P.register QCheck.Gen.t
      val output : P.output QCheck.Gen.t
      val equal_output : P.output -> P.output -> bool
    end) =
struct
  let prop what gen enc dec equal =
    QCheck.Test.make
      ~name:(Printf.sprintf "%s: decode_%s (encode_%s x) = x" P.name what what)
      ~count:200 (QCheck.make gen)
      (round_trip enc dec equal)

  let tests =
    [
      prop "state" G.state P.encode_state P.decode_state P.equal_state;
      prop "register" G.register P.encode_register P.decode_register
        P.equal_register;
      prop "output" G.output P.encode_output P.decode_output G.equal_output;
    ]
end

(* Field values: small ones, as protocols write them, and any int, so
   the varint and sign handling of the store never matter here. *)
let field = QCheck.Gen.(oneof [ int_range (-3) 40; int ])
let color_pair = QCheck.Gen.pair field field
let small_list = QCheck.Gen.(list_size (int_range 0 6) field)
let int_set = QCheck.Gen.map Asyncolor.Instrument.IntSet.of_list small_list
let int_set2 = QCheck.Gen.map Asyncolor.Instrument2.IntSet.of_list small_list

module A1_codec =
  Codec_props
    (Asyncolor.Algorithm1.P)
    (struct
      let state =
        QCheck.Gen.map3 (fun x a b -> { Asyncolor.Algorithm1.x; a; b }) field field field

      let register = state
      let output = color_pair
      let equal_output = ( = )
    end)

module A2_codec =
  Codec_props
    (Asyncolor.Algorithm2.P)
    (struct
      let state =
        QCheck.Gen.map3 (fun x a b -> { Asyncolor.Algorithm2.x; a; b }) field field field

      let register = state
      let output = field
      let equal_output = Int.equal
    end)

module A2s_codec =
  Codec_props
    (Asyncolor.Algorithm2s.P)
    (struct
      let state =
        QCheck.Gen.map3 (fun x a b -> { Asyncolor.Algorithm2s.x; a; b }) field field field

      let register = state
      let output = field
      let equal_output = Int.equal
    end)

let rank =
  QCheck.Gen.(
    oneof
      [ return Asyncolor.Rank.Inf; map (fun k -> Asyncolor.Rank.Fin k) field ])

module A3_codec =
  Codec_props
    (Asyncolor.Algorithm3.P)
    (struct
      let state =
        QCheck.Gen.(
          map
            (fun (x, r, a, b) -> { Asyncolor.Algorithm3.x; r; a; b })
            (quad field rank field field))

      let register = state
      let output = field
      let equal_output = Int.equal
    end)

module Instrument_codec =
  Codec_props
    (Asyncolor.Instrument.P)
    (struct
      let state =
        QCheck.Gen.(
          map
            (fun ((x, a, b), (a_set, b_set), (higher_awake, lower_awake)) ->
              {
                Asyncolor.Instrument.base = { Asyncolor.Algorithm1.x; a; b };
                shadow = { a_set; b_set };
                higher_awake;
                lower_awake;
              })
            (triple (triple field field field) (pair int_set int_set)
               (pair field field)))

      let register = state
      let output = color_pair
      let equal_output = ( = )
    end)

module Instrument2_codec =
  Codec_props
    (Asyncolor.Instrument2.P)
    (struct
      let state =
        QCheck.Gen.(
          map
            (fun ((x, a, b), a_set, higher_awake) ->
              {
                Asyncolor.Instrument2.base = { Asyncolor.Algorithm2.x; a; b };
                a_set;
                higher_awake;
              })
            (triple (triple field field field) int_set2 field))

      let register = state
      let output = field
      let equal_output = Int.equal
    end)

module Mis = Asyncolor_shm.Mis

let greedy_state = QCheck.Gen.map (fun x -> { Mis.Greedy.x }) field

let cautious_state =
  QCheck.Gen.(
    map2
      (fun x decision -> { Mis.Cautious.x; decision })
      field
      (oneofl Mis.Cautious.[ Undecided; Pending false; Pending true ]))

module Greedy_codec =
  Codec_props
    (Mis.Greedy.P)
    (struct
      let state = greedy_state
      let register = state
      let output = QCheck.Gen.bool
      let equal_output = Bool.equal
    end)

module Cautious_codec =
  Codec_props
    (Mis.Cautious.P)
    (struct
      let state = cautious_state
      let register = state
      let output = QCheck.Gen.bool
      let equal_output = Bool.equal
    end)

module Red_greedy = Asyncolor_shm.Reduction.Make (Mis.Greedy.P)
module Red_cautious = Asyncolor_shm.Reduction.Make (Mis.Cautious.P)

module Red_greedy_codec =
  Codec_props
    (Red_greedy.P)
    (struct
      let state =
        QCheck.Gen.map2 (fun me inner -> { Red_greedy.me; inner }) field greedy_state

      let register = greedy_state
      let output = field
      let equal_output = Int.equal
    end)

module Red_cautious_codec =
  Codec_props
    (Red_cautious.P)
    (struct
      let state =
        QCheck.Gen.map2
          (fun me inner -> { Red_cautious.me; inner })
          field cautious_state

      let register = cautious_state
      let output = field
      let equal_output = Int.equal
    end)

module Renaming_codec =
  Codec_props
    (Asyncolor_shm.Renaming.P)
    (struct
      let state =
        QCheck.Gen.map2
          (fun x proposal -> { Asyncolor_shm.Renaming.x; proposal })
          field field

      let register = state
      let output = field
      let equal_output = Int.equal
    end)

module Probe_codec =
  Codec_props
    (P3)
    (struct
      let state =
        QCheck.Gen.(
          map3
            (fun ident rounds views -> { P3.ident; rounds; views })
            field field
            (list_size (int_range 0 4)
               (list_size (int_range 0 3) (opt field))))

      let register = field
      let output = field
      let equal_output = Int.equal
    end)

let codec_tests =
  List.concat
    [
      A1_codec.tests;
      A2_codec.tests;
      A2s_codec.tests;
      A3_codec.tests;
      Instrument_codec.tests;
      Instrument2_codec.tests;
      Greedy_codec.tests;
      Cautious_codec.tests;
      Red_greedy_codec.tests;
      Red_cautious_codec.tests;
      Renaming_codec.tests;
      Probe_codec.tests;
    ]

(* [E.config_of_key_data] against the configurations a random walk of
   the real protocol reaches on a cycle, with random (possibly repeated)
   identifiers and random masks: the decoded configuration has the same
   key, is [config_compare]-equal to the snapshot, and has the same
   unfinished mask; restored into an engine, it keys like the snapshot.
   Its observers are zero. *)
module Decode_walk (P : Asyncolor_kernel.Protocol.S) = struct
  module E = Engine.Make (P)

  let agrees eng c =
    let n = E.n eng in
    let k = E.config_key c in
    let d = E.config_of_key_data ~n (E.key_data k) in
    (* decoding from a longer buffer reads only the [len] given *)
    let padded = Array.append (E.key_data k) [| 7; 7 |] in
    let d' = E.config_of_key_data ~n ~len:(Array.length (E.key_data k)) padded in
    E.key_equal (E.config_key d) k
    && E.config_compare c d = 0
    && E.config_compare c d' = 0
    && E.config_unfinished_mask d = E.config_unfinished_mask c
    &&
    let probe = E.create (E.graph eng) ~idents:(Array.init n (E.ident eng)) in
    E.restore probe d;
    E.key_equal (E.key probe) k
    && E.time probe = 0
    && List.for_all (fun p -> E.activations probe p = 0) (List.init n Fun.id)

  let walk (n, seed) =
    let prng = Prng.create ~seed in
    let idents = Array.init n (fun _ -> Prng.int prng (2 * n)) in
    let eng = E.create (Builders.cycle n) ~idents in
    let ok = ref (agrees eng (E.snapshot eng)) in
    let steps = ref 0 in
    while !ok && !steps < 60 && E.unfinished_mask eng <> 0 do
      incr steps;
      E.activate_mask eng (Prng.bool_mask prng (E.unfinished_mask eng));
      ok := agrees eng (E.snapshot eng)
    done;
    !ok

  let prop name =
    QCheck.Test.make ~name:("config_of_key_data inverts config_key, " ^ name)
      ~count:100
      QCheck.(pair (int_range 3 7) (int_range 0 10_000))
      walk
end

module Decode1 = Decode_walk (Asyncolor.Algorithm1.P)
module Decode2 = Decode_walk (Asyncolor.Algorithm2.P)
module Decode2s = Decode_walk (Asyncolor.Algorithm2s.P)
module Decode3 = Decode_walk (Asyncolor.Algorithm3.P)

(* Data no key of [n] processes can be: each is refused. *)
let test_config_of_key_data_rejects () =
  let module E = Asyncolor.Algorithm2.E in
  let eng = E.create (Builders.cycle 3) ~idents:[| 1; 2; 3 |] in
  E.activate eng [ 0; 1 ];
  let good = E.key_data (E.key eng) in
  let rejects what data =
    match E.config_of_key_data ~n:3 data with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ -> ()
  in
  rejects "truncated" (Array.sub good 0 (Array.length good - 1));
  rejects "trailing data" (Array.append good [| 0 |]);
  rejects "bad status tag" (Array.mapi (fun i x -> if i = 0 then 5 else x) good);
  rejects "empty" [||];
  check Alcotest.bool "the key itself decodes" true
    (E.config_compare (E.snapshot eng) (E.config_of_key_data ~n:3 good) = 0)

module A2 = Asyncolor.Algorithm2

(* Every configuration the full model reaches from [idents] on the cycle,
   interned the explorer's way: each successor is looked up with the
   engine's probe and copied into the table only on a miss.  Returns the
   table (key to BFS id), the configurations by id, and the engine.
   Fails past [cap] configurations: a key whose hash disagrees with its
   data never finds its duplicates, and the search would not end. *)
let intern_reachable ~cap idents =
  let eng = A2.E.create (Builders.cycle (Array.length idents)) ~idents in
  let tbl = A2.E.Key_tbl.create 16 in
  let root = A2.E.snapshot eng in
  let found = ref [ root ] and next = ref 1 in
  A2.E.Key_tbl.add tbl (A2.E.key eng) 0;
  let queue = Queue.create () in
  Queue.push root queue;
  while not (Queue.is_empty queue) do
    let c = Queue.pop queue in
    let um = A2.E.config_unfinished_mask c in
    let s = ref um in
    while !s <> 0 do
      A2.E.restore eng c;
      A2.E.activate_mask eng !s;
      let probe = A2.E.key_probe eng in
      if not (A2.E.Key_tbl.mem tbl probe) then begin
        if !next >= cap then Alcotest.failf "more than %d configurations" cap;
        let succ = A2.E.snapshot eng in
        A2.E.Key_tbl.add tbl (A2.E.key_copy probe) !next;
        found := succ :: !found;
        incr next;
        Queue.push succ queue
      end;
      s := (!s - 1) land um
    done
  done;
  (tbl, Array.of_list (List.rev !found), eng)

(* The key hash must spread the explorer's keys over a [Hashtbl]'s
   buckets, which it indexes by the low hash bits: over the C5 full
   model's keys, a successful lookup must average at most two key
   compares.  The unmixed polynomial hash needs 3.37. *)
let test_key_hash_spread () =
  let tbl, configs, _ = intern_reachable ~cap:100_000 [| 5; 1; 9; 4; 7 |] in
  check Alcotest.int "C5 full-model configurations" 97_197 (Array.length configs);
  let st = A2.E.Key_tbl.stats tbl in
  let compares = ref 0 in
  Array.iteri
    (fun len buckets -> compares := !compares + (buckets * len * (len + 1) / 2))
    st.bucket_histogram;
  let mean = float !compares /. float st.num_bindings in
  if mean > 2.0 then
    Alcotest.failf "%.2f compares per successful lookup (max bucket %d)" mean
      st.max_bucket_length

(* A table filled probe-on-hit, copy-on-miss holds no buffer of the
   engine's: after many more steps overwrite the probe buffers, it still
   equals a table built from [config_key (snapshot)]. *)
let test_probe_lifetime () =
  let tbl, configs, eng = intern_reachable ~cap:3_000 [| 5; 1; 9; 4 |] in
  let prng = Prng.create ~seed:3 in
  for _ = 1 to 2_000 do
    A2.E.restore eng (Prng.choose prng configs);
    let um = A2.E.unfinished_mask eng in
    if um <> 0 then begin
      A2.E.activate_mask eng (Prng.bool_mask prng um);
      ignore (A2.E.key_probe eng)
    end
  done;
  check Alcotest.int "same size" (Array.length configs) (A2.E.Key_tbl.length tbl);
  Array.iteri
    (fun id c ->
      match A2.E.Key_tbl.find_opt tbl (A2.E.config_key c) with
      | Some id' when id' = id -> ()
      | _ -> Alcotest.failf "config %d lost from the probe-filled table" id)
    configs;
  A2.E.Key_tbl.iter
    (fun k id ->
      let packed = A2.E.config_key configs.(id) in
      if A2.E.key_data k <> A2.E.key_data packed
         || A2.E.key_hash k <> A2.E.key_hash packed
      then Alcotest.failf "stored key %d differs from config_key" id)
    tbl

(* Past the mask width the engine keeps its array scans: [run] still
   drives it to completion, and the mask entry points refuse it. *)
let test_wide_engine_without_mask () =
  let module A3 = Asyncolor.Algorithm3 in
  let n = Sys.int_size in
  let e = A3.E.create (Builders.cycle n) ~idents:(Array.init n (fun p -> 3 * p)) in
  let r = A3.E.run e Adversary.synchronous in
  check Alcotest.bool "all returned" true r.all_returned;
  check Alcotest.bool "engine agrees" true (A3.E.all_returned e);
  List.iter
    (fun (what, f) ->
      match f () with
      | () -> Alcotest.failf "%s accepted n = %d" what n
      | exception Invalid_argument _ -> ())
    [
      ("unfinished_mask", fun () -> ignore (A3.E.unfinished_mask e));
      ("activate_mask", fun () -> A3.E.activate_mask e 1);
    ]

let test_config_accessors () =
  let e = mk () in
  E3.activate e [ 1 ];
  let c = E3.snapshot e in
  check Alcotest.(list int) "unfinished from config" [ 0; 1; 2 ]
    (E3.config_unfinished c);
  check Alcotest.(array (option int)) "outputs from config" [| None; None; None |]
    (E3.config_outputs c)

(* --- runner --------------------------------------------------------- *)

let test_run_synchronous () =
  let e = mk () in
  let r = E3.run e Adversary.synchronous in
  check Alcotest.bool "all returned" true r.all_returned;
  check Alcotest.int "steps = ttl" 3 r.steps;
  check Alcotest.int "rounds = ttl" 3 r.rounds;
  check Alcotest.(array int) "activation counts" [| 3; 3; 3 |]
    r.activations_per_process

let test_run_sequential () =
  let e = mk () in
  let r = E3.run e Adversary.sequential in
  check Alcotest.bool "all returned" true r.all_returned;
  check Alcotest.int "steps = 3 * ttl" 9 r.steps

let test_run_max_steps () =
  (* a protocol with huge ttl cut off by max_steps *)
  let module Never = Probe (struct
    let ttl = max_int
  end) in
  let module EN = Engine.Make (Never) in
  let e = EN.create (Builders.cycle 3) ~idents:idents3 in
  let r = EN.run ~max_steps:50 e Adversary.synchronous in
  check Alcotest.bool "not all returned" false r.all_returned;
  check Alcotest.bool "schedule not ended" false r.schedule_ended;
  check Alcotest.int "hit cap" 50 r.steps

let prop_run_determinism =
  (* identical seeds drive identical executions end to end *)
  QCheck.Test.make ~name:"determinism: same seed, same run" ~count:100
    QCheck.(pair (int_range 3 16) (int_range 0 100_000))
    (fun (n, seed) ->
      let go () =
        let module A3 = Asyncolor.Algorithm3 in
        let prng = Prng.create ~seed in
        let idents =
          Asyncolor_workload.Idents.random_permutation (Prng.split prng) n
        in
        let r = A3.run_on_cycle ~idents (Adversary.random_subsets (Prng.split prng) ~p:0.5) in
        (r.steps, r.rounds, r.outputs, r.activations_per_process)
      in
      go () = go ())

let test_run_finite_schedule () =
  let e = mk () in
  let r = E3.run e (Adversary.finite [ [ 0 ]; [ 0 ] ]) in
  check Alcotest.bool "ended by schedule" true r.schedule_ended;
  check Alcotest.(array (option int)) "nobody returned" [| None; None; None |]
    r.outputs;
  check Alcotest.(array int) "p0 worked twice" [| 2; 0; 0 |]
    r.activations_per_process

(* --- adversaries ---------------------------------------------------- *)

let unfinished5 = [ 0; 1; 2; 3; 4 ]

let test_adv_synchronous () =
  check
    Alcotest.(option (list int))
    "activates all" (Some unfinished5)
    (Adversary.synchronous.next ~time:1 ~unfinished:unfinished5);
  check Alcotest.(option (list int)) "empty -> stop" None
    (Adversary.synchronous.next ~time:1 ~unfinished:[])

let test_adv_sequential () =
  check
    Alcotest.(option (list int))
    "first only" (Some [ 2 ])
    (Adversary.sequential.next ~time:5 ~unfinished:[ 2; 3; 4 ])

let test_adv_round_robin () =
  let at t = Adversary.round_robin.next ~time:t ~unfinished:[ 7; 8; 9 ] in
  check Alcotest.(option (list int)) "t=1" (Some [ 7 ]) (at 1);
  check Alcotest.(option (list int)) "t=2" (Some [ 8 ]) (at 2);
  check Alcotest.(option (list int)) "t=3" (Some [ 9 ]) (at 3);
  check Alcotest.(option (list int)) "t=4 wraps" (Some [ 7 ]) (at 4)

let test_adv_staircase () =
  let at t = Adversary.staircase.next ~time:t ~unfinished:unfinished5 in
  check Alcotest.(option (list int)) "t=1" (Some [ 0 ]) (at 1);
  check Alcotest.(option (list int)) "t=3" (Some [ 0; 1; 2 ]) (at 3);
  check Alcotest.(option (list int)) "t=9 saturates" (Some unfinished5) (at 9)

let test_adv_alternating_waves () =
  let at t = Adversary.alternating_waves.next ~time:t ~unfinished:unfinished5 in
  check Alcotest.(option (list int)) "odd time -> odd procs" (Some [ 1; 3 ]) (at 1);
  check Alcotest.(option (list int)) "even time -> even procs" (Some [ 0; 2; 4 ]) (at 2);
  (* all remaining of one parity: falls back to everyone *)
  check
    Alcotest.(option (list int))
    "no odd procs left" (Some [ 0; 2 ])
    (Adversary.alternating_waves.next ~time:1 ~unfinished:[ 0; 2 ])

let test_adv_singletons_member () =
  let adv = Adversary.singletons (Prng.create ~seed:1) in
  for t = 1 to 50 do
    match adv.next ~time:t ~unfinished:unfinished5 with
    | Some [ p ] -> check Alcotest.bool "member" true (List.mem p unfinished5)
    | _ -> Alcotest.fail "expected singleton"
  done

let test_adv_random_subsets_nonempty () =
  let adv = Adversary.random_subsets (Prng.create ~seed:2) ~p:0.01 in
  for t = 1 to 50 do
    match adv.next ~time:t ~unfinished:unfinished5 with
    | Some [] | None -> Alcotest.fail "must be nonempty"
    | Some l -> List.iter (fun p -> check Alcotest.bool "member" true (List.mem p unfinished5)) l
  done

(* --- recovery events (reset) ----------------------------------------- *)

let test_reset_fresh_incarnation () =
  let e = mk () in
  (* Run p0 to return (ttl = 3), then recover it: the node must be
     observably a brand-new process. *)
  E3.activate e [ 0 ];
  E3.activate e [ 0 ];
  E3.activate e [ 0 ];
  check Alcotest.bool "returned" true (Status.is_returned (E3.status e 0));
  E3.reset e 0 ~ident:99;
  check Alcotest.bool "asleep again" true (Status.is_asleep (E3.status e 0));
  check Alcotest.bool "register back to ⊥" true (E3.public e 0 = None);
  check Alcotest.int "activation counter restarted" 0 (E3.activations e 0);
  check Alcotest.int "fresh identifier installed" 99 (E3.ident e 0);
  check Alcotest.(list int) "unfinished again" [ 0; 1; 2 ] (E3.unfinished e);
  (* The new incarnation starts from its initial state under the new
     identifier, not from the old incarnation's history. *)
  E3.activate e [ 0 ];
  let s = E3.state e 0 in
  check Alcotest.int "new incarnation's ident" 99 s.P3.ident;
  check Alcotest.int "fresh view history" 1 (List.length s.P3.views)

let test_reset_mid_flight_and_bounds () =
  let e = mk () in
  E3.activate e [ 1 ];
  (* Resetting a working (not returned) process is allowed: crash and
     recovery need not wait for a return. *)
  E3.reset e 1 ~ident:42;
  check Alcotest.bool "asleep" true (Status.is_asleep (E3.status e 1));
  check Alcotest.int "counter restarted" 0 (E3.activations e 1);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Engine.reset: process index 3 out of range [0, 3)")
    (fun () -> E3.reset e 3 ~ident:0)

let test_reset_traced () =
  let e = E3.create ~record_trace:true (Builders.cycle 3) ~idents:idents3 in
  E3.activate e [ 0 ];
  E3.reset e 0 ~ident:77;
  let ev =
    match List.rev (E3.trace e) with
    | ev :: _ -> ev
    | [] -> Alcotest.fail "empty trace"
  in
  check
    Alcotest.(list (pair int int))
    "reset recorded" [ (0, 77) ] ev.E3.resets;
  check Alcotest.(list int) "no activation in a reset event" [] ev.E3.activated

let test_adv_crash () =
  let adv = Adversary.crash ~at:3 ~procs:[ 0; 1 ] Adversary.synchronous in
  check
    Alcotest.(option (list int))
    "before crash: everyone" (Some unfinished5)
    (adv.next ~time:2 ~unfinished:unfinished5);
  check
    Alcotest.(option (list int))
    "after crash: survivors" (Some [ 2; 3; 4 ])
    (adv.next ~time:3 ~unfinished:unfinished5);
  check
    Alcotest.(option (list int))
    "only crashed left -> stop" None
    (adv.next ~time:5 ~unfinished:[ 0; 1 ])

let test_adv_outages () =
  (* Window (1, 2, 4): p1 is invisible to the inner adversary at times 2
     and 3 and eligible again from 4 — the schedule-side half of a
     crash/recover pair (Engine.reset is the engine-side half). *)
  let adv = Adversary.outages ~windows:[ (1, 2, 4) ] Adversary.synchronous in
  check
    Alcotest.(option (list int))
    "before the window: everyone" (Some unfinished5)
    (adv.next ~time:1 ~unfinished:unfinished5);
  check
    Alcotest.(option (list int))
    "inside: p1 hidden"
    (Some [ 0; 2; 3; 4 ])
    (adv.next ~time:2 ~unfinished:unfinished5);
  check
    Alcotest.(option (list int))
    "still inside at 3"
    (Some [ 0; 2; 3; 4 ])
    (adv.next ~time:3 ~unfinished:unfinished5);
  check
    Alcotest.(option (list int))
    "eligible again from until" (Some unfinished5)
    (adv.next ~time:4 ~unfinished:unfinished5);
  check
    Alcotest.(option (list int))
    "only down nodes left -> pause" None
    (adv.next ~time:2 ~unfinished:[ 1 ])

let prop_outages_never_activates_down =
  QCheck.Test.make ~name:"outages: no activation inside a window" ~count:200
    QCheck.(
      triple (int_range 0 4)
        (pair (int_range 1 10) (int_range 0 10))
        (int_range 0 1000))
    (fun (p, (from_, len), seed) ->
      let until_ = from_ + len in
      let inner = Adversary.random_subsets (Prng.create ~seed) ~p:0.6 in
      let adv = Adversary.outages ~windows:[ (p, from_, until_) ] inner in
      let ok = ref true in
      for time = 1 to until_ + 5 do
        match adv.next ~time ~unfinished:unfinished5 with
        | None -> ()
        | Some set ->
            if time >= from_ && time < until_ && List.mem p set then ok := false
      done;
      !ok)

let test_adv_finite () =
  let adv = Adversary.finite [ [ 1 ]; [ 2; 3 ] ] in
  check Alcotest.(option (list int)) "t=1" (Some [ 1 ]) (adv.next ~time:1 ~unfinished:unfinished5);
  check Alcotest.(option (list int)) "t=2" (Some [ 2; 3 ]) (adv.next ~time:2 ~unfinished:unfinished5);
  check Alcotest.(option (list int)) "t=3 exhausted" None (adv.next ~time:3 ~unfinished:unfinished5)

let test_adv_eager_then_lazy () =
  let adv = Adversary.eager_then_lazy ~slow:[ 0 ] ~delay:2 in
  check
    Alcotest.(option (list int))
    "slow excluded early" (Some [ 1; 2; 3; 4 ])
    (adv.next ~time:1 ~unfinished:unfinished5);
  check
    Alcotest.(option (list int))
    "everyone after delay" (Some unfinished5)
    (adv.next ~time:3 ~unfinished:unfinished5)

let test_adv_isolate_pair () =
  let adv = Adversary.isolate_pair (1, 3) in
  check
    Alcotest.(option (list int))
    "drain others first" (Some [ 0; 2; 4 ])
    (adv.next ~time:1 ~unfinished:unfinished5);
  check
    Alcotest.(option (list int))
    "then the pair together" (Some [ 1; 3 ])
    (adv.next ~time:9 ~unfinished:[ 1; 3 ]);
  check
    Alcotest.(option (list int))
    "half-pair still activated" (Some [ 3 ])
    (adv.next ~time:9 ~unfinished:[ 3 ]);
  check Alcotest.(option (list int)) "empty -> stop" None (adv.next ~time:9 ~unfinished:[])

let test_schedule_parse () =
  check
    Alcotest.(list (list int))
    "basic" [ [ 0 ]; [ 1; 2 ]; [] ]
    (Adversary.parse "{0} {1,2} {}");
  check Alcotest.(list (list int)) "empty string" [] (Adversary.parse "  ");
  check Alcotest.string "roundtrip" "{0} {1,2}"
    (Adversary.to_string (Adversary.parse " {0}   {1,2} "));
  Alcotest.check_raises "garbage"
    (Invalid_argument "Adversary.parse: malformed schedule \"0,1\"") (fun () ->
      ignore (Adversary.parse "0,1"))

let prop_schedule_roundtrip =
  QCheck.Test.make ~name:"parse ∘ to_string = id"
    QCheck.(
      list_of_size (Gen.int_range 0 20)
        (list_of_size (Gen.int_range 0 8) (int_range 0 99)))
    (fun sets -> Adversary.parse (Adversary.to_string sets) = sets)

let test_adv_random_crashes_eventually_stop () =
  (* rate 1.0: every process crashes within the horizon, so the schedule
     must end in bounded time. *)
  let adv =
    Adversary.random_crashes (Prng.create ~seed:3) ~n:5 ~rate:1.0 ~horizon:5
      Adversary.synchronous
  in
  let stopped = ref false in
  for t = 1 to 10 do
    if adv.next ~time:t ~unfinished:unfinished5 = None then stopped := true
  done;
  check Alcotest.bool "all crashed" true !stopped

(* --- qcheck: the crash wrappers keep their two contracts --------------
   (1) a crashed process is never activated at or after its crash time;
   (2) the schedule ends (next = None) when only crashed processes remain
   unfinished. *)

let prop_crash_never_activates_after_crash_time =
  QCheck.Test.make ~name:"crash: no activation at time >= at" ~count:200
    QCheck.(
      triple (int_range 1 10)
        (list_of_size (Gen.int_range 0 5) (int_range 0 4))
        (int_range 0 1000))
    (fun (at, procs, seed) ->
      let inner = Adversary.random_subsets (Prng.create ~seed) ~p:0.6 in
      let adv = Adversary.crash ~at ~procs inner in
      let ok = ref true in
      for time = 1 to at + 10 do
        match adv.next ~time ~unfinished:unfinished5 with
        | None -> ()
        | Some set ->
            if time >= at && List.exists (fun p -> List.mem p procs) set then
              ok := false
      done;
      !ok)

let prop_crash_ends_when_only_crashed_remain =
  QCheck.Test.make ~name:"crash: None once only crashed remain" ~count:200
    QCheck.(
      triple (int_range 1 10)
        (list_of_size (Gen.int_range 1 5) (int_range 0 4))
        (int_range 0 1000))
    (fun (at, procs, seed) ->
      QCheck.assume (procs <> []);
      let inner = Adversary.random_subsets (Prng.create ~seed) ~p:0.6 in
      let adv = Adversary.crash ~at ~procs inner in
      (* any non-empty unfinished set drawn from the crashed processes *)
      let unfinished = List.sort_uniq compare procs in
      adv.next ~time:at ~unfinished = None
      && adv.next ~time:(at + 7) ~unfinished = None)

let prop_random_crashes_permanent_and_filtered =
  (* [random_crashes] fixes each process's crash time at construction; with
     a stateless inner ([synchronous]) the adversary can be probed freely:
     [next ~unfinished:[p] = None] is a pure oracle for "p crashed by t".
     Check the oracle is monotone (a crash is permanent), that full-set
     activations never include a crashed process, and that the schedule
     ends exactly when every unfinished process has crashed. *)
  QCheck.Test.make ~name:"random_crashes: permanent, filtered, ends" ~count:100
    QCheck.(pair (int_range 0 1000) (int_range 1 8))
    (fun (seed, horizon) ->
      let n = 5 in
      let adv =
        Adversary.random_crashes (Prng.create ~seed) ~n ~rate:0.7 ~horizon
          Adversary.synchronous
      in
      let crashed_by p time = adv.next ~time ~unfinished:[ p ] = None in
      let ok = ref true in
      for t = 1 to horizon + 2 do
        for p = 0 to n - 1 do
          if crashed_by p t && not (crashed_by p (t + 1)) then ok := false
        done;
        let crashed = List.filter (fun p -> crashed_by p t) unfinished5 in
        (match adv.next ~time:t ~unfinished:unfinished5 with
        | None -> if List.length crashed < n then ok := false
        | Some set ->
            if List.exists (fun p -> List.mem p crashed) set then ok := false;
            (* synchronous inner: every alive process is activated *)
            if
              List.sort_uniq compare set
              <> List.filter (fun p -> not (List.mem p crashed)) unfinished5
            then ok := false);
        if crashed <> [] && adv.next ~time:t ~unfinished:crashed <> None then
          ok := false
      done;
      !ok)

let () =
  Alcotest.run "kernel"
    [
      ( "engine",
        [
          Alcotest.test_case "initial state" `Quick test_initial_state;
          Alcotest.test_case "wake and count" `Quick test_wake_and_count;
          Alcotest.test_case "⊥ before wake" `Quick test_bot_visible_before_wake;
          Alcotest.test_case "simultaneous write-then-read" `Quick
            test_write_before_read_simultaneous;
          Alcotest.test_case "register one-round stale" `Quick
            test_register_is_stale_by_one_round;
          Alcotest.test_case "returned ignores activation" `Quick
            test_returned_ignores_activation;
          Alcotest.test_case "duplicate activation collapsed" `Quick
            test_duplicate_activation_collapsed;
          Alcotest.test_case "activate rejects out-of-range" `Quick
            test_activate_out_of_range;
          Alcotest.test_case "activate_mask rejects out-of-range" `Quick
            test_activate_mask_out_of_range;
          Alcotest.test_case "mask/list agree on valid sets" `Quick
            test_activate_mask_list_agree_on_valid_sets;
          Alcotest.test_case "outputs / all_returned" `Quick
            test_outputs_and_all_returned;
          Alcotest.test_case "monitor" `Quick test_monitor_runs_every_step;
          Alcotest.test_case "trace" `Quick test_trace_recording;
          Alcotest.test_case "spacetime diagram" `Quick test_spacetime_rendering;
          Alcotest.test_case "idents mismatch" `Quick test_idents_length_mismatch;
          Alcotest.test_case "reset: fresh incarnation" `Quick
            test_reset_fresh_incarnation;
          Alcotest.test_case "reset: mid-flight + bounds" `Quick
            test_reset_mid_flight_and_bounds;
          Alcotest.test_case "reset: traced" `Quick test_reset_traced;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "roundtrip" `Quick test_snapshot_restore_roundtrip;
          Alcotest.test_case "restore rewinds observers" `Quick
            test_restore_rewinds_observers;
          Alcotest.test_case "config key identity" `Quick test_config_key_identity;
          Alcotest.test_case "config accessors" `Quick test_config_accessors;
          qtest (Walk1.prop "algorithm 1" ~resets:false);
          qtest (Walk2.prop "algorithm 2" ~resets:false);
          qtest (Walk3.prop "algorithm 3 with resets" ~resets:true);
          qtest (Mask2.prop "algorithm 2");
          qtest (Mask3.prop "algorithm 3");
          qtest (Cache1.prop "algorithm 1");
          qtest (Cache2.prop "algorithm 2");
          qtest (Cache3.prop "algorithm 3");
          qtest (Decode1.prop "algorithm 1");
          qtest (Decode2.prop "algorithm 2");
          qtest (Decode2s.prop "algorithm 2s");
          qtest (Decode3.prop "algorithm 3");
          Alcotest.test_case "config_of_key_data rejects non-keys" `Quick
            test_config_of_key_data_rejects;
          Alcotest.test_case "key hash spread (C5 full model)" `Quick
            test_key_hash_spread;
          Alcotest.test_case "probe lifetime" `Quick test_probe_lifetime;
          Alcotest.test_case "n = int_size: no mask, runs" `Quick
            test_wide_engine_without_mask;
        ] );
      ("decoders", List.map qtest codec_tests);
      ( "runner",
        [
          Alcotest.test_case "synchronous" `Quick test_run_synchronous;
          Alcotest.test_case "sequential" `Quick test_run_sequential;
          Alcotest.test_case "max steps" `Quick test_run_max_steps;
          Alcotest.test_case "finite schedule" `Quick test_run_finite_schedule;
          qtest prop_run_determinism;
        ] );
      ( "adversaries",
        [
          Alcotest.test_case "synchronous" `Quick test_adv_synchronous;
          Alcotest.test_case "sequential" `Quick test_adv_sequential;
          Alcotest.test_case "round robin" `Quick test_adv_round_robin;
          Alcotest.test_case "staircase" `Quick test_adv_staircase;
          Alcotest.test_case "alternating waves" `Quick test_adv_alternating_waves;
          Alcotest.test_case "singletons" `Quick test_adv_singletons_member;
          Alcotest.test_case "random subsets nonempty" `Quick
            test_adv_random_subsets_nonempty;
          Alcotest.test_case "crash" `Quick test_adv_crash;
          Alcotest.test_case "outages" `Quick test_adv_outages;
          qtest prop_outages_never_activates_down;
          Alcotest.test_case "finite" `Quick test_adv_finite;
          Alcotest.test_case "eager then lazy" `Quick test_adv_eager_then_lazy;
          Alcotest.test_case "isolate pair" `Quick test_adv_isolate_pair;
          Alcotest.test_case "schedule parse" `Quick test_schedule_parse;
          qtest prop_schedule_roundtrip;
          Alcotest.test_case "random crashes stop" `Quick
            test_adv_random_crashes_eventually_stop;
          qtest prop_crash_never_activates_after_crash_time;
          qtest prop_crash_ends_when_only_crashed_remain;
          qtest prop_random_crashes_permanent_and_filtered;
        ] );
    ]
