(* Tests for the resilience layer: checkpoint container round-trips and
   rejection of damaged files, resource budgets, cooperative stop, and
   line-atomic diagnostics. *)

module Checkpoint = Asyncolor_resilience.Checkpoint
module Spill = Asyncolor_resilience.Spill
module Budget = Asyncolor_resilience.Budget
module Stop = Asyncolor_resilience.Stop
module Diag = Asyncolor_resilience.Diag

let check = Alcotest.check
let qtest t = QCheck_alcotest.to_alcotest t

let with_temp f =
  let path = Filename.temp_file "asyncolor-ckpt" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* --- Checkpoint ----------------------------------------------------- *)

type payload = {
  ints : int array;
  name : string;
  pairs : (int * int) list;
}

let prop_checkpoint_roundtrip =
  QCheck.Test.make ~name:"checkpoint save/load round-trip"
    QCheck.(triple (array small_int) string (list (pair small_int small_int)))
    (fun (ints, name, pairs) ->
      with_temp (fun path ->
          let v = { ints; name; pairs } in
          Checkpoint.save ~path ~version:7 v;
          let (v' : payload) = Checkpoint.load ~path ~version:7 () in
          v' = v))

let expect_corrupt what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Corrupt" what
  | exception Checkpoint.Corrupt _ -> ()

let test_checkpoint_version_mismatch () =
  with_temp (fun path ->
      Checkpoint.save ~path ~version:1 [| 1; 2; 3 |];
      expect_corrupt "version bumped" (fun () ->
          (Checkpoint.load ~path ~version:2 () : int array)))

let test_checkpoint_bad_magic () =
  with_temp (fun path ->
      Checkpoint.save ~path ~version:1 "hello";
      let oc = open_out_gen [ Open_wronly; Open_binary ] 0o644 path in
      output_string oc "X";
      close_out oc;
      expect_corrupt "magic flipped" (fun () ->
          (Checkpoint.load ~path ~version:1 () : string)))

let test_checkpoint_payload_corruption () =
  with_temp (fun path ->
      Checkpoint.save ~path ~version:1 (Array.init 64 Fun.id);
      (* flip one byte of the payload (past the 48-byte header) *)
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let all = really_input_string ic len in
      close_in ic;
      let b = Bytes.of_string all in
      Bytes.set b (48 + ((len - 48) / 2))
        (Char.chr (Char.code (Bytes.get b (48 + ((len - 48) / 2))) lxor 0xff));
      let oc = open_out_bin path in
      output_bytes oc b;
      close_out oc;
      expect_corrupt "digest must fail" (fun () ->
          (Checkpoint.load ~path ~version:1 () : int array)))

let test_checkpoint_truncation () =
  with_temp (fun path ->
      Checkpoint.save ~path ~version:1 (String.make 1000 'x');
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let keep = really_input_string ic (len - 17) in
      close_in ic;
      let oc = open_out_bin path in
      output_string oc keep;
      close_out oc;
      expect_corrupt "truncated payload" (fun () ->
          (Checkpoint.load ~path ~version:1 () : string)));
  expect_corrupt "missing file" (fun () ->
      (Checkpoint.load ~path:"/nonexistent/ckpt.bin" ~version:1 () : int))

let test_checkpoint_overwrite_atomic () =
  with_temp (fun path ->
      Checkpoint.save ~path ~version:1 "first";
      Checkpoint.save ~path ~version:1 "second";
      check Alcotest.string "last write wins"
        "second"
        (Checkpoint.load ~path ~version:1 ());
      check Alcotest.bool "no temp file left behind" false
        (Sys.file_exists (path ^ ".tmp")))

(* --- Spill ----------------------------------------------------------- *)

(* Spilled levels are Checkpoint containers, so they inherit the whole
   damage taxonomy above — but a run owns many level files, so every
   Corrupt raised through [Spill.read] must carry the offending file's
   path in its message. *)

(* Recursive: checkpoint recovery may create a quarantine/ subdirectory. *)
let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_temp_dir f =
  let dir = Filename.temp_file "asyncolor-spill" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () -> f dir)

let with_temp_spill f = with_temp_dir (fun dir -> f (Spill.create ~dir ()))

let expect_corrupt_with_path what path f =
  match f () with
  | (_ : Bytes.t) -> Alcotest.failf "%s: expected Corrupt" what
  | exception Checkpoint.Corrupt msg ->
      check Alcotest.bool (what ^ ": message names the file") true
        (Astring.String.is_infix ~affix:path msg)

(* Rewrite a level file through an arbitrary byte-level mutation. *)
let damage path mutate =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let b = Bytes.of_string (really_input_string ic len) in
  close_in ic;
  let b = mutate b in
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

(* A level's bytes, as a test writes them. *)
let level_bytes n f = Bytes.init n (fun i -> Char.chr (f i land 255))

let prop_spill_roundtrip =
  QCheck.Test.make ~name:"spill write/read round-trip (bytes as written)"
    QCheck.string
    (fun s ->
      with_temp_spill (fun sp ->
          let data = Bytes.of_string s in
          let bytes = Spill.write sp ~level:0 data in
          bytes > 0
          && Spill.read sp ~level:0 = data
          && Spill.bytes_written sp = bytes
          && Spill.bytes_read sp = bytes
          && Spill.levels_on_disk sp = 1
          && Spill.files sp = [ Filename.basename (Spill.path sp ~level:0) ]))

let test_spill_truncated () =
  with_temp_spill (fun sp ->
      ignore (Spill.write sp ~level:3 (level_bytes 200 (fun i -> i * i)));
      let path = Spill.path sp ~level:3 in
      damage path (fun b -> Bytes.sub b 0 (Bytes.length b - 9));
      expect_corrupt_with_path "truncated level" path (fun () ->
          Spill.read sp ~level:3))

let test_spill_bit_flip () =
  with_temp_spill (fun sp ->
      ignore (Spill.write sp ~level:0 (level_bytes 500 (fun i -> 3 * i)));
      let path = Spill.path sp ~level:0 in
      damage path (fun b ->
          (* flip one payload byte past the 48-byte container header *)
          let i = 48 + ((Bytes.length b - 48) / 2) in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
          b);
      expect_corrupt_with_path "bit-flipped level" path (fun () ->
          Spill.read sp ~level:0))

let test_spill_bad_magic () =
  with_temp_spill (fun sp ->
      ignore (Spill.write sp ~level:1 (Bytes.of_string "*"));
      let path = Spill.path sp ~level:1 in
      damage path (fun b ->
          Bytes.set b 0 'X';
          b);
      expect_corrupt_with_path "bad magic" path (fun () ->
          Spill.read sp ~level:1))

let test_spill_missing_level () =
  with_temp_spill (fun sp ->
      ignore (Spill.write sp ~level:0 (Bytes.of_string "\001\002\003"));
      expect_corrupt_with_path "level never written"
        (Spill.path sp ~level:7)
        (fun () -> Spill.read sp ~level:7))

let test_spill_version_skew () =
  with_temp_spill (fun sp ->
      (* a well-formed container of the wrong version at the level path:
         what a file from a future release would look like *)
      Checkpoint.save ~path:(Spill.path sp ~level:2) ~version:31337
        [| 1; 2; 3 |];
      expect_corrupt_with_path "version skew"
        (Spill.path sp ~level:2)
        (fun () -> Spill.read sp ~level:2))

let test_spill_files_sorted () =
  with_temp_spill (fun sp ->
      List.iter
        (fun level -> ignore (Spill.write sp ~level (level_bytes 1 (fun _ -> level))))
        [ 2; 0; 1 ];
      check
        Alcotest.(list string)
        "sorted regardless of write order"
        [ "level-000000.spill"; "level-000001.spill"; "level-000002.spill" ]
        (Spill.files sp);
      check Alcotest.int "three levels accounted" 3 (Spill.levels_on_disk sp))

(* --- Budget --------------------------------------------------------- *)

let test_budget_unlimited () =
  let b = Budget.create () in
  check Alcotest.bool "no limits never trips" false (Budget.exceeded b)

let test_budget_time_zero () =
  let b = Budget.create ~time_s:0.0 () in
  check Alcotest.bool "zero wall budget trips at once" true (Budget.exceeded b)

let test_budget_mem_tiny_and_sticky () =
  let b = Budget.create ~mem_words:1 () in
  check Alcotest.bool "one-word heap budget trips" true (Budget.exceeded b);
  check Alcotest.bool "stays tripped" true (Budget.exceeded b)

let test_budget_generous () =
  let b = Budget.create ~time_s:3600.0 ~mem_words:max_int () in
  check Alcotest.bool "generous budget does not trip" false (Budget.exceeded b);
  check Alcotest.bool "describe says something" true
    (String.length (Budget.describe b) > 0)

let test_budget_mem_words_of_mb () =
  let words = Budget.mem_words_of_mb 1 in
  check Alcotest.int "1 MB in words" (1024 * 1024 / (Sys.word_size / 8)) words

(* --- Stop ----------------------------------------------------------- *)

let test_stop_flag () =
  Stop.reset ();
  check Alcotest.bool "initially clear" false (Stop.requested ());
  Stop.request ();
  check Alcotest.bool "set after request" true (Stop.requested ());
  Stop.reset ();
  check Alcotest.bool "clear after reset" false (Stop.requested ())

let test_stop_with_signals () =
  let inside =
    Stop.with_signals (fun () ->
        Unix.kill (Unix.getpid ()) Sys.sigterm;
        (* the handler runs on the main domain at a safe point; give the
           runtime one *)
        ignore (Sys.opaque_identity (ref 0));
        Stop.requested ())
  in
  check Alcotest.bool "SIGTERM sets the flag inside the scope" true inside;
  check Alcotest.bool "flag cleared when the scope exits" false
    (Stop.requested ())

(* --- Diag ----------------------------------------------------------- *)

let test_diag_line_atomicity () =
  let path = Filename.temp_file "asyncolor-diag" ".log" in
  let oc = open_out path in
  Diag.set_channel oc;
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to 199 do
              Diag.printf "domain=%d line=%d suffix=%s\n" d i
                (String.make 30 (Char.chr (Char.code 'a' + d)))
            done))
  in
  List.iter Domain.join domains;
  Diag.set_channel stderr;
  close_out oc;
  let ic = open_in path in
  let lines = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr lines;
       (* every line must be exactly one complete message — no fragments,
          no splices of two writers *)
       match String.split_on_char ' ' line with
       | [ d; i; s ] ->
           let dv = Scanf.sscanf d "domain=%d" Fun.id in
           ignore (Scanf.sscanf i "line=%d" Fun.id);
           let expect =
             "suffix=" ^ String.make 30 (Char.chr (Char.code 'a' + dv))
           in
           if s <> expect then Alcotest.failf "spliced line: %s" line
       | _ -> Alcotest.failf "malformed line: %s" line
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  check Alcotest.int "all 800 lines intact" 800 !lines

(* --- Chaos ----------------------------------------------------------- *)

(* The injector's contract is determinism: a site's fault schedule is a
   pure function of (seed, site, op index).  Everything downstream — the
   differential tests in test_check, the CLI chaos legs in bin/dune —
   leans on that, so it gets tested directly here. *)

module Chaos = Asyncolor_resilience.Chaos

let drain_draws t ~site n = List.init n (fun _ -> Chaos.draw_write t ~site)

let test_chaos_schedule_deterministic () =
  let mk () = Chaos.create ~seed:42 ~rate:0.3 () in
  let a = drain_draws (mk ()) ~site:"x.write" 200 in
  let b = drain_draws (mk ()) ~site:"x.write" 200 in
  check Alcotest.bool "same seed, same site, same schedule" true (a = b);
  (* consuming ops at one site must not perturb another site's stream *)
  let c =
    let t = mk () in
    ignore (drain_draws t ~site:"y.write" 500);
    drain_draws t ~site:"x.write" 200
  in
  check Alcotest.bool "sites are independent" true (a = c);
  let d = drain_draws (Chaos.create ~seed:43 ~rate:0.3 ()) ~site:"x.write" 200 in
  check Alcotest.bool "different seed, different schedule" true (a <> d)

let test_chaos_rates_and_sites () =
  let none = ( = ) None and some = ( <> ) None in
  check Alcotest.bool "rate 0 never injects" true
    (List.for_all none (drain_draws (Chaos.create ~seed:1 ~rate:0.0 ()) ~site:"s" 500));
  check Alcotest.bool "disabled never injects" true
    (List.for_all none (drain_draws Chaos.disabled ~site:"s" 50));
  let t1 = Chaos.create ~seed:1 ~rate:1.0 () in
  check Alcotest.bool "rate 1 always injects" true
    (List.for_all some (drain_draws t1 ~site:"s" 500));
  check Alcotest.int "every injection counted" 500 (Chaos.stats t1).Chaos.injected;
  let filtered = Chaos.create ~seed:1 ~rate:1.0 ~sites:[ "exec" ] () in
  check Alcotest.bool "unlisted site disarmed" true
    (List.for_all none (drain_draws filtered ~site:"spill.write" 100));
  check Alcotest.bool "prefix arms the site" true
    (List.for_all some (drain_draws filtered ~site:"exec.worker-3" 100))

let test_chaos_write_faults () =
  with_temp_dir (fun dir ->
      let t = Chaos.create ~seed:7 ~rate:1.0 () in
      let data = Bytes.init 256 (fun i -> Char.chr (i land 0xff)) in
      let seen = ref [] in
      for i = 0 to 39 do
        let path = Filename.concat dir (Printf.sprintf "f%d" i) in
        match Chaos.write_file t ~site:"w" path data with
        | () ->
            (* at rate 1 a "successful" write can only be a torn one: it
               reports success but persists a strict prefix *)
            seen := Chaos.Torn_write :: !seen;
            let on_disk = Chaos.read_raw path in
            check Alcotest.bool "torn write leaves a strict prefix" true
              (Bytes.length on_disk < Bytes.length data
              && Bytes.equal on_disk (Bytes.sub data 0 (Bytes.length on_disk)))
        | exception Chaos.Injected { fault; site; _ } -> (
            seen := fault :: !seen;
            check Alcotest.string "exception names the site" "w" site;
            match fault with
            | Chaos.Enospc | Chaos.Eio ->
                check Alcotest.bool
                  (Chaos.fault_name fault ^ " leaves a partial file")
                  true
                  (Sys.file_exists path
                  && Bytes.length (Chaos.read_raw path) < Bytes.length data)
            | Chaos.Fsync_fail ->
                check Alcotest.bool "fsync failure: data landed anyway" true
                  (Bytes.equal (Chaos.read_raw path) data)
            | f -> Alcotest.failf "unexpected write fault %s" (Chaos.fault_name f))
      done;
      check Alcotest.bool "fault kinds varied across the schedule" true
        (List.length (List.sort_uniq compare !seen) >= 3))

let test_chaos_read_faults () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "data" in
      let data = Bytes.of_string "the quick brown fox jumps over the lazy dog" in
      Chaos.write_file Chaos.disabled ~site:"w" path data;
      let t = Chaos.create ~seed:5 ~rate:1.0 () in
      let rots = ref 0 and eios = ref 0 in
      for _ = 1 to 40 do
        match Chaos.read_file t ~site:"r" path with
        | b ->
            (* bit rot flips exactly one byte — and only in the returned
               buffer, never on disk, so a later read is clean *)
            incr rots;
            let diffs = ref 0 in
            Bytes.iteri (fun i c -> if c <> Bytes.get data i then incr diffs) b;
            check Alcotest.int "exactly one byte rotted" 1 !diffs;
            check Alcotest.bool "on-disk file untouched" true
              (Bytes.equal (Chaos.read_raw path) data)
        | exception Chaos.Injected { fault = Chaos.Eio; _ } -> incr eios
      done;
      check Alcotest.bool "both read faults appeared" true (!rots > 0 && !eios > 0))

(* --- Checkpoint rotation, quarantine, stale-tmp hygiene --------------- *)

let garble path =
  let oc = open_out_bin path in
  output_string oc "garbage, definitely not a checkpoint";
  close_out oc

let test_checkpoint_rotation_fallback () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "c.ckpt" in
      Checkpoint.save_rotated ~path ~version:1 "gen1";
      Checkpoint.save_rotated ~path ~version:1 "gen2";
      check Alcotest.string "primary is the last save" "gen2"
        (Checkpoint.load ~path ~version:1 ());
      check Alcotest.string "previous generation survives at .1" "gen1"
        (Checkpoint.load ~path:(Checkpoint.rotated_path path) ~version:1 ());
      (* damage the primary: the load must quarantine it as evidence and
         fall back to the rotation instead of aborting *)
      garble path;
      check Alcotest.string "fell back to the rotation" "gen1"
        (Checkpoint.load_rotated ~path ~version:1 ());
      let qdir = Checkpoint.quarantine_dir ~path in
      check Alcotest.bool "corrupt primary moved to quarantine/" true
        (Sys.file_exists (Filename.concat qdir "c.ckpt"));
      (* both generations gone: now it is a clean Corrupt *)
      garble (Checkpoint.rotated_path path);
      expect_corrupt "both generations unreadable" (fun () ->
          (Checkpoint.load_rotated ~path ~version:1 () : string)))

let test_checkpoint_failed_save_keeps_last_good () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "c.ckpt" in
      Checkpoint.save_rotated ~path ~version:1 "good";
      (* each seed's first draw picks the fault kind: a partial write, a
         failed fsync, or a torn write the read-back verify catches *)
      List.iter
        (fun seed ->
          let chaos = Chaos.create ~seed ~rate:1.0 ~sites:[ "checkpoint" ] () in
          match Checkpoint.save_rotated ~chaos ~path ~version:1 "doomed" with
          | () -> Alcotest.fail "expected the save to fail"
          | exception (Chaos.Injected _ | Checkpoint.Corrupt _) -> ())
        [ 0; 1; 2; 3; 4; 5; 6; 7 ];
      check Alcotest.bool "no half-written tmp left behind" false
        (Sys.file_exists (path ^ ".tmp"));
      check Alcotest.string "last-good checkpoint untouched" "good"
        (Checkpoint.load ~path ~version:1 ()))

let test_checkpoint_clean_stale () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "c.ckpt" in
      check Alcotest.bool "nothing to clean" false (Checkpoint.clean_stale ~path);
      garble (path ^ ".tmp");
      check Alcotest.bool "stale tmp removed" true (Checkpoint.clean_stale ~path);
      check Alcotest.bool "tmp gone" false (Sys.file_exists (path ^ ".tmp"));
      check Alcotest.bool "idempotent" false (Checkpoint.clean_stale ~path))

(* --- Spill recovery --------------------------------------------------- *)

let test_spill_failed_write_stays_resident () =
  (* The write fails (or lands torn and is caught by the read-back
     verify); the level's bytes must survive in memory and still serve
     reads.  Exercised across seeds so each fault kind gets its turn. *)
  with_temp_dir (fun dir ->
      List.iter
        (fun seed ->
          let chaos =
            Chaos.create ~seed ~rate:1.0 ~sites:[ "spill.write" ] ()
          in
          let sp = Spill.create ~chaos ~dir () in
          let data = level_bytes 200 (fun i -> i * i) in
          (match Spill.write sp ~level:seed data with
          | _ -> Alcotest.fail "expected the write to fail"
          | exception (Chaos.Injected _ | Checkpoint.Corrupt _) -> ());
          check Alcotest.bytes
            (Printf.sprintf "seed %d: read survives the failed write" seed)
            data (Spill.read sp ~level:seed))
        [ 0; 1; 2; 3; 4; 5; 6; 7 ])

(* A resumed run numbers its spill levels from 0 again, into a directory
   that may hold the earlier run's files.  When the resumed run's write
   of a level fails, the earlier file of that level is still on disk,
   checksum intact; the read must return the level this store wrote, not
   that file — even when the two have the same length, where nothing
   downstream could tell them apart. *)
let test_spill_failed_write_shadows_stale_file () =
  with_temp_dir (fun dir ->
      let earlier = Spill.create ~dir () in
      ignore (Spill.write earlier ~level:0 (level_bytes 64 (fun i -> i)));
      let chaos = Chaos.create ~seed:1 ~rate:1.0 ~sites:[ "spill.write" ] () in
      let resumed = Spill.create ~chaos ~dir () in
      let data = level_bytes 64 (fun i -> 255 - i) in
      (try ignore (Spill.write resumed ~level:0 data)
       with Chaos.Injected _ | Checkpoint.Corrupt _ -> ());
      check Alcotest.bool "the earlier run's file is still on disk" true
        (Sys.file_exists (Spill.path resumed ~level:0));
      check Alcotest.bytes "the resumed store reads its own level" data
        (Spill.read resumed ~level:0))

(* A spill write that fails mid-way leaves a partial [.tmp] file behind
   on a real disk; the save must remove it, so the spill directory holds
   only level files, and the run still ends as a clean truncation with
   its diagnostic.  The seed is the first whose first spill write draws
   ENOSPC. *)
let test_spill_enospc_leaves_no_tmp () =
  let module Exp = Asyncolor_check.Explorer.Make (Asyncolor.Algorithm2.P) in
  let rec enospc_seed seed =
    let probe = Chaos.create ~seed ~rate:1.0 ~sites:[ "spill.write" ] () in
    match Chaos.draw_write probe ~site:"spill.write" with
    | Some Chaos.Enospc -> seed
    | _ -> enospc_seed (seed + 1)
  in
  let seed = enospc_seed 0 in
  with_temp_dir (fun dir ->
      let chaos = Chaos.create ~seed ~rate:1.0 ~sites:[ "spill.write" ] () in
      let diag = Filename.concat dir "diag.log" in
      let spill_dir = Filename.concat dir "spill" in
      Unix.mkdir spill_dir 0o755;
      let oc = open_out diag in
      Diag.set_channel oc;
      let r =
        Fun.protect
          ~finally:(fun () ->
            Diag.set_channel stderr;
            close_out oc)
          (fun () ->
            Exp.explore ~chaos
              ~spill:(Spill.create ~chaos ~dir:spill_dir (), 0)
              (Asyncolor_topology.Builders.cycle 4) ~idents:[| 5; 1; 9; 4 |])
      in
      check Alcotest.int "the fault fired" 1 (Chaos.stats chaos).Chaos.injected;
      check
        Alcotest.(list string)
        "no tmp left in the spill directory" []
        (List.filter
           (fun f -> Filename.check_suffix f ".tmp")
           (Array.to_list (Sys.readdir spill_dir)));
      check Alcotest.bool "truncated" false r.complete;
      let log = In_channel.with_open_text diag In_channel.input_all in
      check Alcotest.bool "io: diagnostic" true
        (Astring.String.is_infix ~affix:"io: spill write (level 0) failed" log))

let () =
  Alcotest.run "resilience"
    [
      ( "checkpoint",
        [
          qtest prop_checkpoint_roundtrip;
          Alcotest.test_case "version mismatch" `Quick
            test_checkpoint_version_mismatch;
          Alcotest.test_case "bad magic" `Quick test_checkpoint_bad_magic;
          Alcotest.test_case "payload corruption" `Quick
            test_checkpoint_payload_corruption;
          Alcotest.test_case "truncation, missing file" `Quick
            test_checkpoint_truncation;
          Alcotest.test_case "atomic overwrite" `Quick
            test_checkpoint_overwrite_atomic;
        ] );
      ( "spill",
        [
          qtest prop_spill_roundtrip;
          Alcotest.test_case "truncated level names file" `Quick
            test_spill_truncated;
          Alcotest.test_case "bit-flip names file" `Quick test_spill_bit_flip;
          Alcotest.test_case "bad magic names file" `Quick
            test_spill_bad_magic;
          Alcotest.test_case "missing level names file" `Quick
            test_spill_missing_level;
          Alcotest.test_case "version skew names file" `Quick
            test_spill_version_skew;
          Alcotest.test_case "files listing sorted" `Quick
            test_spill_files_sorted;
        ] );
      ( "budget",
        [
          Alcotest.test_case "unlimited" `Quick test_budget_unlimited;
          Alcotest.test_case "time_s:0 trips" `Quick test_budget_time_zero;
          Alcotest.test_case "tiny mem trips, sticky" `Quick
            test_budget_mem_tiny_and_sticky;
          Alcotest.test_case "generous never trips" `Quick test_budget_generous;
          Alcotest.test_case "mem_words_of_mb" `Quick
            test_budget_mem_words_of_mb;
        ] );
      ( "stop",
        [
          Alcotest.test_case "flag set/reset" `Quick test_stop_flag;
          Alcotest.test_case "with_signals scope" `Quick test_stop_with_signals;
        ] );
      ( "diag",
        [
          Alcotest.test_case "line atomicity across domains" `Quick
            test_diag_line_atomicity;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "schedule determinism" `Quick
            test_chaos_schedule_deterministic;
          Alcotest.test_case "rates and site filters" `Quick
            test_chaos_rates_and_sites;
          Alcotest.test_case "write fault realization" `Quick
            test_chaos_write_faults;
          Alcotest.test_case "read fault realization" `Quick
            test_chaos_read_faults;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "rotation fallback and quarantine" `Quick
            test_checkpoint_rotation_fallback;
          Alcotest.test_case "failed save keeps last-good" `Quick
            test_checkpoint_failed_save_keeps_last_good;
          Alcotest.test_case "stale tmp cleanup" `Quick
            test_checkpoint_clean_stale;
          Alcotest.test_case "spill failed write stays resident" `Quick
            test_spill_failed_write_stays_resident;
          Alcotest.test_case "spill failed write shadows a stale file" `Quick
            test_spill_failed_write_shadows_stale_file;
          Alcotest.test_case "spill ENOSPC leaves no tmp" `Quick
            test_spill_enospc_leaves_no_tmp;
        ] );
    ]
