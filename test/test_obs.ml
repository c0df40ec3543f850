(* Tests for the observability layer: golden exports under a virtual
   clock (byte-for-byte), rejection of corrupt traces, qcheck properties
   (span trees well-nested; explorer counters equal the report at every
   jobs value), counter totals under a 4-domain hammer, and the
   line-atomicity of the shared sink that Diag now routes through. *)

module Obs = Asyncolor_obs.Obs
module Clock = Asyncolor_obs.Clock
module Sink = Asyncolor_obs.Sink
module Trace_export = Asyncolor_obs.Trace_export
module Diag = Asyncolor_resilience.Diag
module Builders = Asyncolor_topology.Builders

let check = Alcotest.check
let qtest t = QCheck_alcotest.to_alcotest t

(* --- clock ----------------------------------------------------------- *)

let test_virtual_clock () =
  let c = Clock.virtual_ () in
  check Alcotest.int64 "first read" 0L (c ());
  check Alcotest.int64 "second read" 1000L (c ());
  check Alcotest.int64 "third read" 2000L (c ());
  let c250 = Clock.virtual_ ~step_ns:250L () in
  check Alcotest.int64 "custom step, first" 0L (c250 ());
  check Alcotest.int64 "custom step, second" 250L (c250 ())

let test_monotonic_clock_nondecreasing () =
  let prev = ref (Clock.monotonic ()) in
  for _ = 1 to 1000 do
    let t = Clock.monotonic () in
    if Int64.compare t !prev < 0 then Alcotest.fail "monotonic clock went back";
    prev := t
  done

(* --- golden exports --------------------------------------------------- *)

(* The fixed program behind both golden files: three spans (one on a
   named lane, with explicit tids so domain ids cannot leak into the
   bytes), two counters and a gauge, on a virtual clock.  Every clock
   read is one 1000 ns tick, so the timestamps below are knowable:
   root opens at 0, child spans 1000-2000, lane-work 3000-4000, root
   closes at 5000, and the export's counter sample lands at 6000. *)
let fixed_sink () =
  let o = Obs.create ~clock:(Clock.virtual_ ()) () in
  Obs.set_lane o ~tid:1 "worker-1";
  let items = Obs.counter o "items" in
  let retries = Obs.counter o "retries" in
  let frontier = Obs.gauge o "frontier_max" in
  let root = Obs.begin_span o ~tid:0 ~args:[ ("phase", "build") ] "root" in
  let child = Obs.begin_span o ~tid:0 ~parent:root "child" in
  Obs.Counter.add items 3;
  Obs.Gauge.max_ frontier 7;
  Obs.end_span o child;
  let lane =
    Obs.begin_span o ~tid:1 ~parent:root ~args:[ ("item", "0") ] "lane-work"
  in
  Obs.Counter.incr items;
  Obs.Counter.incr retries;
  Obs.end_span o lane;
  Obs.end_span o root;
  o

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let golden name = Filename.concat "golden" name

(* Regeneration hook: ASYNCOLOR_REGEN_GOLDEN=1 rewrites the committed
   files instead of comparing (run from test/, then review the diff). *)
let regen = Sys.getenv_opt "ASYNCOLOR_REGEN_GOLDEN" <> None

let check_golden name actual =
  if regen then write_file (golden name) actual
  else check Alcotest.string name (read_file (golden name)) actual

let test_golden_chrome () =
  let o = fixed_sink () in
  (* one chrome_string call only: the export itself reads the virtual
     clock once (the counter-sample instant), so a second call would
     move the bytes *)
  check_golden "trace_fixed.json" (Trace_export.chrome_string o)

let test_golden_metrics () =
  let o = fixed_sink () in
  check_golden "metrics_fixed.txt" (Trace_export.metrics_table o)

let test_golden_is_valid () =
  let o = fixed_sink () in
  match Trace_export.validate_string (Trace_export.chrome_string o) with
  | Ok n -> check Alcotest.int "events" 7 n
  | Error e -> Alcotest.failf "golden trace rejected: %s" e

(* --- validator: corrupt and truncated traces -------------------------- *)

let expect_invalid what s =
  match Trace_export.validate_string s with
  | Ok _ -> Alcotest.failf "%s: expected rejection" what
  | Error msg ->
      if String.length msg = 0 then Alcotest.failf "%s: empty error" what

let test_validate_rejects () =
  let good = Trace_export.chrome_string (fixed_sink ()) in
  (* truncation at every eighth byte: no prefix may validate *)
  let len = String.length good in
  let i = ref 1 in
  while !i < len do
    expect_invalid
      (Printf.sprintf "truncated at %d" !i)
      (String.sub good 0 !i);
    i := !i + 8
  done;
  expect_invalid "not JSON at all" "ceci n'est pas une trace";
  expect_invalid "no traceEvents" "{\"displayTimeUnit\": \"ms\"}";
  expect_invalid "traceEvents not an array" "{\"traceEvents\": 3}";
  expect_invalid "event not an object" "{\"traceEvents\": [42]}";
  expect_invalid "event without ph"
    "{\"traceEvents\": [{\"name\":\"x\",\"pid\":0,\"tid\":0}]}";
  expect_invalid "unknown phase"
    "{\"traceEvents\": [{\"ph\":\"Z\",\"name\":\"x\",\"pid\":0,\"tid\":0}]}";
  expect_invalid "complete event without ts"
    "{\"traceEvents\": [{\"ph\":\"X\",\"name\":\"x\",\"pid\":0,\"tid\":0}]}";
  expect_invalid "negative dur"
    "{\"traceEvents\": \
     [{\"ph\":\"X\",\"name\":\"x\",\"pid\":0,\"tid\":0,\"ts\":1,\"dur\":-1}]}";
  expect_invalid "trailing bytes" "{\"traceEvents\": []} garbage"

let test_validate_accepts_minimal () =
  match Trace_export.validate_string "{\"traceEvents\": []}" with
  | Ok 0 -> ()
  | Ok n -> Alcotest.failf "expected 0 events, got %d" n
  | Error e -> Alcotest.failf "minimal trace rejected: %s" e

let test_validate_missing_file () =
  match Trace_export.validate "no-such-file.json" with
  | Ok _ -> Alcotest.fail "missing file accepted"
  | Error _ -> ()

(* --- disabled sink is inert ------------------------------------------- *)

let test_disabled_noop () =
  let o = Obs.disabled in
  check Alcotest.bool "disabled" false (Obs.enabled o);
  check Alcotest.int64 "now is 0" 0L (Obs.now o);
  let c = Obs.counter o "c" in
  Obs.Counter.add c 41;
  check Alcotest.int "counter ignores writes" 0 (Obs.Counter.value c);
  let g = Obs.gauge o "g" in
  Obs.Gauge.set g 9;
  Obs.Gauge.max_ g 11;
  check Alcotest.int "gauge ignores writes" 0 (Obs.Gauge.value g);
  let v = Obs.span o "s" (fun () -> 17) in
  check Alcotest.int "span passes the value through" 17 v;
  check Alcotest.int "no spans recorded" 0 (List.length (Obs.spans o));
  check Alcotest.int "no metrics recorded" 0 (List.length (Obs.metrics o))

(* The explorer gauges its intern store's size at the end of the BFS:
   what the CLI's memory line divides by the configuration count when
   --metrics or --trace enabled a sink. *)
let test_intern_bytes_gauged () =
  let module Exp = Asyncolor_check.Explorer.Make (Asyncolor.Algorithm2.P) in
  let o = Obs.create () in
  let r = Exp.explore ~jobs:2 ~obs:o (Builders.cycle 4) ~idents:[| 5; 1; 9; 4 |] in
  let bytes = List.assoc "explorer.intern_bytes" (Obs.metrics o) in
  check Alcotest.bool "intern store size gauged" true (bytes > 0);
  check Alcotest.bool "a few bytes per configuration, not a boxed key" true
    (bytes < 256 * r.configs)

(* The adjacency and per-id table gauges next to the intern store's: each
   counts everything it holds, and no more than its chunk slack. *)
let test_store_bytes_gauged () =
  let module Exp = Asyncolor_check.Explorer.Make (Asyncolor.Algorithm2.P) in
  let o = Obs.create () in
  let r = Exp.explore ~jobs:2 ~obs:o (Builders.cycle 4) ~idents:[| 5; 1; 9; 4 |] in
  let gauge name = List.assoc name (Obs.metrics o) in
  let adj = gauge "explorer.adj_bytes" and tables = gauge "explorer.table_bytes" in
  let word = Sys.word_size / 8 in
  (* an edge is two varints, 2 to 18 bytes, and the stream's chunks are
     64 KiB; parent id, mask and row offset per config *)
  let table_words = 3 * r.configs in
  check Alcotest.bool "adjacency holds every edge" true (adj >= 2 * r.transitions);
  check Alcotest.bool "adjacency within its chunk slack" true
    (adj <= (18 * r.transitions) + 65_536 + 1024);
  check Alcotest.bool "tables hold every word" true
    (tables >= word * table_words);
  check Alcotest.bool "tables within their chunk slack" true
    (tables <= word * ((2 * table_words) + (3 * (1024 + 8))))

(* The explorer's submission loop gauges the expansions in flight after
   each top-up: on a two-job run with thousands of tasks the gauge must
   read something, and never more than the window it keeps. *)
let test_inflight_gauged () =
  let module Exp = Asyncolor_check.Explorer.Make (Asyncolor.Algorithm2.P) in
  let module Executor = Asyncolor_util.Executor in
  let o = Obs.create () in
  let policy = Executor.asynchronous ~kappa:0.5 ~jobs:2 () in
  let r =
    Exp.explore ~jobs:2 ~policy ~obs:o (Builders.cycle 4) ~idents:[| 5; 1; 9; 4 |]
  in
  let window = Executor.with_executor ~policy ~jobs:2 Executor.stream_window in
  let inflight = List.assoc "exec.inflight_max" (Obs.metrics o) in
  check Alcotest.bool "a run of thousands of tasks" true (r.configs > 1000);
  check Alcotest.bool "expansions in flight gauged" true (inflight > 0);
  check Alcotest.bool "never past the stream window" true (inflight <= window)

(* --- qcheck: span trees are well-nested ------------------------------- *)

(* Interpret a list of small ints as a stack program over one sink:
   open a child of the current top, or close the top.  Whatever the
   program, every recorded span must have a non-negative duration and
   lie within its parent's interval. *)
let run_span_program ops =
  let o = Obs.create ~clock:(Clock.virtual_ ()) () in
  let stack = ref [] in
  List.iter
    (fun op ->
      let close = op mod 3 = 2 && !stack <> [] in
      if close then begin
        match !stack with
        | sp :: rest ->
            Obs.end_span o sp;
            stack := rest
        | [] -> assert false
      end
      else begin
        let parent = match !stack with sp :: _ -> Some sp | [] -> None in
        let sp =
          Obs.begin_span o ~tid:0 ?parent
            (Printf.sprintf "s%d" (op mod 7))
        in
        stack := sp :: !stack
      end)
    ops;
  List.iter (fun sp -> Obs.end_span o sp) !stack;
  Obs.spans o

let prop_spans_well_nested =
  QCheck.Test.make ~name:"span trees are well-nested under a virtual clock"
    ~count:200
    QCheck.(list_of_size Gen.(int_range 0 40) small_nat)
    (fun ops ->
      let spans = run_span_program ops in
      let by_sid = Hashtbl.create 16 in
      List.iter
        (fun (r : Obs.span_record) -> Hashtbl.replace by_sid r.r_sid r)
        spans;
      List.for_all
        (fun (r : Obs.span_record) ->
          Int64.compare r.r_dur 0L >= 0
          &&
          match Hashtbl.find_opt by_sid r.r_parent with
          | None -> r.r_parent = -1
          | Some p ->
              let endp = Int64.add p.r_start p.r_dur in
              let endr = Int64.add r.r_start r.r_dur in
              Int64.compare p.r_start r.r_start <= 0
              && Int64.compare endr endp <= 0)
        spans)

(* --- qcheck: explorer counters equal the report, any jobs ------------- *)

let idents_pool = [| 5; 1; 9; 4; 7; 2 |]

let prop_explorer_counters_match_report =
  let module Exp = Asyncolor_check.Explorer.Make (Asyncolor.Algorithm2.P) in
  QCheck.Test.make
    ~name:"explorer.configs/transitions = report, jobs 1/2/4" ~count:12
    QCheck.(pair (int_range 3 4) (int_range 0 119))
    (fun (n, perm) ->
      (* pick n distinct identifiers from the pool, order keyed by perm *)
      let idents = Array.sub idents_pool 0 n in
      let k = ref perm in
      for i = n - 1 downto 1 do
        let j = !k mod (i + 1) in
        k := !k / (i + 1);
        let t = idents.(i) in
        idents.(i) <- idents.(j);
        idents.(j) <- t
      done;
      let graph = Builders.cycle n in
      List.for_all
        (fun jobs ->
          let o = Obs.create ~clock:(Clock.virtual_ ()) () in
          let r = Exp.explore ~jobs ~obs:o graph ~idents in
          let m = Obs.metrics o in
          List.assoc "explorer.configs" m = r.configs
          && List.assoc "explorer.transitions" m = r.transitions)
        [ 1; 2; 4 ])

let test_resume_counts_only_new () =
  (* The documented resume contract: explorer.configs counts only the
     configurations interned after the resume point. *)
  let module Exp = Asyncolor_check.Explorer.Make (Asyncolor.Algorithm2.P) in
  let graph = Builders.cycle 4 in
  let idents = [| 5; 1; 9; 4 |] in
  let full = Exp.explore graph ~idents in
  let path = Filename.temp_file "asyncolor-obs-resume" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let cut = 500 in
      let partial =
        Exp.explore ~checkpoint:(path, 100_000)
          ~stop:(fun ~configs -> configs >= cut)
          graph ~idents
      in
      check Alcotest.bool "partial run is incomplete" false partial.complete;
      let o = Obs.create ~clock:(Clock.virtual_ ()) () in
      let resumed = Exp.explore_resume ~obs:o path in
      check Alcotest.int "resumed run completes the graph" full.configs
        resumed.configs;
      let counted = List.assoc "explorer.configs" (Obs.metrics o) in
      (* the checkpoint held partial.configs interned configurations, so
         the resumed run interns (and counts) exactly the rest *)
      check Alcotest.int "counts only post-resume configs"
        (full.configs - partial.configs)
        counted)

(* --- counters under a 4-domain hammer --------------------------------- *)

let test_counter_totals_parallel () =
  let o = Obs.create ~clock:(Clock.virtual_ ()) () in
  let c = Obs.counter o "hammer" in
  let per_domain = 50_000 in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Obs.Counter.add c (d + 1)
            done))
  in
  List.iter Domain.join domains;
  check Alcotest.int "merged total" (per_domain * (1 + 2 + 3 + 4))
    (Obs.Counter.value c);
  let g = Obs.gauge o "peak" in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to 1000 do
              Obs.Gauge.max_ g ((d * 1000) + i)
            done))
  in
  List.iter Domain.join domains;
  check Alcotest.int "gauge keeps the maximum" 4000 (Obs.Gauge.value g)

(* --- the shared sink: Diag and metrics interleave line-atomically ----- *)

let test_sink_line_atomicity_mixed () =
  (* Diag is now a façade over Sink — hammer both entry points from 4
     domains at once and require every line to come out whole. *)
  let path = Filename.temp_file "asyncolor-sink" ".log" in
  let oc = open_out path in
  Sink.set_channel oc;
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to 199 do
              if (d + i) mod 2 = 0 then
                Diag.printf "diag domain=%d line=%d pad=%s\n" d i
                  (String.make 25 (Char.chr (Char.code 'a' + d)))
              else
                Sink.emit
                  (Printf.sprintf "emit domain=%d line=%d pad=%s\n" d i
                     (String.make 25 (Char.chr (Char.code 'a' + d))))
            done))
  in
  List.iter Domain.join domains;
  Sink.set_channel stderr;
  close_out oc;
  let ic = open_in path in
  let lines = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr lines;
       match String.split_on_char ' ' line with
       | [ kind; d; _i; pad ] ->
           if kind <> "diag" && kind <> "emit" then
             Alcotest.failf "bad kind: %s" line;
           let dv = Scanf.sscanf d "domain=%d" Fun.id in
           let expect =
             "pad=" ^ String.make 25 (Char.chr (Char.code 'a' + dv))
           in
           if pad <> expect then Alcotest.failf "spliced line: %s" line
       | _ -> Alcotest.failf "malformed line: %s" line
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  check Alcotest.int "all 800 lines intact" 800 !lines

let () =
  Alcotest.run "obs"
    [
      ( "clock",
        [
          Alcotest.test_case "virtual clock ticks" `Quick test_virtual_clock;
          Alcotest.test_case "monotonic never goes back" `Quick
            test_monotonic_clock_nondecreasing;
        ] );
      ( "golden",
        [
          Alcotest.test_case "chrome trace, byte-for-byte" `Quick
            test_golden_chrome;
          Alcotest.test_case "metrics table, byte-for-byte" `Quick
            test_golden_metrics;
          Alcotest.test_case "golden trace self-validates" `Quick
            test_golden_is_valid;
        ] );
      ( "validate",
        [
          Alcotest.test_case "rejects corrupt/truncated" `Quick
            test_validate_rejects;
          Alcotest.test_case "accepts minimal" `Quick
            test_validate_accepts_minimal;
          Alcotest.test_case "missing file is an Error" `Quick
            test_validate_missing_file;
        ] );
      ( "sink",
        [
          Alcotest.test_case "disabled sink is inert" `Quick test_disabled_noop;
          qtest prop_spans_well_nested;
          Alcotest.test_case "counter totals, 4 domains" `Quick
            test_counter_totals_parallel;
          Alcotest.test_case "Diag+emit line atomicity, 4 domains" `Quick
            test_sink_line_atomicity_mixed;
        ] );
      ( "explorer",
        [
          qtest prop_explorer_counters_match_report;
          Alcotest.test_case "resume counts only new configs" `Quick
            test_resume_counts_only_new;
          Alcotest.test_case "intern store size gauged" `Quick
            test_intern_bytes_gauged;
          Alcotest.test_case "adjacency and table sizes gauged" `Quick
            test_store_bytes_gauged;
          Alcotest.test_case "explorer gauges tasks in flight" `Quick
            test_inflight_gauged;
        ] );
    ]
