(* Tests for workload generators, statistics and tables. *)

module Idents = Asyncolor_workload.Idents
module Stats = Asyncolor_workload.Stats
module Table = Asyncolor_workload.Table
module Prng = Asyncolor_util.Prng

let check = Alcotest.check
let qtest t = QCheck_alcotest.to_alcotest t

(* --- idents ----------------------------------------------------------- *)

let test_increasing () =
  check Alcotest.(array int) "0..4" [| 0; 1; 2; 3; 4 |] (Idents.increasing 5);
  check Alcotest.bool "injective" true (Idents.is_injective (Idents.increasing 10))

let test_decreasing () =
  check Alcotest.(array int) "4..0" [| 4; 3; 2; 1; 0 |] (Idents.decreasing 5)

let test_zigzag () =
  let z = Idents.zigzag 6 in
  check Alcotest.(array int) "pattern" [| 0; 6; 1; 7; 2; 8 |] z;
  check Alcotest.bool "injective" true (Idents.is_injective z);
  (* every even position is a local minimum *)
  let n = Array.length z in
  for i = 0 to n - 1 do
    if i mod 2 = 0 then begin
      let l = z.((i + n - 1) mod n) and r = z.((i + 1) mod n) in
      check Alcotest.bool "local min" true (z.(i) < l && z.(i) < r)
    end
  done

let test_random_permutation () =
  let p = Idents.random_permutation (Prng.create ~seed:1) 50 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  check Alcotest.(array int) "permutation of 0..49" (Idents.increasing 50) sorted

let test_random_sparse () =
  let ids = Idents.random_sparse (Prng.create ~seed:2) ~n:20 ~universe:1000 in
  check Alcotest.int "size" 20 (Array.length ids);
  check Alcotest.bool "injective" true (Idents.is_injective ids);
  Array.iter (fun x -> check Alcotest.bool "in universe" true (x >= 0 && x < 1000)) ids;
  Alcotest.check_raises "universe too small"
    (Invalid_argument "Idents.random_sparse: universe too small") (fun () ->
      ignore (Idents.random_sparse (Prng.create ~seed:3) ~n:10 ~universe:5))

let test_uniform () =
  check Alcotest.(array int) "default identifier" [| 7; 7; 7; 7 |] (Idents.uniform 4);
  check Alcotest.(array int) "given identifier" [| 2; 2; 2 |] (Idents.uniform ~ident:2 3)

let test_bit_adversarial () =
  let ids = Idents.bit_adversarial 32 in
  check Alcotest.bool "injective" true (Idents.is_injective ids)

let test_fresh () =
  (* Smallest non-live natural; dead incarnations' identifiers may be
     reused, so only the live set matters. *)
  check Alcotest.int "fills the first gap" 2
    (Idents.fresh ~live:[ 0; 1; 3 ] ~universe:8);
  check Alcotest.int "zero when free" 0 (Idents.fresh ~live:[ 5; 7 ] ~universe:8);
  check Alcotest.int "empty live set" 0 (Idents.fresh ~live:[] ~universe:1);
  Alcotest.check_raises "exhausted"
    (Invalid_argument "Idents.fresh: universe exhausted") (fun () ->
      ignore (Idents.fresh ~live:[ 0; 1; 2 ] ~universe:3));
  Alcotest.check_raises "non-positive universe"
    (Invalid_argument "Idents.fresh: universe must be positive") (fun () ->
      ignore (Idents.fresh ~live:[] ~universe:0))

let prop_fresh_no_collision =
  QCheck.Test.make
    ~name:"fresh never collides with a live identifier and stays in range"
    ~count:500
    QCheck.(pair (list_of_size (Gen.int_range 0 30) (int_range 0 40)) (int_range 1 64))
    (fun (live, universe) ->
      let distinct_live =
        List.sort_uniq compare (List.filter (fun i -> i < universe) live)
      in
      QCheck.assume (List.length distinct_live < universe);
      let id = Idents.fresh ~live ~universe in
      id >= 0 && id < universe && not (List.mem id live))

(* The allocator before the reusable occupancy buffer, kept as the
   oracle: fold the live list into a set, scan for the first gap. *)
let reference_fresh ~live ~universe =
  if universe <= 0 then invalid_arg "Idents.fresh: universe must be positive";
  let module S = Set.Make (Int) in
  let taken = List.fold_left (fun s x -> S.add x s) S.empty live in
  let rec scan c =
    if c >= universe then invalid_arg "Idents.fresh: universe exhausted"
    else if S.mem c taken then scan (c + 1)
    else c
  in
  scan 0

let outcome f = match f () with id -> Ok id | exception Invalid_argument m -> Error m

(* One pool serves a sequence of calls (its stamps must not leak from one
   call into the next), and every answer — exhaustion included — matches
   the oracle, for live sets with repeats and with identifiers outside
   [0, universe). *)
let prop_fresh_matches_reference =
  QCheck.Test.make ~name:"fresh and a reused pool agree with the set oracle"
    ~count:500
    QCheck.(
      make
        ~print:Print.(pair int (list (list int)))
        Gen.(
          int_range 1 64 >>= fun universe ->
          list_size (int_range 1 6)
            (list_size (int_range 0 80) (int_range (-3) (universe + 8)))
          >|= fun calls -> (universe, calls)))
    (fun (universe, calls) ->
      let pool = Idents.pool ~universe in
      List.for_all
        (fun live ->
          let want = outcome (fun () -> reference_fresh ~live ~universe) in
          let arr = Array.of_list live in
          want = outcome (fun () -> Idents.fresh ~live ~universe)
          && want
             = outcome (fun () ->
                   Idents.fresh_in pool ~count:(Array.length arr) (Array.get arr)))
        calls)

let test_longest_monotone_run () =
  check Alcotest.int "increasing ring 0..4" 4
    (Idents.longest_monotone_run (Idents.increasing 5));
  (* zigzag alternates direction on every edge: all runs have length 1 *)
  check Alcotest.int "zigzag is short" 1
    (Idents.longest_monotone_run (Idents.zigzag 12));
  check Alcotest.int "tiny" 0 (Idents.longest_monotone_run [| 7 |]);
  (* a run crossing the wrap-around boundary *)
  check Alcotest.int "wrap run" 3 (Idents.longest_monotone_run [| 5; 9; 1; 3 |]);
  (* equal neighbours are in no strictly monotone run *)
  check Alcotest.int "uniform" 0 (Idents.longest_monotone_run (Idents.uniform 5));
  check Alcotest.int "plateau splits a run" 2
    (Idents.longest_monotone_run [| 0; 1; 2; 2; 3; 4 |])

let prop_monotone_run_bounds =
  QCheck.Test.make ~name:"longest run in [1, n-1] for injective rings" ~count:200
    QCheck.(pair (int_range 3 50) (int_range 0 10_000))
    (fun (n, seed) ->
      let ids = Idents.random_permutation (Prng.create ~seed) n in
      let r = Idents.longest_monotone_run ids in
      r >= 1 && r <= n - 1)

(* --- stats ------------------------------------------------------------ *)

let test_summarize () =
  let s = Stats.summarize [ 4; 1; 3; 2; 5 ] in
  check Alcotest.int "count" 5 s.count;
  check Alcotest.int "min" 1 s.min;
  check Alcotest.int "max" 5 s.max;
  check (Alcotest.float 1e-9) "mean" 3.0 s.mean;
  check Alcotest.int "p50" 3 s.p50

let test_summarize_singleton () =
  let s = Stats.summarize [ 42 ] in
  check Alcotest.int "all percentiles" 42 s.p99;
  check (Alcotest.float 1e-9) "sd 0" 0.0 s.stddev

let test_summarize_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.summarize: empty") (fun () ->
      ignore (Stats.summarize []))

(* Nearest rank: the smallest sample with a fraction p at or below it. *)
let test_percentile () =
  let s = Stats.summarize [ 70; 10; 100; 40; 20; 90; 30; 60; 80; 50 ] in
  check Alcotest.(list int) "min, p50, p95, max" [ 10; 50; 100; 100 ] [ s.min; s.p50; s.p95; s.max ];
  let s = Stats.summarize (List.init 100 (fun i -> 100 - i)) in
  check Alcotest.(list int) "1..100" [ 50; 95; 99 ] [ s.p50; s.p95; s.p99 ]

let prop_summarize_order_free =
  QCheck.Test.make ~name:"summarize ignores the sample's order" ~count:200
    QCheck.(pair int (list_of_size (Gen.int_range 1 80) (int_range (-1000) 1000)))
    (fun (seed, l) ->
      let a = Array.of_list l in
      Prng.shuffle (Prng.create ~seed) a;
      Stats.summarize l = Stats.summarize (Array.to_list a))

(* Summed in sample order, the squared deviations of these shuffles
   differ in the last bits of [stddev]. *)
let test_summarize_order_free_case () =
  let s = Stats.summarize [ 0; 0; -14; 91; 82 ] in
  List.iter
    (fun l ->
      check Alcotest.bool "same summary, stddev exactly" true
        (Stats.summarize l = s))
    [ [ 0; -14; 0; 82; 91 ]; [ 91; 82; 0; 0; -14 ]; [ -14; 0; 91; 0; 82 ] ]

let prop_percentiles_ordered =
  QCheck.Test.make ~name:"min <= p50 <= p95 <= p99 <= max, min <= mean <= max"
    ~count:500
    QCheck.(list_of_size (Gen.int_range 1 100) (int_range (-10_000) 10_000))
    (fun l ->
      let s = Stats.summarize l in
      s.min <= s.p50 && s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max
      && float_of_int s.min <= s.mean
      && s.mean <= float_of_int s.max)

let test_linear_fit_exact () =
  let a, b = Stats.linear_fit [ (0.0, 1.0); (1.0, 3.0); (2.0, 5.0) ] in
  check (Alcotest.float 1e-9) "slope" 2.0 a;
  check (Alcotest.float 1e-9) "intercept" 1.0 b

let test_linear_fit_errors () =
  Alcotest.check_raises "one point"
    (Invalid_argument "Stats.linear_fit: need >= 2 points") (fun () ->
      ignore (Stats.linear_fit [ (1.0, 1.0) ]));
  Alcotest.check_raises "degenerate"
    (Invalid_argument "Stats.linear_fit: degenerate x values") (fun () ->
      ignore (Stats.linear_fit [ (1.0, 1.0); (1.0, 2.0) ]))

let prop_summary_consistent =
  QCheck.Test.make ~name:"min <= p50 <= p95 <= max, mean within [min,max]" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 50) (int_range (-1000) 1000))
    (fun l ->
      let s = Stats.summarize l in
      s.min <= s.p50 && s.p50 <= s.p95 && s.p95 <= s.max
      && s.mean >= float_of_int s.min
      && s.mean <= float_of_int s.max)

(* --- table ------------------------------------------------------------ *)

let test_table_rendering () =
  let t = Table.create ~headers:[ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let path = Filename.temp_file "asyncolor" ".out" and saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  flush stdout;
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect (fun () -> Table.print t) ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved);
  let printed = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  check Alcotest.string "padded columns, rows in order"
    "| name  | value |\n|-------|-------|\n| alpha | 1     |\n| b     | 22    |\n" printed

let test_table_width_mismatch () =
  let t = Table.create ~headers:[ "a"; "b" ] in
  Alcotest.check_raises "mismatch" (Invalid_argument "Table.add_row: row width mismatch")
    (fun () -> Table.add_row t [ "only-one" ])

let test_row_int () =
  check Alcotest.(list string) "row_int" [ "1"; "2"; "3" ] (Table.row_int [ 1; 2; 3 ])

let test_table_csv () =
  let t = Table.create ~headers:[ "a"; "b" ] in
  Table.add_row t [ "plain"; "with,comma" ];
  Table.add_row t [ "with\"quote"; "2" ];
  let path = Filename.temp_file "asyncolor" ".csv" in
  Table.write_csv path t;
  let csv = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  check Alcotest.string "csv escaping"
    "a,b\nplain,\"with,comma\"\n\"with\"\"quote\",2\n" csv

let () =
  Alcotest.run "workload"
    [
      ( "idents",
        [
          Alcotest.test_case "increasing" `Quick test_increasing;
          Alcotest.test_case "decreasing" `Quick test_decreasing;
          Alcotest.test_case "zigzag" `Quick test_zigzag;
          Alcotest.test_case "uniform" `Quick test_uniform;
          Alcotest.test_case "random permutation" `Quick test_random_permutation;
          Alcotest.test_case "random sparse" `Quick test_random_sparse;
          Alcotest.test_case "bit adversarial" `Quick test_bit_adversarial;
          Alcotest.test_case "fresh" `Quick test_fresh;
          qtest prop_fresh_no_collision;
          qtest prop_fresh_matches_reference;
          Alcotest.test_case "longest monotone run" `Quick test_longest_monotone_run;
          qtest prop_monotone_run_bounds;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summarize" `Quick test_summarize;
          Alcotest.test_case "singleton" `Quick test_summarize_singleton;
          Alcotest.test_case "empty" `Quick test_summarize_empty;
          Alcotest.test_case "percentile" `Quick test_percentile;
          qtest prop_summarize_order_free;
          Alcotest.test_case "order-free counterexample" `Quick
            test_summarize_order_free_case;
          qtest prop_percentiles_ordered;
          Alcotest.test_case "linear fit exact" `Quick test_linear_fit_exact;
          Alcotest.test_case "linear fit errors" `Quick test_linear_fit_errors;
          qtest prop_summary_consistent;
        ] );
      ( "table",
        [
          Alcotest.test_case "rendering" `Quick test_table_rendering;
          Alcotest.test_case "width mismatch" `Quick test_table_width_mismatch;
          Alcotest.test_case "row_int" `Quick test_row_int;
          Alcotest.test_case "csv" `Quick test_table_csv;
        ] );
    ]
