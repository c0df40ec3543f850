(* Integration test: every reproduction experiment must pass in quick mode,
   and the registry must be well-formed. *)

module Registry = Asyncolor_experiments.Registry
module Outcome = Asyncolor_experiments.Outcome
module Harness = Asyncolor_experiments.Harness

let check = Alcotest.check

let ids = List.init 18 (fun i -> Printf.sprintf "E%d" (i + 1))

let test_registry_well_formed () =
  List.iter
    (fun id ->
      match Registry.find id with
      | Some e -> check Alcotest.string "id" id e.id
      | None -> Alcotest.failf "experiment %s missing" id)
    ids;
  check Alcotest.bool "no E19" true (Registry.find "E19" = None);
  check Alcotest.bool "find case-insensitive" true (Registry.find "e7" <> None);
  check Alcotest.bool "find missing" true (Registry.find "E99" = None)

let test_map_cells_order () =
  List.iter
    (fun jobs ->
      check Alcotest.(list int) "input order" (List.init 40 (fun x -> x * x))
        (Harness.map_cells ~jobs (fun x -> x * x) (List.init 40 Fun.id)))
    [ 1; 2; 3 ]

(* The first 30 activation sets of each adversary, on six processes. *)
let schedules seed =
  List.map
    (fun (a : Harness.Adversary.t) ->
      List.init 30 (fun i -> a.next ~time:(i + 1) ~unfinished:(List.init 6 Fun.id)))
    (Harness.adversary_suite ~seed)

let test_adversary_suite_seeded () =
  check Alcotest.bool "a fresh suite replays its seed" true (schedules 4 = schedules 4);
  check Alcotest.bool "another seed draws other schedules" true (schedules 4 <> schedules 5)

let test_write_csvs () =
  let t = Asyncolor_workload.Table.create ~headers:[ "n"; "rounds" ] in
  Asyncolor_workload.Table.add_row t [ "3"; "7" ];
  let o = { Outcome.id = "E99"; title = ""; claim = ""; tables = [ ("Rounds vs n", t) ];
            ok = true; notes = [] } in
  let dir = Filename.temp_dir "asyncolor" "csv" in
  let paths = Outcome.write_csvs ~dir o in
  let csv = List.map (fun p -> In_channel.with_open_bin p In_channel.input_all) paths in
  List.iter Sys.remove paths;
  Sys.rmdir dir;
  check Alcotest.(list (pair string string)) "one slugged file a table"
    [ ("e99_rounds_vs_n.csv", "n,rounds\n3,7\n") ] (List.combine (List.map Filename.basename paths) csv);
  check Alcotest.(list bool) "all_ok" [ true; false ]
    [ Outcome.all_ok [ o ]; Outcome.all_ok [ o; { o with ok = false } ] ]

let run_one id () =
  match Registry.find id with
  | None -> Alcotest.failf "experiment %s missing" id
  | Some e ->
      let outcome = e.run ~quick:true () in
      check Alcotest.string "id matches" id outcome.Outcome.id;
      if not outcome.Outcome.ok then
        Alcotest.failf "%s did not reproduce: %s" id outcome.Outcome.title;
      check Alcotest.bool "has tables" true (outcome.Outcome.tables <> [])

let () =
  Alcotest.run "experiments"
    ([
       Alcotest.test_case "registry well-formed" `Quick test_registry_well_formed;
       Alcotest.test_case "map_cells keeps input order" `Quick test_map_cells_order;
       Alcotest.test_case "adversary suites are seeded" `Quick test_adversary_suite_seeded;
       Alcotest.test_case "write_csvs and all_ok" `Quick test_write_csvs;
     ]
     @ List.map
         (fun id -> Alcotest.test_case (id ^ " reproduces (quick)") `Slow (run_one id))
         ids
    |> fun cases -> [ ("experiments", cases) ])
