(* Direct unit tests for the colour palettes, the algorithm table's
   claims and the output checker. *)

module Color = Asyncolor.Color
module Algos = Asyncolor.Algos
module Checker = Asyncolor.Checker
module Graph = Asyncolor_topology.Graph
module Builders = Asyncolor_topology.Builders

let check = Alcotest.check
let qtest t = QCheck_alcotest.to_alcotest t

(* --- Color ------------------------------------------------------------- *)

let test_pair_palette_membership () =
  check Alcotest.bool "(0,0)" true (Color.pair_in_palette ~budget:2 (0, 0));
  check Alcotest.bool "(2,0)" true (Color.pair_in_palette ~budget:2 (2, 0));
  check Alcotest.bool "(1,2) out" false (Color.pair_in_palette ~budget:2 (1, 2));
  check Alcotest.bool "negative a" false (Color.pair_in_palette ~budget:2 (-1, 0));
  check Alcotest.bool "negative b" false (Color.pair_in_palette ~budget:2 (0, -1));
  check Alcotest.bool "larger budget" true (Color.pair_in_palette ~budget:5 (2, 3))

let test_pair_palette_size () =
  check Alcotest.int "budget 2 -> 6" 6 (Color.pair_palette_size ~budget:2);
  check Alcotest.int "budget 3 -> 10" 10 (Color.pair_palette_size ~budget:3);
  check Alcotest.int "budget 0 -> 1" 1 (Color.pair_palette_size ~budget:0)

let test_pair_index_enumerates_palette () =
  (* the diagonal encoding is a bijection palette -> [0, size) *)
  let budget = 4 in
  let size = Color.pair_palette_size ~budget in
  let seen = Array.make size false in
  for a = 0 to budget do
    for b = 0 to budget - a do
      let i = Color.pair_index (a, b) in
      if i < 0 || i >= size then Alcotest.failf "index %d out of range" i;
      if seen.(i) then Alcotest.failf "index %d duplicated" i;
      seen.(i) <- true
    done
  done;
  check Alcotest.bool "surjective" true (Array.for_all Fun.id seen)

let prop_pair_index_injective =
  QCheck.Test.make ~name:"pair_index injective on the palette"
    QCheck.(pair (pair (int_range 0 20) (int_range 0 20)) (pair (int_range 0 20) (int_range 0 20)))
    (fun (p1, p2) ->
      p1 = p2 || Color.pair_index p1 <> Color.pair_index p2)

let test_in_five () =
  check Alcotest.bool "0" true (Color.in_five 0);
  check Alcotest.bool "4" true (Color.in_five 4);
  check Alcotest.bool "5" false (Color.in_five 5);
  check Alcotest.bool "-1" false (Color.in_five (-1))

(* --- Checker ------------------------------------------------------------ *)

let g5 = Builders.cycle 5

let test_checker_proper () =
  let v =
    Checker.check ~equal:Int.equal ~in_palette:Color.in_five g5
      [| Some 0; Some 1; Some 0; Some 1; Some 2 |]
  in
  check Alcotest.bool "proper" true v.proper;
  check Alcotest.int "returned" 5 v.returned;
  check Alcotest.int "distinct" 3 v.distinct_colors;
  check Alcotest.bool "ok" true (Checker.ok v)

let test_checker_conflicts () =
  let v =
    Checker.check ~equal:Int.equal ~in_palette:Color.in_five g5
      [| Some 0; Some 0; Some 1; Some 0; Some 1 |]
  in
  check Alcotest.bool "not proper" false v.proper;
  check Alcotest.(list (pair int int)) "conflict edge listed" [ (0, 1) ] v.conflicts;
  check Alcotest.bool "not ok" false (Checker.ok v)

let test_checker_wraparound_conflict () =
  let v =
    Checker.check ~equal:Int.equal ~in_palette:Color.in_five g5
      [| Some 2; Some 0; Some 1; Some 0; Some 2 |]
  in
  check Alcotest.(list (pair int int)) "wrap edge 0-4" [ (0, 4) ] v.conflicts

let test_checker_partial_outputs () =
  (* crashed endpoints unconstrain their edges *)
  (* nodes 0 and 2 share a colour but are insulated by the crashed node 1;
     the wrap edge 4-0 carries distinct colours *)
  let v =
    Checker.check ~equal:Int.equal ~in_palette:Color.in_five g5
      [| Some 0; None; Some 0; None; Some 1 |]
  in
  check Alcotest.bool "proper (no two returned adjacent)" true v.proper;
  check Alcotest.int "returned" 3 v.returned;
  check Alcotest.int "distinct" 2 v.distinct_colors

let test_checker_off_palette () =
  let v =
    Checker.check ~equal:Int.equal ~in_palette:Color.in_five g5
      [| Some 7; Some 0; Some 1; Some 0; Some 1 |]
  in
  check Alcotest.(list int) "process 0 flagged" [ 0 ] v.off_palette;
  check Alcotest.bool "proper but not ok" true (v.proper && not (Checker.ok v))

let test_checker_length_mismatch () =
  Alcotest.check_raises "length"
    (Invalid_argument "Checker.check: outputs length must match node count")
    (fun () ->
      ignore (Checker.check ~equal:Int.equal ~in_palette:Color.in_five g5 [| Some 0 |]))

let test_checker_pp_renders () =
  let v =
    Checker.check ~equal:Int.equal ~in_palette:Color.in_five g5
      [| Some 0; Some 0; Some 9; None; Some 1 |]
  in
  let s = Format.asprintf "%a" Checker.pp v in
  check Alcotest.bool "mentions properness" true
    (Astring.String.is_infix ~affix:"proper=false" s);
  check Alcotest.bool "mentions the conflict" true
    (Astring.String.is_infix ~affix:"0-1" s)

(* --- The algorithm table ------------------------------------------------ *)

(* The reference the table is held to, written out per algorithm as the
   fuzzer claims it (palette, [None] for no claim, and cycle bound) and,
   for Algorithm 4, as [run] judges it.  The table must claim exactly
   these. *)
let reference_pair_palette name ~graph ~on_cycle =
  let delta = Graph.max_degree graph in
  match name with
  | "1" -> Some (Color.pair_in_palette ~budget:(if on_cycle then 2 else delta))
  | "4" -> Some (Asyncolor.Algorithm4.in_palette ~max_degree:delta)
  | _ -> assert false

let reference_int_palette name ~graph ~on_cycle =
  match name with
  | "2" ->
      Some
        (Asyncolor.Algorithm2.in_general_palette
           ~max_degree:(Graph.max_degree graph))
  | "2s" -> if on_cycle then Some Asyncolor.Algorithm2s.in_palette else None
  | "3" -> Some Color.in_five
  | _ -> assert false

let reference_bound name ~n ~on_cycle =
  if not on_cycle then None
  else
    match name with
    | "1" -> Some (Asyncolor.Algorithm1.activation_bound n)
    | "2" -> Some (Asyncolor.Algorithm2.activation_bound n)
    | "3" -> Some (Asyncolor.Algorithm3.activation_bound n)
    | _ -> None

let table_graphs =
  List.concat_map
    (fun n ->
      [
        ("cycle", n, Builders.cycle n, true);
        ("path", n, Builders.path n, false);
        ("star", n, Builders.star n, false);
        ("complete", n, Builders.complete n, false);
      ])
    [ 3; 4; 5; 6; 7; 8 ]

let agrees_with_reference (type o) name (entry : o Algos.t)
    (reference : graph:Graph.t -> on_cycle:bool -> (o -> bool) option)
    (outputs : o list) =
  let (module P) = entry.protocol in
  List.iter
    (fun (kind, n, graph, on_cycle) ->
      let where = Printf.sprintf "algorithm %s on %s %d" name kind n in
      let claimed = entry.palette graph ~on_cycle in
      let reference =
        Option.value (reference ~graph ~on_cycle) ~default:(fun _ -> true)
      in
      List.iter
        (fun o ->
          if claimed o <> reference o then
            Alcotest.failf "%s: palette disagrees on %a" where P.pp_output o)
        outputs;
      check
        Alcotest.(option int)
        (where ^ ": bound")
        (reference_bound name ~n ~on_cycle)
        (if on_cycle then Option.map (fun b -> b n) entry.bound else None))
    table_graphs

let test_table_matches_reference () =
  let ints = List.init 23 (fun i -> i - 2) in
  let pairs = List.concat_map (fun a -> List.map (fun b -> (a, b)) ints) ints in
  agrees_with_reference "1" Algos.a1 (reference_pair_palette "1") pairs;
  agrees_with_reference "4" Algos.a4 (reference_pair_palette "4") pairs;
  List.iter
    (fun (name, entry) ->
      agrees_with_reference name entry (reference_int_palette name) ints)
    [ ("2", Algos.a2); ("2s", Algos.a2s); ("3", Algos.a3) ]

(* [find] knows each algorithm under its CLI and trace spelling, and no
   other name. *)
let test_table_find () =
  List.iter
    (fun name ->
      match Algos.find name with
      | Some (Algos.Any e) ->
          let (module P) = e.protocol in
          check Alcotest.string ("protocol of " ^ name)
            ("algorithm" ^ name) P.name
      | None -> Alcotest.failf "no entry %S" name)
    [ "1"; "2"; "2s"; "3"; "4" ];
  List.iter
    (fun name -> check Alcotest.bool ("no " ^ name) true (Algos.find name = None))
    [ ""; "0"; "5"; "2S"; "s2" ]

(* --- Outcome CSVs -------------------------------------------------------- *)

let test_outcome_write_csvs () =
  let table = Asyncolor_workload.Table.create ~headers:[ "x"; "y" ] in
  Asyncolor_workload.Table.add_row table [ "1"; "2" ];
  let outcome =
    {
      Asyncolor_experiments.Outcome.id = "E0";
      title = "t";
      claim = "c";
      tables = [ ("My Caption!", table) ];
      ok = true;
      notes = [];
    }
  in
  let dir = Filename.temp_file "asyncolor" "csvdir" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let paths = Asyncolor_experiments.Outcome.write_csvs ~dir outcome in
  check Alcotest.int "one file" 1 (List.length paths);
  let path = List.hd paths in
  check Alcotest.bool "slugged name" true
    (Filename.basename path = "e0_my_caption_.csv");
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  check Alcotest.string "header row" "x,y" line

let () =
  Alcotest.run "color"
    [
      ( "palette",
        [
          Alcotest.test_case "pair membership" `Quick test_pair_palette_membership;
          Alcotest.test_case "pair size" `Quick test_pair_palette_size;
          Alcotest.test_case "pair index bijective" `Quick
            test_pair_index_enumerates_palette;
          Alcotest.test_case "in_five" `Quick test_in_five;
          qtest prop_pair_index_injective;
        ] );
      ( "checker",
        [
          Alcotest.test_case "proper" `Quick test_checker_proper;
          Alcotest.test_case "conflicts" `Quick test_checker_conflicts;
          Alcotest.test_case "wraparound" `Quick test_checker_wraparound_conflict;
          Alcotest.test_case "partial outputs" `Quick test_checker_partial_outputs;
          Alcotest.test_case "off palette" `Quick test_checker_off_palette;
          Alcotest.test_case "length mismatch" `Quick test_checker_length_mismatch;
          Alcotest.test_case "pp" `Quick test_checker_pp_renders;
        ] );
      ( "algorithm table",
        [
          Alcotest.test_case "claims match the reference" `Quick
            test_table_matches_reference;
          Alcotest.test_case "find" `Quick test_table_find;
        ] );
      ( "outcome",
        [ Alcotest.test_case "write csvs" `Quick test_outcome_write_csvs ] );
    ]
