(** E16 — probing the paper's open problem (§5): "We do not know if 2Δ+1
    colors suffice for properly coloring all graphs of maximum degree Δ in
    a wait-free manner."

    Observation: Algorithm 2's transition never inspects its degree.  Run
    on an arbitrary graph it outputs colours in [{0,…,2Δ}] — the exact
    palette the renaming lower bound makes necessary — and properness
    carries over verbatim (Lemma 3.12's argument is degree-blind).  Only
    {e wait-freedom} is open.  We probe it two ways:

    - exhaustively (all interleaved schedules) on small graphs of varied
      shape: cliques (where the algorithm specialises to a (2n−1)-renaming
      protocol!), stars, paths, the paw and the diamond — the
      configuration graphs are acyclic with worst cases of 4-5
      activations;
    - adversarial sweeps on the topology zoo, validating termination,
      palette [2Δ+1] and properness.

    This is empirical evidence {e for} a positive answer, not a proof —
    recorded as such in EXPERIMENTS.md.  (Under simultaneous schedules the
    F1 phase-lock appears on every one of these graphs, including paths:
    F1 is a property of the a/b-mex coupling, not of the cycle.) *)

module Table = Asyncolor_workload.Table
module Idents = Asyncolor_workload.Idents
module Prng = Asyncolor_util.Prng
module Graph = Asyncolor_topology.Graph
module Builders = Asyncolor_topology.Builders
module A2 = Asyncolor.Algorithm2
module Checker = Asyncolor.Checker
module Explorer = Asyncolor_check.Explorer.Make (A2.P)
module Sweep = Harness.Sweep (A2.P)

let paw = lazy (Graph.make ~n:4 ~edges:[ (0, 1); (1, 2); (2, 0); (2, 3) ])

let diamond =
  lazy (Graph.make ~n:4 ~edges:[ (0, 1); (1, 2); (2, 3); (3, 0); (0, 2) ])

(* Each instance carries its own configuration cap: the packed explorer
   holds ~18.6M configurations for K7, so the cap is per-size rather than
   one global guess. *)
let small_graphs ~quick =
  let base =
    [
      ("K4", Builders.complete 4, [| 3; 7; 1; 9 |], 2_000_000);
      ("star4", Builders.star 4, [| 5; 2; 8; 1 |], 2_000_000);
      ("path4", Builders.path 4, [| 5; 1; 9; 4 |], 2_000_000);
      ("paw", Lazy.force paw, [| 5; 1; 9; 4 |], 2_000_000);
      ("diamond", Lazy.force diamond, [| 5; 1; 9; 4 |], 2_000_000);
    ]
  in
  if quick then base
  else
    base
    @ [
        ("K5", Builders.complete 5, [| 3; 7; 1; 9; 5 |], 2_000_000);
        ("K6", Builders.complete 6, [| 3; 7; 1; 9; 5; 11 |], 2_000_000);
        ("K7", Builders.complete 7, [| 3; 7; 1; 9; 5; 11; 2 |], 40_000_000);
      ]

let run ?(quick = false) ?(seed = 57) () =
  let ok = ref true in
  let ex_table =
    Table.create
      ~headers:[ "graph"; "Δ"; "configs"; "wait-free (interleaved)"; "exact worst"; "violations" ]
  in
  List.iter
    (fun (gname, graph, idents, max_configs) ->
      let delta = Graph.max_degree graph in
      let check_outputs outs =
        let v =
          Checker.check ~equal:Int.equal
            ~in_palette:(A2.in_general_palette ~max_degree:delta)
            graph outs
        in
        if Checker.ok v then None else Some (Format.asprintf "%a" Checker.pp v)
      in
      let r =
        Explorer.explore ~mode:`Singletons ~max_configs graph ~idents
          ~check_outputs
      in
      ok := !ok && r.complete && r.wait_free && r.safety = [];
      Table.add_row ex_table
        [
          gname;
          string_of_int delta;
          string_of_int r.configs;
          string_of_bool r.wait_free;
          string_of_int r.worst_case_activations;
          string_of_int (List.length r.safety);
        ])
    (small_graphs ~quick);
  let sweep_table =
    Table.create
      ~headers:[ "graph"; "n"; "Δ"; "palette 2Δ+1"; "colours used"; "worst rounds" ]
  in
  let prng = Prng.create ~seed in
  let zoo =
    [
      ("petersen", Builders.petersen ());
      ("grid 6x6", Builders.grid 6 6);
      ("hypercube d=4", Builders.hypercube 4);
      ("3-regular n=24", Builders.random_regular prng ~n:24 ~d:3);
      ("K8", Builders.complete 8);
    ]
    @ if quick then [] else [ ("gnp n=40 p=0.15", Builders.gnp prng ~n:40 ~p:0.15) ]
  in
  List.iter
    (fun (gname, graph) ->
      let n = Graph.n graph in
      let delta = Graph.max_degree graph in
      let idents = Idents.random_permutation (Prng.create ~seed:(seed + n)) n in
      let s =
        Sweep.run ~equal:Int.equal
          ~in_palette:(A2.in_general_palette ~max_degree:delta)
          ~graph ~idents
          (Harness.adversary_suite ~seed)
      in
      ok :=
        !ok && s.all_proper && s.all_palette && s.all_returned && not s.livelocked;
      Table.add_row sweep_table
        [
          gname;
          string_of_int n;
          string_of_int delta;
          string_of_int (A2.general_palette ~max_degree:delta);
          string_of_int s.distinct_colors_max;
          string_of_int s.worst_rounds;
        ])
    zoo;
  {
    Outcome.id = "E16";
    title = "Open problem probe: Algorithm 2 on general graphs (2Δ+1 colours)";
    claim =
      "§5 open question: do 2Δ+1 colours suffice wait-free on graphs of \
       max degree Δ? — palette and properness hold by construction; \
       wait-freedom holds on every graph we could check exhaustively";
    tables =
      [
        ("exhaustive, interleaved schedules", ex_table);
        ("adversary-suite sweeps on the zoo", sweep_table);
      ];
    ok = !ok;
    notes =
      [
        "On K_n the generalised Algorithm 2 is a (2n-1)-renaming protocol \
         — with exhaustive exact worst case of n activations (K4: 4, K5: \
         5, K6: 6, K7: 7).";
        "Evidence, not proof: exhaustiveness stops at n=7 (K7, 18.6M \
         configurations, packed explorer); the sweeps are adversarial \
         sampling.";
      ];
  }
