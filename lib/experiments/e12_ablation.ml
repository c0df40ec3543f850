(** E12 — ablation across the paper's design space on the same workload:
    Algorithm 1 (6 colours, O(n)), Algorithm 2 (5 colours, O(n) — drops a
    colour by sharing the mex pool), Algorithm 3 (5 colours, O(log* n) —
    adds identifier reduction), plus the shared-memory rank renaming
    baseline whose name range grows as 2n−1 while the cycle algorithms
    stay at 5 colours: locality is what buys the constant palette. *)

module Table = Asyncolor_workload.Table
module Idents = Asyncolor_workload.Idents
module Builders = Asyncolor_topology.Builders
module Color = Asyncolor.Color
module Sweep1 = Harness.Sweep (Asyncolor.Algorithm1.P)
module Sweep2 = Harness.Sweep (Asyncolor.Algorithm2.P)
module Sweep3 = Harness.Sweep (Asyncolor.Algorithm3.P)
module SweepR = Harness.Sweep (Asyncolor_shm.Renaming.P)

let sizes ~quick = if quick then [ 4; 8; 16 ] else [ 4; 8; 16; 32; 64; 128; 256 ]

let run ?(quick = false) ?(seed = 53) () =
  let table =
    Table.create
      ~headers:
        [ "n"; "alg1 rounds"; "alg2 rounds"; "alg3 rounds"; "renaming rounds";
          "renaming names<="; "cycle colours<=" ]
  in
  let ok = ref true in
  List.iter
    (fun n ->
      let graph = Builders.cycle n in
      let idents = Idents.increasing n in
      let suite () = Harness.adversary_suite ~seed in
      let s1 =
        Sweep1.run
          ~equal:(fun a b -> a = b)
          ~in_palette:(Color.pair_in_palette ~budget:2) ~graph ~idents (suite ())
      in
      let s2 =
        Sweep2.run ~equal:Int.equal ~in_palette:Color.in_five ~graph ~idents (suite ())
      in
      let s3 =
        Sweep3.run ~equal:Int.equal ~in_palette:Color.in_five ~graph ~idents (suite ())
      in
      let name_bound = Asyncolor_shm.Renaming.name_bound n in
      let sr =
        SweepR.run ~equal:Int.equal
          ~in_palette:(fun c -> c >= 0 && c <= name_bound)
          ~graph:(Builders.complete n) ~idents (suite ())
      in
      ok :=
        !ok && s1.all_proper && s2.all_proper && s3.all_proper && sr.all_proper
        && s1.all_palette && s2.all_palette && s3.all_palette && sr.all_palette
        && (not s1.livelocked) && (not s2.livelocked) && (not s3.livelocked)
        && not sr.livelocked;
      Table.add_row table
        [
          string_of_int n;
          string_of_int s1.worst_rounds;
          string_of_int s2.worst_rounds;
          string_of_int s3.worst_rounds;
          string_of_int sr.worst_rounds;
          string_of_int (name_bound + 1);
          "5 (6 for alg1)";
        ])
    (sizes ~quick);
  {
    Outcome.id = "E12";
    title = "Ablation: Algorithms 1/2/3 and the renaming baseline";
    claim =
      "§1/§3/§4: component 2 (identifier reduction) buys O(log* n); the \
       cycle topology buys the constant palette vs 2n-1 names";
    tables = [ ("monotone workload, worst rounds over the suite", table) ];
    ok = !ok;
    notes =
      [
        "Renaming on the clique must spread 2n-1 names; the cycle \
         algorithms keep 5 colours at every n — the palette column is the \
         paper's core contrast with classic renaming.";
      ];
  }
