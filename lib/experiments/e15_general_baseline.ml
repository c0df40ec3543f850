(** E15 — the conclusion's general-graph landscape (paper §5): in the
    synchronous LOCAL model, Linial's reduction gives O(Δ²) colours in
    O(log* n) rounds and a slow phase reaches the greedy optimum Δ+1; in
    the asynchronous model the renaming bound forbids fewer than 2Δ+1
    colours (whenever Δ+1 is a prime power), Algorithm 4 achieves O(Δ²)
    wait-free, and closing the gap (2Δ+1?) is the paper's open problem.
    We measure all three columns on the same graphs. *)

module Table = Asyncolor_workload.Table
module Idents = Asyncolor_workload.Idents
module Prng = Asyncolor_util.Prng
module Graph = Asyncolor_topology.Graph
module Builders = Asyncolor_topology.Builders
module Linial = Asyncolor_local.Linial
module Sweep4 = Harness.Sweep (Asyncolor.Algorithm4.P)

let zoo ~quick ~seed =
  let prng = Prng.create ~seed in
  let base =
    [
      ("cycle 64", Builders.cycle 64);
      ("petersen", Builders.petersen ());
      ("grid 8x8", Builders.grid 8 8);
      ("hypercube d=5", Builders.hypercube 5);
      ("3-regular n=32", Builders.random_regular prng ~n:32 ~d:3);
    ]
  in
  if quick then base
  else
    base
    @ [
        ("torus 8x8", Builders.torus 8 8);
        ("5-regular n=64", Builders.random_regular prng ~n:64 ~d:5);
        ("cycle 4096", Builders.cycle 4096);
      ]

let run ?(quick = false) ?(seed = 56) () =
  let ok = ref true in
  let table =
    Table.create
      ~headers:
        [ "graph"; "Δ"; "LOCAL Linial: colours@rounds"; "LOCAL Δ+1: rounds";
          "async Alg4: colours used@rounds"; "async lower bound" ]
  in
  List.iter
    (fun (gname, graph) ->
      let n = Graph.n graph in
      let delta = Graph.max_degree graph in
      let prng = Prng.create ~seed:(seed + n) in
      let idents = Idents.random_sparse (Prng.split prng) ~n ~universe:(max 64 (n * n)) in
      (* LOCAL side *)
      let stall = Linial.color graph ~idents in
      let full = Linial.color_delta_plus_one graph ~idents in
      ok :=
        !ok
        && Linial.is_proper graph stall.colors
        && Linial.is_proper graph full.colors
        && stall.final_palette <= Linial.palette_bound ~max_degree:delta
        && full.final_palette = delta + 1;
      (* async side *)
      let s4 =
        Sweep4.run
          ~equal:(fun a b -> a = b)
          ~in_palette:(Asyncolor.Algorithm4.in_palette ~max_degree:delta)
          ~graph ~idents
          (Harness.adversary_suite ~seed)
      in
      ok := !ok && s4.all_proper && s4.all_palette && not s4.livelocked;
      Table.add_row table
        [
          gname;
          string_of_int delta;
          Printf.sprintf "%d@%d" stall.final_palette stall.rounds;
          string_of_int full.rounds;
          Printf.sprintf "%d@%d" s4.distinct_colors_max s4.worst_rounds;
          Printf.sprintf ">= %d (renaming)" ((2 * delta) + 1);
        ])
    (zoo ~quick ~seed);
  {
    Outcome.id = "E15";
    title = "General graphs: LOCAL Linial baseline vs wait-free Algorithm 4";
    claim =
      "§5: LOCAL reaches Δ+1 colours; asynchronously >= 2Δ+1 are needed \
       (renaming bound) and O(Δ²) is achieved — the gap is the paper's \
       open problem";
    tables = [ ("same graphs, three regimes", table) ];
    ok = !ok;
    notes =
      [
        "Linial's polynomial phase stalls in 2-3 rounds at <= p² colours \
         (p the smallest prime above 2Δ); the slow phase pays one round \
         per removed colour to reach Δ+1 — both impossible wait-free \
         asynchronously below 2Δ+1.";
      ];
  }
