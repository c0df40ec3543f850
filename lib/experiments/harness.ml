module Adversary = Asyncolor_kernel.Adversary
module Prng = Asyncolor_util.Prng
module Executor = Asyncolor_util.Executor
module Checker = Asyncolor.Checker

let map_cells ?jobs f cells =
  Executor.with_executor ?jobs (fun exec -> Executor.map_list exec f cells)

let adversary_suite ~seed =
  let prng k = Prng.create ~seed:(seed + k) in
  [
    Adversary.synchronous;
    Adversary.sequential;
    Adversary.round_robin;
    Adversary.singletons (prng 1);
    Adversary.random_subsets (prng 2) ~p:0.3;
    Adversary.random_subsets (prng 3) ~p:0.5;
    Adversary.random_subsets (prng 4) ~p:0.8;
  ]

let symmetric_suite =
  [ Adversary.staircase; Adversary.alternating_waves; Adversary.synchronous ]

type run_summary = {
  worst_rounds : int;
  all_proper : bool;
  all_palette : bool;
  all_returned : bool;
  distinct_colors_max : int;
  livelocked : bool;
  livelocked_names : string list;
}

module Sweep (P : Asyncolor_kernel.Protocol.S) = struct
  module E = Asyncolor_kernel.Engine.Make (P)

  let run ?max_steps ~equal ~in_palette ~graph ~idents adversaries =
    let n = Asyncolor_topology.Graph.n graph in
    (* A generous bound: interleaved schedules of a linear-time algorithm
       may legitimately need Θ(n²) steps; a run that exhausts the bound
       without finishing is classified as livelocked (finding F1) and
       excluded from the worst-rounds statistic. *)
    let max_steps =
      match max_steps with
      | Some m -> m
      | None -> min 8_000_000 (50_000 + (6 * n * n))
    in
    let summary =
      ref
        {
          worst_rounds = 0;
          all_proper = true;
          all_palette = true;
          all_returned = true;
          distinct_colors_max = 0;
          livelocked = false;
          livelocked_names = [];
        }
    in
    List.iter
      (fun (adv : Adversary.t) ->
        let engine = E.create graph ~idents in
        let r = E.run ~max_steps engine adv in
        let verdict = Checker.check ~equal ~in_palette graph r.outputs in
        let locked = (not r.all_returned) && not r.schedule_ended in
        let s = !summary in
        summary :=
          {
            worst_rounds =
              (if locked then s.worst_rounds else max s.worst_rounds r.rounds);
            all_proper = s.all_proper && verdict.Checker.proper;
            all_palette = s.all_palette && verdict.Checker.off_palette = [];
            all_returned =
              s.all_returned && (r.all_returned || r.schedule_ended);
            distinct_colors_max =
              max s.distinct_colors_max verdict.Checker.distinct_colors;
            livelocked = s.livelocked || locked;
            livelocked_names =
              (if locked then adv.name :: s.livelocked_names
               else s.livelocked_names);
          })
      adversaries;
    !summary
end
