module Graph = Asyncolor_topology.Graph
module Adversary = Asyncolor_kernel.Adversary
module Executor = Asyncolor_util.Executor
module Budget = Asyncolor_resilience.Budget
module Obs = Asyncolor_obs.Obs

module Make (P : Asyncolor_kernel.Protocol.S) = struct
  module E = Asyncolor_kernel.Engine.Make (P)

  type finding = {
    pair : int * int;
    locked : bool;
    steps : int;
    pair_activations : int * int;
  }

  let default_steps n = 2_000 + (20 * n)

  (* One attack on a reusable engine: rewind to the initial configuration,
     then play the isolate-pair schedule.  Reusing the engine across the
     probes of a slice replaces one [E.create] (three arrays plus protocol
     setup) per edge with three [Array.blit]s. *)
  let probe_restored ~max_steps engine initial ((p, q) as pair) =
    E.restore engine initial;
    let r = E.run ~max_steps engine (Adversary.isolate_pair pair) in
    {
      pair;
      locked = (not r.all_returned) && not r.schedule_ended;
      steps = r.steps;
      pair_activations = (r.activations_per_process.(p), r.activations_per_process.(q));
    }

  let hunt ?max_steps ?(jobs = 1) ?budget ?stop ?(obs = Obs.disabled) graph
      ~idents =
    let max_steps =
      match max_steps with Some m -> m | None -> default_steps (Graph.n graph)
    in
    let c_probes = Obs.counter obs "lockhunt.probes" in
    let c_locked = Obs.counter obs "lockhunt.locked" in
    let note f =
      Obs.Counter.incr c_probes;
      if f.locked then Obs.Counter.incr c_locked;
      f
    in
    (* Polled between probes (and inside every parallel slice): a hunt cut
       short by a budget or a stop request returns the findings gathered so
       far instead of an exception — compare the result length against the
       edge count to detect truncation. *)
    let should_stop () =
      (match stop with Some f -> f () | None -> false)
      ||
      match budget with Some b -> Budget.exceeded b | None -> false
    in
    let edges = Array.of_list (Graph.edges graph) in
    let nedges = Array.length edges in
    Obs.span obs
      ~args:
        [
          ("edges", string_of_int nedges);
          ("n", string_of_int (Graph.n graph));
        ]
      "lockhunt"
    @@ fun () ->
    if jobs <= 1 || nedges <= 1 then begin
      let engine = E.create graph ~idents in
      let initial = E.snapshot engine in
      let acc = ref [] in
      (try
         Array.iter
           (fun pair ->
             if should_stop () then raise Exit;
             acc := note (probe_restored ~max_steps engine initial pair) :: !acc)
           edges
       with Exit -> ());
      List.rev !acc
    end
    else begin
      (* Contiguous slices, one private engine per slice; findings come
         back in edge order because [Executor.map] merges by index.
         Under a budget/stop cut each slice keeps its probed prefix, so
         the merged result is still sorted by edge order within slices. *)
      let jobs = min jobs nedges in
      let slices =
        Array.init jobs (fun s -> (nedges * s / jobs, nedges * (s + 1) / jobs))
      in
      let per_slice =
        Executor.with_executor ~obs ~jobs (fun exec ->
            Executor.map exec
              (fun (lo, hi) ->
                let engine = E.create graph ~idents in
                let initial = E.snapshot engine in
                let acc = ref [] in
                (try
                   for i = lo to hi - 1 do
                     if should_stop () then raise Exit;
                     acc :=
                       note (probe_restored ~max_steps engine initial edges.(i))
                       :: !acc
                   done
                 with Exit -> ());
                Array.of_list (List.rev !acc))
              slices)
      in
      Array.to_list (Array.concat (Array.to_list per_slice))
    end

  let locked findings =
    List.filter_map (fun f -> if f.locked then Some f.pair else None) findings
end
