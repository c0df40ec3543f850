module Graph = Asyncolor_topology.Graph
module Adversary = Asyncolor_kernel.Adversary
module Mask = Asyncolor_util.Mask

module Make (P : Asyncolor_kernel.Protocol.S) = struct
  module E = Asyncolor_kernel.Engine.Make (P)

  (* Candidate activation sets as bitmasks, in the same order as the list
     version below builds them — the greedy tie-break keeps the first of
     equal candidates, so the order is part of the scheduler's observable
     behaviour. *)
  let candidates_mask mode graph um =
    match mode with
    | `Singletons ->
        let singles = ref [] in
        for p = Sys.int_size - 2 downto 0 do
          if um land (1 lsl p) <> 0 then singles := (1 lsl p) :: !singles
        done;
        !singles
    | `All_subsets ->
        let singles = ref [] in
        for p = Sys.int_size - 2 downto 0 do
          if um land (1 lsl p) <> 0 then singles := (1 lsl p) :: !singles
        done;
        let pairs =
          Graph.fold_edges
            (fun u v acc ->
              let m = (1 lsl u) lor (1 lsl v) in
              if m land um = m then m :: acc else acc)
            graph []
        in
        (um :: pairs) @ !singles

  (* Packed inner loop: every candidate is scored by restoring the scratch
     engine and playing the set through [activate_mask] — no per-candidate
     list allocation.  Requires the mask width ([n <= Sys.int_size - 1]);
     [adversary] falls back to the list path beyond that. *)
  let adversary_mask ~mode graph ~idents engine =
    let scratch = E.create graph ~idents in
    Adversary.make ~name:(Printf.sprintf "adaptive-greedy(%s)" P.name)
      (fun ~time:_ ~unfinished ->
        match unfinished with
        | [] -> None
        | _ ->
            let base = E.snapshot engine in
            let um = E.config_unfinished_mask base in
            let before = Mask.popcount um in
            (* score = processes returning if this set is played; pick the
               minimum, tie-break on larger sets (more wasted work) *)
            let best = ref None in
            List.iter
              (fun mask ->
                E.restore scratch base;
                E.activate_mask scratch mask;
                let score = before - Mask.popcount (E.unfinished_mask scratch) in
                let size = Mask.popcount mask in
                let better =
                  match !best with
                  | None -> true
                  | Some (s, l, _) -> score < s || (score = s && size > l)
                in
                if better then best := Some (score, size, mask))
              (candidates_mask mode graph um);
            Option.map (fun (_, _, mask) -> Explorer.subset_of_mask mask) !best)

  let adversary_list ~mode graph ~idents engine =
    let scratch = E.create graph ~idents in
    let candidates unfinished =
      match mode with
      | `Singletons -> List.map (fun p -> [ p ]) unfinished
      | `All_subsets ->
          let singles = List.map (fun p -> [ p ]) unfinished in
          let pairs =
            Graph.fold_edges
              (fun u v acc ->
                if List.mem u unfinished && List.mem v unfinished then
                  [ u; v ] :: acc
                else acc)
              graph []
          in
          (unfinished :: pairs) @ singles
    in
    Adversary.make ~name:(Printf.sprintf "adaptive-greedy(%s)" P.name)
      (fun ~time:_ ~unfinished ->
        match unfinished with
        | [] -> None
        | _ ->
            let base = E.snapshot engine in
            let before = List.length (E.config_unfinished base) in
            let best = ref None in
            List.iter
              (fun set ->
                E.restore scratch base;
                E.activate scratch set;
                let score = before - List.length (E.unfinished scratch) in
                let better =
                  match !best with
                  | None -> true
                  | Some (s, l, _) ->
                      score < s || (score = s && List.length set > l)
                in
                if better then best := Some (score, List.length set, set))
              (candidates unfinished);
            Option.map (fun (_, _, set) -> set) !best)

  let adversary ?(mode = `Singletons) graph ~idents engine =
    if Graph.n graph <= Sys.int_size - 1 then
      adversary_mask ~mode graph ~idents engine
    else adversary_list ~mode graph ~idents engine

  let worst_rounds ?mode ?(max_steps = 10_000) graph ~idents =
    let engine = E.create graph ~idents in
    let adv = adversary ?mode graph ~idents engine in
    E.run ~max_steps engine adv
end
