module Graph = Asyncolor_topology.Graph
module Mask = Asyncolor_util.Mask
module Status = Asyncolor_kernel.Status

type 'c verdict = {
  proper : bool;
  conflicts : (int * int) list;
  off_palette : int list;
  returned : int;
  distinct_colors : int;
}

let check ~equal ~in_palette g outputs =
  if Array.length outputs <> Graph.n g then
    invalid_arg "Checker.check: outputs length must match node count";
  let conflicts =
    Graph.fold_edges
      (fun u v acc ->
        match (outputs.(u), outputs.(v)) with
        | Some cu, Some cv when equal cu cv -> (u, v) :: acc
        | _ -> acc)
      g []
  in
  let off_palette = ref [] in
  let returned = ref 0 in
  let seen = ref [] in
  Array.iteri
    (fun p -> function
      | None -> ()
      | Some c ->
          incr returned;
          if not (in_palette c) then off_palette := p :: !off_palette;
          if not (List.exists (equal c) !seen) then seen := c :: !seen)
    outputs;
  {
    proper = conflicts = [];
    conflicts = List.rev conflicts;
    off_palette = List.rev !off_palette;
    returned = !returned;
    distinct_colors = List.length !seen;
  }

let ok v = v.proper && v.off_palette = []

let ok_changed ~equal ~in_palette g status changed =
  let ok = ref true and m = ref changed in
  while !ok && !m <> 0 do
    let p = Mask.lowest_bit !m in
    m := !m land (!m - 1);
    match status p with
    | Status.Returned c ->
        if not (in_palette c) then ok := false
        else begin
          let nbrs = Graph.neighbours g p in
          for i = 0 to Array.length nbrs - 1 do
            match status nbrs.(i) with
            | Status.Returned c' when equal c c' -> ok := false
            | _ -> ()
          done
        end
    | Status.Asleep | Status.Working -> ()
  done;
  !ok

let pp ppf v =
  Format.fprintf ppf
    "@[<v>proper=%b returned=%d distinct=%d conflicts=[%a] off_palette=[%a]@]" v.proper
    v.returned v.distinct_colors
    Format.(
      pp_print_list ~pp_sep:(fun ppf () -> pp_print_string ppf "; ") (fun ppf (u, v) ->
          fprintf ppf "%d-%d" u v))
    v.conflicts
    Format.(pp_print_list ~pp_sep:(fun ppf () -> pp_print_string ppf "; ") pp_print_int)
    v.off_palette
