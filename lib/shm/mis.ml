module Step = Asyncolor_kernel.Step
module Graph = Asyncolor_topology.Graph

let independence_ok g outputs =
  Graph.fold_edges
    (fun u v acc ->
      acc && not (outputs.(u) = Some true && outputs.(v) = Some true))
    g true

let domination_ok g outputs =
  let n = Graph.n g in
  let ok = ref true in
  for p = 0 to n - 1 do
    if outputs.(p) = Some false then begin
      let dominated =
        Array.exists (fun q -> outputs.(q) = Some true) (Graph.neighbours g p)
      in
      if not dominated then ok := false
    end
  done;
  !ok

let valid g outputs = independence_ok g outputs && domination_ok g outputs

module Greedy = struct
  type fields = { x : int }

  module P = struct
    type state = fields
    type register = fields
    type output = bool

    let name = "mis-greedy"
    let init ~ident = { x = ident }
    let publish s = s

    (* Decide from the very first snapshot: join the MIS iff locally
       maximal among the registers currently visible.  Wait-free (returns
       at the first activation) but breakable by waking processes in
       increasing identifier order. *)
    let transition s ~view =
      let nbrs = Array.to_list view |> List.filter_map Fun.id in
      if List.for_all (fun r -> r.x < s.x) nbrs then Step.Return true
      else Step.Return false

    let equal_state (s : state) (s' : state) = s = s'
    let equal_register = equal_state
    let encode_state emit s = emit s.x
    let encode_register = encode_state
    let encode_output emit (b : output) = emit (Bool.to_int b)
    let decode_state data pos _ = { x = data.(pos) }
    let decode_register = decode_state
    let decode_output data pos _ : output = data.(pos) <> 0
    let pp_state ppf s = Format.fprintf ppf "{x=%d}" s.x
    let pp_register = pp_state
    let pp_output = Format.pp_print_bool
  end

  module E = Asyncolor_kernel.Engine.Make (P)
end

module Cautious = struct
  type decision = Undecided | Pending of bool

  type fields = { x : int; decision : decision }

  module P = struct
    type state = fields
    type register = fields
    type output = bool

    let name = "mis-cautious"
    let init ~ident = { x = ident; decision = Undecided }
    let publish s = s

    (* Greedy by identifier, with waiting.  A pending decision is returned
       one round after it was published, so neighbours always observe it.
       Joining requires both neighbours visible and every visible higher
       identifier already out — a crashed neighbour therefore blocks the
       process forever: correct in fair executions, not wait-free. *)
    let transition s ~view =
      match s.decision with
      | Pending b -> Step.Return b
      | Undecided ->
          let vis = Array.to_list view |> List.filter_map Fun.id in
          if List.exists (fun r -> r.decision = Pending true) vis then
            Step.Continue { s with decision = Pending false }
          else if Array.for_all Option.is_some view then begin
            let higher = List.filter (fun r -> r.x > s.x) vis in
            if List.for_all (fun r -> r.decision = Pending false) higher then
              Step.Continue { s with decision = Pending true }
            else Step.Continue s
          end
          else Step.Continue s

    let equal_state (s : state) (s' : state) = s = s'
    let equal_register = equal_state

    let encode_state emit s =
      emit s.x;
      emit
        (match s.decision with
        | Undecided -> 0
        | Pending false -> 1
        | Pending true -> 2)

    let encode_register = encode_state
    let encode_output emit (b : output) = emit (Bool.to_int b)

    let decode_state data pos _ =
      let decision =
        match data.(pos + 1) with
        | 0 -> Undecided
        | 1 -> Pending false
        | 2 -> Pending true
        | d -> invalid_arg (Printf.sprintf "Mis.Cautious: decision %d" d)
      in
      { x = data.(pos); decision }

    let decode_register = decode_state
    let decode_output data pos _ : output = data.(pos) <> 0

    let pp_state ppf s =
      let d =
        match s.decision with
        | Undecided -> "?"
        | Pending true -> "in"
        | Pending false -> "out"
      in
      Format.fprintf ppf "{x=%d;%s}" s.x d

    let pp_register = pp_state
    let pp_output = Format.pp_print_bool
  end

  module E = Asyncolor_kernel.Engine.Make (P)
end
