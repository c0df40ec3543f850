module Step = Asyncolor_kernel.Step
module Builders = Asyncolor_topology.Builders
module Mex = Asyncolor_util.Mex

type fields = { x : int; proposal : int }

module P = struct
  type state = fields
  type register = fields
  type output = int

  let name = "renaming"
  let init ~ident = { x = ident; proposal = 0 }
  let publish s = s

  let transition s ~view =
    let others = Array.to_list view |> List.filter_map Fun.id in
    if not (List.exists (fun r -> r.proposal = s.proposal) others) then
      Step.Return s.proposal
    else begin
      let ids = s.x :: List.map (fun r -> r.x) others in
      let rank =
        1 + List.length (List.filter (fun id -> id < s.x) ids)
      in
      let taken = List.map (fun r -> r.proposal) others in
      Step.Continue { s with proposal = Mex.kth_free rank taken }
    end

  let equal_state (s : state) (s' : state) = s = s'
  let equal_register = equal_state

  let encode_state emit s =
    emit s.x;
    emit s.proposal

  let encode_register = encode_state
  let encode_output emit (c : output) = emit c
  let decode_state data pos _ = { x = data.(pos); proposal = data.(pos + 1) }
  let decode_register = decode_state
  let decode_output data pos _ : output = data.(pos)
  let pp_state ppf s = Format.fprintf ppf "{x=%d;prop=%d}" s.x s.proposal
  let pp_register = pp_state
  let pp_output = Format.pp_print_int
end

module E = Asyncolor_kernel.Engine.Make (P)

let name_bound n = (2 * n) - 2

let run ?max_steps ~n ~idents adv =
  if n < 2 then invalid_arg "Renaming.run: need n >= 2";
  if Array.length idents <> n then invalid_arg "Renaming.run: idents length mismatch";
  let engine = E.create (Builders.complete n) ~idents in
  E.run ?max_steps engine adv
