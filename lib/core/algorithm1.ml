module Step = Asyncolor_kernel.Step
module Mex = Asyncolor_util.Mex
module Builders = Asyncolor_topology.Builders

type fields = { x : int; a : int; b : int }

module P = struct
  type state = fields
  type register = fields
  type output = Color.pair

  let name = "algorithm1"
  let init ~ident = { x = ident; a = 0; b = 0 }
  let publish s = s

  let transition s ~view =
    let nbrs =
      Array.to_list view |> List.filter_map Fun.id
    in
    let conflicts r = r.a = s.a && r.b = s.b in
    if not (List.exists conflicts nbrs) then Step.Return (s.a, s.b)
    else begin
      let a = Mex.of_list (List.filter_map (fun r -> if r.x > s.x then Some r.a else None) nbrs) in
      let b = Mex.of_list (List.filter_map (fun r -> if r.x < s.x then Some r.b else None) nbrs) in
      Step.Continue { s with a; b }
    end

  let equal_state (s : state) (s' : state) = s = s'
  let equal_register = equal_state

  let encode_state emit s =
    emit s.x;
    emit s.a;
    emit s.b

  let encode_register = encode_state

  let encode_output emit ((a, b) : output) =
    emit a;
    emit b

  let decode_state data pos _ =
    { x = data.(pos); a = data.(pos + 1); b = data.(pos + 2) }

  let decode_register = decode_state
  let decode_output data pos _ : output = (data.(pos), data.(pos + 1))

  let pp_state ppf s = Format.fprintf ppf "{x=%d;a=%d;b=%d}" s.x s.a s.b
  let pp_register = pp_state
  let pp_output = Color.pp_pair
end

module E = Asyncolor_kernel.Engine.Make (P)

let activation_bound n = (3 * n / 2) + 4
let monotone_bound ~l ~l' = min (min (3 * l) (3 * l')) (l + l') + 4

let run_on_cycle ?max_steps ~idents adv =
  let engine = E.create (Builders.cycle (Array.length idents)) ~idents in
  E.run ?max_steps engine adv
