module Step = Asyncolor_kernel.Step
module Mex = Asyncolor_util.Mex
module Builders = Asyncolor_topology.Builders

type fields = { x : int; a : int; b : int }

(* The (1-based) k-th natural not in [taken]. *)
let kth_free k taken =
  let taken = List.sort_uniq compare taken in
  let rec scan k cand = function
    | t :: rest when t < cand -> scan k cand rest
    | t :: rest when t = cand -> scan k (cand + 1) rest
    | rest -> if k = 1 then cand else scan (k - 1) (cand + 1) rest
  in
  scan k 0 taken

module P = struct
  type state = fields
  type register = fields
  type output = int

  let name = "algorithm2s"
  let init ~ident = { x = ident; a = 0; b = 0 }
  let publish s = s

  let transition s ~view =
    let nbrs = Array.to_list view |> List.filter_map Fun.id in
    let c = List.concat_map (fun r -> [ r.a; r.b ]) nbrs in
    if not (List.mem s.a c) then Step.Return s.a
    else if not (List.mem s.b c) then Step.Return s.b
    else begin
      let higher = List.filter (fun r -> r.x > s.x) nbrs in
      let c_plus = List.concat_map (fun r -> [ r.a; r.b ]) higher in
      (* the symmetry breaker: offset the b choice by the local rank *)
      let rank = 1 + List.length higher in
      Step.Continue { s with a = Mex.of_list c_plus; b = kth_free rank c }
    end

  let equal_state (s : state) (s' : state) = s = s'
  let equal_register = equal_state

  let encode_state emit s =
    emit s.x;
    emit s.a;
    emit s.b

  let encode_register = encode_state
  let encode_output emit (c : output) = emit c

  let decode_state data pos _ =
    { x = data.(pos); a = data.(pos + 1); b = data.(pos + 2) }

  let decode_register = decode_state
  let decode_output data pos _ : output = data.(pos)
  let pp_state ppf s = Format.fprintf ppf "{x=%d;a=%d;b=%d}" s.x s.a s.b
  let pp_register = pp_state
  let pp_output = Format.pp_print_int
end

module E = Asyncolor_kernel.Engine.Make (P)

let in_palette c = c >= 0 && c <= 6

let run_on_cycle ?max_steps ~idents adv =
  let engine = E.create (Builders.cycle (Array.length idents)) ~idents in
  E.run ?max_steps engine adv
