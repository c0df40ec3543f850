module Step = Asyncolor_kernel.Step
module Builders = Asyncolor_topology.Builders

type fields = { x : int; a : int; b : int }

module P = struct
  type state = fields
  type register = fields
  type output = int

  let name = "algorithm2"
  let init ~ident = { x = ident; a = 0; b = 0 }
  let publish s = s

  (* [in_c view ~plus ~x v i]: does a visible neighbour at index >= [i]
     hold [v] as its [a] or [b]?  With [plus] only neighbours whose
     identifier exceeds [x] count: the set C+ rather than C. *)
  let rec in_c view ~plus ~x v i =
    i < Array.length view
    &&
    match view.(i) with
    | Some r when ((not plus) || r.x > x) && (r.a = v || r.b = v) -> true
    | _ -> in_c view ~plus ~x v (i + 1)

  (* mex of C or C+: the least m >= [m] that [in_c] rejects *)
  let rec mex view ~plus ~x m =
    if in_c view ~plus ~x m 0 then mex view ~plus ~x (m + 1) else m

  let transition s ~view =
    let x = s.x in
    if not (in_c view ~plus:false ~x s.a 0) then Step.Return s.a
    else if not (in_c view ~plus:false ~x s.b 0) then Step.Return s.b
    else
      Step.Continue
        { s with a = mex view ~plus:true ~x 0; b = mex view ~plus:false ~x 0 }

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

let activation_bound n = (3 * n) + 8
let non_minimum_bound ~l = (3 * l) + 4

let run_on_cycle ?max_steps ~idents adv =
  let engine = E.create (Builders.cycle (Array.length idents)) ~idents in
  E.run ?max_steps engine adv

let general_palette ~max_degree = (2 * max_degree) + 1
let in_general_palette ~max_degree c = c >= 0 && c <= 2 * max_degree

let run_on_graph ?max_steps g ~idents adv =
  let engine = E.create g ~idents in
  E.run ?max_steps engine adv
