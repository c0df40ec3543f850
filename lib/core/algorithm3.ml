module Step = Asyncolor_kernel.Step
module Status = Asyncolor_kernel.Status
module Mex = Asyncolor_util.Mex
module Builders = Asyncolor_topology.Builders
module Graph = Asyncolor_topology.Graph
module Reduce = Asyncolor_cv.Reduce
module Logstar = Asyncolor_cv.Logstar

type fields = { x : int; r : Rank.t; a : int; b : int }

module P = struct
  type state = fields
  type register = fields
  type output = int

  let name = "algorithm3"
  let init ~ident = { x = ident; r = Rank.zero; a = 0; b = 0 }
  let publish s = s

  (* Lines 11-19 of Algorithm 3: attempt one identifier reduction.  Only
     applies when both neighbours have published ([q] and [q'] below);
     [s.a]/[s.b] have already been refreshed by the colouring component. *)
  let reduce_identifier s q q' =
    if Rank.is_finite s.r && Rank.(s.r <= min q.r q'.r) then begin
      let lo = min q.x q'.x and hi = max q.x q'.x in
      if lo < s.x && s.x < hi then begin
        (* Middle of a monotone triple: adopt f(X_p, lo) if it still
           undercuts the smaller neighbour (line 12-15). *)
        let y = Reduce.f s.x lo in
        { s with r = Rank.succ s.r; x = (if y < lo then y else s.x) }
      end
      else begin
        (* Local extremum: opt out; a local minimum takes one final value
           avoiding what its neighbours would reduce to (lines 16-19). *)
        let x =
          if s.x < lo then
            min s.x (Mex.of_list [ Reduce.f q.x s.x; Reduce.f q'.x s.x ])
          else s.x
        in
        { s with r = Rank.Inf; x }
      end
    end
    else s

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

  (* Lines 6-10 colour, as in Algorithm 2; lines 11-19 reduce the
     identifier, only when both neighbours have published. *)
  let transition s ~view =
    let x = s.x in
    if not (in_c view ~plus:false ~x s.a 0) then Step.Return s.a
    else if not (in_c view ~plus:false ~x s.b 0) then Step.Return s.b
    else begin
      let s =
        { s with a = mex view ~plus:true ~x 0; b = mex view ~plus:false ~x 0 }
      in
      match view with
      | [| Some q; Some q' |] -> Step.Continue (reduce_identifier s q q')
      | _ -> Step.Continue s
    end

  let equal_state (s : state) (s' : state) = s = s'
  let equal_register = equal_state

  let encode_state emit s =
    emit s.x;
    Rank.encode emit s.r;
    emit s.a;
    emit s.b

  let encode_register = encode_state
  let encode_output emit (c : output) = emit c

  let decode_state data pos _ =
    let r = Rank.decode data (pos + 1) in
    let at = pos + 1 + Rank.encoded_length r in
    { x = data.(pos); r; a = data.(at); b = data.(at + 1) }

  let decode_register = decode_state
  let decode_output data pos _ : output = data.(pos)

  let pp_state ppf s =
    Format.fprintf ppf "{x=%d;r=%a;a=%d;b=%d}" s.x Rank.pp s.r s.a s.b

  let pp_register = pp_state
  let pp_output = Format.pp_print_int
end

module E = Asyncolor_kernel.Engine.Make (P)

let activation_bound n = (64 * Logstar.log_star_int n) + 64

let monitor_identifier_coloring engine =
  let g = E.graph engine in
  Graph.fold_edges
    (fun u v () ->
      match (E.public engine u, E.public engine v) with
      | Some ru, Some rv ->
          let private_x p =
            match E.status engine p with
            | Status.Working -> Some (E.state engine p).x
            | Status.Asleep | Status.Returned _ -> None
          in
          let clash = ru.x = rv.x in
          let clash_priv_u =
            match private_x u with Some x -> x = rv.x | None -> false
          in
          let clash_priv_v =
            match private_x v with Some x -> x = ru.x | None -> false
          in
          if clash || clash_priv_u || clash_priv_v then
            failwith
              (Printf.sprintf
                 "Lemma 4.5 violated at t=%d on edge %d-%d: X=%d vs X=%d"
                 (E.time engine) u v ru.x rv.x)
      | _ -> ())
    g ()

let run_on_cycle ?max_steps ~idents adv =
  let engine = E.create (Builders.cycle (Array.length idents)) ~idents in
  E.run ?max_steps engine adv
