module Step = Asyncolor_kernel.Step
module Builders = Asyncolor_topology.Builders

module Make (M : Asyncolor_kernel.Protocol.S with type output = bool) = struct
  type fields = { me : int; inner : M.state }

  module P = struct
    type state = fields
    type register = M.register
    type output = int

    let name = "ssb-from-" ^ M.name
    let init ~ident = { me = ident; inner = M.init ~ident }
    let publish s = M.publish s.inner

    (* [view] lists the registers of the other n-1 processes in increasing
       process order; the register of process [j] sits at index [j] when
       [j < me] and [j - 1] otherwise. *)
    let transition s ~view =
      let n = Array.length view + 1 in
      let slot j = if j < s.me then view.(j) else view.(j - 1) in
      let prev = (s.me + n - 1) mod n and next = (s.me + 1) mod n in
      let cycle_view = [| slot prev; slot next |] in
      match M.transition s.inner ~view:cycle_view with
      | Step.Continue inner -> Step.Continue { s with inner }
      | Step.Return in_mis -> Step.Return (if in_mis then 1 else 0)

    let equal_state a b = a.me = b.me && M.equal_state a.inner b.inner
    let equal_register = M.equal_register

    let encode_state emit s =
      emit s.me;
      M.encode_state emit s.inner

    let encode_register = M.encode_register
    let encode_output emit (c : output) = emit c

    let decode_state data pos len =
      { me = data.(pos); inner = M.decode_state data (pos + 1) (len - 1) }

    let decode_register = M.decode_register
    let decode_output data pos _ : output = data.(pos)

    let pp_state ppf s = Format.fprintf ppf "{p%d;%a}" s.me M.pp_state s.inner
    let pp_register = M.pp_register
    let pp_output = Format.pp_print_int
  end

  module E = Asyncolor_kernel.Engine.Make (P)

  let run ?max_steps ~n adv =
    if n < 3 then invalid_arg "Reduction.run: need n >= 3";
    let idents = Array.init n Fun.id in
    let engine = E.create (Builders.complete n) ~idents in
    E.run ?max_steps engine adv
end
