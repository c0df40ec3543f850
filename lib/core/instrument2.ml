module Step = Asyncolor_kernel.Step
module Status = Asyncolor_kernel.Status
module Mex = Asyncolor_util.Mex
module Builders = Asyncolor_topology.Builders
module IntSet = Set.Make (Int)

type state = {
  base : Algorithm2.fields;
  a_set : IntSet.t;
  higher_awake : int;
}

module P = struct
  type nonrec state = state
  type register = state
  type output = int

  let name = "algorithm2-instrumented"

  let init ~ident =
    {
      base = { Algorithm2.x = ident; a = 0; b = 0 };
      a_set = IntSet.empty;
      higher_awake = -1;
    }

  let publish s = s

  let transition s ~view =
    let nbrs = Array.to_list view |> List.filter_map Fun.id in
    let c = List.concat_map (fun r -> [ r.base.Algorithm2.a; r.base.Algorithm2.b ]) nbrs in
    if not (List.mem s.base.Algorithm2.a c) then Step.Return s.base.Algorithm2.a
    else if not (List.mem s.base.Algorithm2.b c) then Step.Return s.base.Algorithm2.b
    else begin
      let higher =
        List.filter (fun r -> r.base.Algorithm2.x > s.base.Algorithm2.x) nbrs
      in
      let c_plus =
        List.concat_map (fun r -> [ r.base.Algorithm2.a; r.base.Algorithm2.b ]) higher
      in
      let a_set =
        List.fold_left
          (fun acc r -> IntSet.union acc (IntSet.add r.base.Algorithm2.x r.a_set))
          IntSet.empty higher
      in
      Step.Continue
        {
          base = { s.base with a = Mex.of_list c_plus; b = Mex.of_list c };
          a_set;
          higher_awake = List.length higher;
        }
    end

  let equal_state (s : state) (s' : state) =
    s.base = s'.base && IntSet.equal s.a_set s'.a_set
    && s.higher_awake = s'.higher_awake

  let equal_register = equal_state

  let encode_state emit s =
    emit s.base.Algorithm2.x;
    emit s.base.Algorithm2.a;
    emit s.base.Algorithm2.b;
    emit (IntSet.cardinal s.a_set);
    IntSet.iter emit s.a_set;
    emit s.higher_awake

  let encode_register = encode_state
  let encode_output emit (c : output) = emit c

  let decode_state data pos _ =
    let card = data.(pos + 3) in
    let a_set = ref IntSet.empty in
    for i = 1 to card do
      a_set := IntSet.add data.(pos + 3 + i) !a_set
    done;
    {
      base = { Algorithm2.x = data.(pos); a = data.(pos + 1); b = data.(pos + 2) };
      a_set = !a_set;
      higher_awake = data.(pos + 4 + card);
    }

  let decode_register = decode_state
  let decode_output data pos _ : output = data.(pos)

  let pp_state ppf s =
    Format.fprintf ppf "{x=%d;a=%d;b=%d;|A|=%d}" s.base.Algorithm2.x
      s.base.Algorithm2.a s.base.Algorithm2.b (IntSet.cardinal s.a_set)

  let pp_register = pp_state
  let pp_output = Format.pp_print_int
end

module E = Asyncolor_kernel.Engine.Make (P)

let eq5 s =
  if s.higher_awake < 0 || s.higher_awake > 1 then Ok ()
  else begin
    let even_sz = IntSet.cardinal s.a_set mod 2 = 0 in
    let a_zero = s.base.Algorithm2.a = 0 in
    if a_zero = even_sz then Ok ()
    else
      Error
        (Printf.sprintf "Eq. (5) violated: a_p=%d but |A_p|=%d" s.base.Algorithm2.a
           (IntSet.cardinal s.a_set))
  end

let monitor engine =
  for p = 0 to E.n engine - 1 do
    match E.status engine p with
    | Status.Working -> (
        match eq5 (E.state engine p) with Ok () -> () | Error m -> failwith m)
    | Status.Asleep | Status.Returned _ -> ()
  done

let agrees_with_algorithm2 ~idents ~schedule =
  let n = Array.length idents in
  let g = Builders.cycle n in
  let base = Algorithm2.E.create g ~idents in
  let inst = E.create g ~idents in
  List.iter
    (fun set ->
      Algorithm2.E.activate base set;
      E.activate inst set)
    schedule;
  Algorithm2.E.outputs base = E.outputs inst
