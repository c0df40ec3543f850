module Step = Asyncolor_kernel.Step
module Status = Asyncolor_kernel.Status
module Mex = Asyncolor_util.Mex
module Builders = Asyncolor_topology.Builders
module IntSet = Set.Make (Int)

type shadow = { a_set : IntSet.t; b_set : IntSet.t }

type state = {
  base : Algorithm1.fields;
  shadow : shadow;
  higher_awake : int;
  lower_awake : int;
}

module P = struct
  type nonrec state = state
  type register = state
  type output = Color.pair

  let name = "algorithm1-instrumented"

  let init ~ident =
    {
      base = { Algorithm1.x = ident; a = 0; b = 0 };
      shadow = { a_set = IntSet.empty; b_set = IntSet.empty };
      higher_awake = -1;
      lower_awake = -1;
    }

  let publish s = s

  (* The base transition is Algorithm 1 verbatim; in parallel, Equations
     (3)-(4) refresh the shadow sets from the registers just read. *)
  let transition s ~view =
    let nbrs = Array.to_list view |> List.filter_map Fun.id in
    let higher = List.filter (fun r -> r.base.Algorithm1.x > s.base.Algorithm1.x) nbrs in
    let lower = List.filter (fun r -> r.base.Algorithm1.x < s.base.Algorithm1.x) nbrs in
    let a_set =
      List.fold_left
        (fun acc r -> IntSet.union acc (IntSet.add r.base.Algorithm1.x r.shadow.a_set))
        IntSet.empty higher
    in
    let b_set =
      List.fold_left
        (fun acc r -> IntSet.union acc (IntSet.add r.base.Algorithm1.x r.shadow.b_set))
        IntSet.empty lower
    in
    let conflicts r =
      r.base.Algorithm1.a = s.base.Algorithm1.a
      && r.base.Algorithm1.b = s.base.Algorithm1.b
    in
    if not (List.exists conflicts nbrs) then
      Step.Return (s.base.Algorithm1.a, s.base.Algorithm1.b)
    else begin
      let a = Mex.of_list (List.map (fun r -> r.base.Algorithm1.a) higher) in
      let b = Mex.of_list (List.map (fun r -> r.base.Algorithm1.b) lower) in
      Step.Continue
        {
          base = { s.base with a; b };
          shadow = { a_set; b_set };
          higher_awake = List.length higher;
          lower_awake = List.length lower;
        }
    end

  let equal_state (s : state) (s' : state) =
    s.base = s'.base
    && IntSet.equal s.shadow.a_set s'.shadow.a_set
    && IntSet.equal s.shadow.b_set s'.shadow.b_set
    && s.higher_awake = s'.higher_awake
    && s.lower_awake = s'.lower_awake

  let equal_register = equal_state

  let encode_set emit set =
    emit (IntSet.cardinal set);
    IntSet.iter emit set

  let encode_state emit s =
    emit s.base.Algorithm1.x;
    emit s.base.Algorithm1.a;
    emit s.base.Algorithm1.b;
    encode_set emit s.shadow.a_set;
    encode_set emit s.shadow.b_set;
    emit s.higher_awake;
    emit s.lower_awake

  let encode_register = encode_state

  let encode_output emit ((a, b) : output) =
    emit a;
    emit b

  (* The set written by [encode_set] at [pos], and the position after it. *)
  let decode_set data pos =
    let card = data.(pos) in
    let set = ref IntSet.empty in
    for i = 1 to card do
      set := IntSet.add data.(pos + i) !set
    done;
    (!set, pos + 1 + card)

  let decode_state data pos _ =
    let a_set, at = decode_set data (pos + 3) in
    let b_set, at = decode_set data at in
    {
      base = { Algorithm1.x = data.(pos); a = data.(pos + 1); b = data.(pos + 2) };
      shadow = { a_set; b_set };
      higher_awake = data.(at);
      lower_awake = data.(at + 1);
    }

  let decode_register = decode_state
  let decode_output data pos _ : output = (data.(pos), data.(pos + 1))

  let pp_state ppf s =
    let pp_set ppf set =
      Format.fprintf ppf "{%a}"
        Format.(
          pp_print_seq ~pp_sep:(fun ppf () -> pp_print_string ppf ",") pp_print_int)
        (IntSet.to_seq set)
    in
    Format.fprintf ppf "{x=%d;a=%d;b=%d;A=%a;B=%a}" s.base.Algorithm1.x
      s.base.Algorithm1.a s.base.Algorithm1.b pp_set s.shadow.a_set pp_set
      s.shadow.b_set

  let pp_register = pp_state
  let pp_output = Color.pp_pair
end

module E = Asyncolor_kernel.Engine.Make (P)

let lemma_3_5 s =
  let x = s.base.Algorithm1.x in
  if not (IntSet.for_all (fun v -> v > x) s.shadow.a_set) then
    Error (Printf.sprintf "Lemma 3.5: A_p contains a value <= X_p=%d" x)
  else if not (IntSet.for_all (fun v -> v < x) s.shadow.b_set) then
    Error (Printf.sprintf "Lemma 3.5: B_p contains a value >= X_p=%d" x)
  else Ok ()

let lemma_3_7 s =
  (* Binding only for a process that has taken at least one (missed) round. *)
  if s.higher_awake < 0 then Ok ()
  else if s.higher_awake <= 1 && s.base.Algorithm1.a mod 2 <> IntSet.cardinal s.shadow.a_set mod 2
  then
    Error
      (Printf.sprintf "Lemma 3.7: a_p=%d vs |A_p|=%d" s.base.Algorithm1.a
         (IntSet.cardinal s.shadow.a_set))
  else if
    s.lower_awake <= 1
    && s.base.Algorithm1.b mod 2 <> IntSet.cardinal s.shadow.b_set mod 2
  then
    Error
      (Printf.sprintf "Lemma 3.7: b_p=%d vs |B_p|=%d" s.base.Algorithm1.b
         (IntSet.cardinal s.shadow.b_set))
  else Ok ()

let monitor engine =
  for p = 0 to E.n engine - 1 do
    match E.status engine p with
    | Status.Working -> (
        let s = E.state engine p in
        (match lemma_3_5 s with Ok () -> () | Error m -> failwith m);
        match lemma_3_7 s with Ok () -> () | Error m -> failwith m)
    | Status.Asleep | Status.Returned _ -> ()
  done

let agrees_with_algorithm1 ~idents ~schedule =
  let n = Array.length idents in
  let g = Builders.cycle n in
  let base = Algorithm1.E.create g ~idents in
  let inst = E.create g ~idents in
  List.iter
    (fun set ->
      Algorithm1.E.activate base set;
      E.activate inst set)
    schedule;
  let pair_eq a b = match (a, b) with
    | Some c, Some c' -> c = c'
    | None, None -> true
    | _ -> false
  in
  Array.for_all2 pair_eq (Algorithm1.E.outputs base) (E.outputs inst)
