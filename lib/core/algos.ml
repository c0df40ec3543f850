module Graph = Asyncolor_topology.Graph

type 'o protocol = (module Asyncolor_kernel.Protocol.S with type output = 'o)

type 'o t = {
  protocol : 'o protocol;
  equal : 'o -> 'o -> bool;
  palette : Graph.t -> on_cycle:bool -> 'o -> bool;
  bound : (int -> int) option;
}

type any = Any : 'o t -> any

(* Theorem 3.1's a + b <= 2 on the cycle is Appendix A's a + b <= Δ at
   Δ = 2. *)
let a1 : Color.pair t =
  {
    protocol = (module Algorithm1.P);
    equal = (fun (a, b) (a', b') -> Int.equal a a' && Int.equal b b');
    palette =
      (fun graph ~on_cycle:_ ->
        Color.pair_in_palette ~budget:(Graph.max_degree graph));
    bound = Some Algorithm1.activation_bound;
  }

let a4 : Color.pair t =
  { a1 with protocol = (module Algorithm4.P); bound = None }

let ints protocol ~palette ~bound : int t =
  { protocol; equal = Int.equal; palette; bound }

(* 5 colours on the cycle: the 2Δ+1 palette at Δ = 2. *)
let a2 =
  ints
    (module Algorithm2.P)
    ~palette:(fun graph ~on_cycle:_ ->
      Algorithm2.in_general_palette ~max_degree:(Graph.max_degree graph))
    ~bound:(Some Algorithm2.activation_bound)

(* Not wait-free (the symmetric lasso of E13), and its 7 colours are
   claimed on the cycle only. *)
let a2s =
  ints
    (module Algorithm2s.P)
    ~palette:(fun _ ~on_cycle ->
      if on_cycle then Algorithm2s.in_palette else fun _ -> true)
    ~bound:None

let a3 =
  ints
    (module Algorithm3.P)
    ~palette:(fun _ ~on_cycle:_ -> Color.in_five)
    ~bound:(Some Algorithm3.activation_bound)

let find = function
  | "1" -> Some (Any a1)
  | "2" -> Some (Any a2)
  | "2s" -> Some (Any a2s)
  | "3" -> Some (Any a3)
  | "4" -> Some (Any a4)
  | _ -> None
