module Bits = Asyncolor_cv.Bits
module Mex = Asyncolor_util.Mex

type t = {
  idents : int array;
  needed : int;  (* rounds_needed for this instance's universe *)
  k : int;  (* CV iterations *)
  mutable round : int;
  outputs : int option array;
}

let cv_iterations_needed ~universe =
  (* B_0 = U-1; after one CV round all colours are <= 2|B|-1; iterate the
     envelope until it reaches the 3-bit fixed point {0..5}. *)
  let rec loop k b = if b <= 5 then k else loop (k + 1) ((2 * Bits.length b) - 1) in
  loop 0 (max 0 (universe - 1))

let rounds_needed ~universe = cv_iterations_needed ~universe + 3

let create ~idents ~universe =
  let n = Array.length idents in
  if n < 3 then invalid_arg "Decoupled_ring.create: need n >= 3";
  Array.iter
    (fun x ->
      if x < 0 || x >= universe then
        invalid_arg "Decoupled_ring.create: identifier outside the universe")
    idents;
  let module S = Set.Make (Int) in
  if S.cardinal (Array.fold_left (fun s x -> S.add x s) S.empty idents) <> n then
    invalid_arg "Decoupled_ring.create: identifiers must be distinct";
  {
    idents = Array.copy idents;
    needed = rounds_needed ~universe;
    k = cv_iterations_needed ~universe;
    round = 0;
    outputs = Array.make n None;
  }

let advance t = t.round <- t.round + 1
let outputs t = Array.copy t.outputs

(* One local replay of the virtual synchronous execution on the window of
   radius R = needed around [p]; valid because R >= K + 3. *)
let compute t p =
  let n = Array.length t.idents in
  let r = t.needed in
  let w = (2 * r) + 1 in
  let window = Array.init w (fun i -> t.idents.((p - r + i + (w * n)) mod n)) in
  let colors = Array.copy window in
  (* K coin-tossing rounds; after round j, entries 0 .. w-1-j are valid *)
  for j = 1 to t.k do
    for i = 0 to w - 1 - j do
      match Bits.first_differing_bit colors.(i) colors.(i + 1) with
      | Some b -> colors.(i) <- (2 * b) + Bits.bit colors.(i) b
      | None ->
          (* window entries i and i+1 are cyclically adjacent ring nodes,
             which hold distinct identifiers and stay properly coloured
             under CV — equal adjacent colours are impossible *)
          assert false
    done
  done;
  (* three reduction rounds: drop colour classes 5, 4, 3; after step s,
     entries s .. w-1-K-s are valid *)
  List.iteri
    (fun step_idx cls ->
      let s = step_idx + 1 in
      let fresh = Array.copy colors in
      for i = s to w - 1 - t.k - s do
        if colors.(i) = cls then
          fresh.(i) <- Mex.of_list [ colors.(i - 1); colors.(i + 1) ]
      done;
      Array.blit fresh 0 colors 0 w)
    [ 5; 4; 3 ];
  colors.(r)

let activate t p =
  match t.outputs.(p) with
  | Some _ as o -> o
  | None ->
      if t.round >= t.needed then begin
        let c = compute t p in
        t.outputs.(p) <- Some c;
        t.outputs.(p)
      end
      else None

let is_proper_partial outs =
  let n = Array.length outs in
  let ok = ref true in
  for i = 0 to n - 1 do
    match (outs.(i), outs.((i + 1) mod n)) with
    | Some a, Some b when a = b -> ok := false
    | _ -> ()
  done;
  !ok

let run ?horizon (adv : Asyncolor_kernel.Adversary.t) t =
  let n = Array.length t.idents in
  let horizon = match horizon with Some h -> h | None -> 4 * t.needed in
  let unfinished () =
    List.filter (fun p -> t.outputs.(p) = None) (List.init n Fun.id)
  in
  let rec loop () =
    if unfinished () = [] || t.round >= horizon then (outputs t, t.round)
    else begin
      advance t;
      match adv.next ~time:t.round ~unfinished:(unfinished ()) with
      | None -> (outputs t, t.round)
      | Some set ->
          List.iter (fun p -> ignore (activate t p)) set;
          loop ()
    end
  in
  loop ()
