type t = { adj : int array array }

let n t = Array.length t.adj

let make ~n:nodes ~edges =
  if nodes < 0 then invalid_arg "Graph.make: negative node count";
  let check v =
    if v < 0 || v >= nodes then
      invalid_arg (Printf.sprintf "Graph.make: node %d out of range [0,%d)" v nodes)
  in
  let module S = Set.Make (struct
    type t = int * int

    let compare = compare
  end) in
  let canon (u, v) =
    check u;
    check v;
    if u = v then invalid_arg "Graph.make: self-loop";
    if u < v then (u, v) else (v, u)
  in
  let edge_set = List.fold_left (fun s e -> S.add (canon e) s) S.empty edges in
  let buckets = Array.make nodes [] in
  S.iter
    (fun (u, v) ->
      buckets.(u) <- v :: buckets.(u);
      buckets.(v) <- u :: buckets.(v))
    edge_set;
  { adj = Array.map (fun l -> Array.of_list (List.sort compare l)) buckets }

let neighbours t v = t.adj.(v)

let degree t v = Array.length t.adj.(v)

let max_degree t = Array.fold_left (fun acc a -> max acc (Array.length a)) 0 t.adj

let mem_edge t u v = Array.exists (fun w -> w = v) t.adj.(u)

let fold_edges f t init =
  let acc = ref init in
  Array.iteri
    (fun u nbrs -> Array.iter (fun v -> if u < v then acc := f u v !acc) nbrs)
    t.adj;
  !acc

let edges t = List.rev (fold_edges (fun u v acc -> (u, v) :: acc) t [])

let is_automorphism t perm =
  let nodes = n t in
  Array.length perm = nodes
  && (let seen = Array.make nodes false in
      Array.for_all
        (fun p ->
          p >= 0 && p < nodes && (not seen.(p))
          && begin
               seen.(p) <- true;
               true
             end)
        perm)
  && fold_edges (fun u v ok -> ok && mem_edge t perm.(u) perm.(v)) t true

let automorphisms t =
  let nodes = n t in
  if nodes = 0 then [ [||] ]
  else begin
    (* Index-dihedral candidates: rotations p -> p+k and reflections
       p -> r-p (mod n), 2n maps in all.  Filtering them through
       [is_automorphism] yields the full dihedral group on cycles and
       cliques (whose automorphism groups contain it), the compatible
       reflections on paths and stars, and the identity alone on graphs
       with no index symmetry — exactly the subgroup the explorer's
       quotient construction needs (any automorphism subgroup is sound;
       completeness of the reduction is a perf concern, not a
       correctness one). *)
    let rotation k = Array.init nodes (fun p -> (p + k) mod nodes) in
    let reflection r = Array.init nodes (fun p -> ((r - p) mod nodes + nodes) mod nodes) in
    let candidates =
      List.init nodes rotation @ List.init nodes reflection
    in
    let keep = ref [] in
    List.iter
      (fun perm ->
        if is_automorphism t perm && not (List.exists (fun q -> q = perm) !keep)
        then keep := perm :: !keep)
      candidates;
    List.rev !keep
  end
