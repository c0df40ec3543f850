(** Finite simple undirected graphs.

    The communication topology of the state model: process [p] may read the
    registers of exactly its neighbours.  Nodes are [0 .. n-1].  Graphs are
    immutable after construction and validated to be simple (no loops, no
    parallel edges) and symmetric. *)

type t

val make : n:int -> edges:(int * int) list -> t
(** [make ~n ~edges] builds the graph on [n] nodes with the given undirected
    edges.  Duplicate edges and both orientations are tolerated and merged.
    @raise Invalid_argument on out-of-range endpoints, self-loops, or
    [n < 0]. *)

val n : t -> int
(** Number of nodes. *)

val neighbours : t -> int -> int array
(** [neighbours g v] is the sorted array of neighbours of [v].  The returned
    array is owned by the graph: callers must not mutate it. *)

val degree : t -> int -> int

val max_degree : t -> int
(** 0 for the empty graph. *)

val edges : t -> (int * int) list
(** All edges, each as [(u, v)] with [u < v], sorted. *)

val fold_edges : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a

val automorphisms : t -> int array list
(** The index-dihedral automorphisms of [g]: the candidates
    [p -> (p+k) mod n] (rotations) and [p -> (r-p) mod n] (reflections)
    filtered to the edge-preserving ones and deduplicated.  The identity is
    always the head of the list.  On cycles and cliques this is the full
    dihedral group of order [2n] (cliques have more automorphisms, but
    only the dihedral ones are enumerated — any subgroup is sound for
    quotienting); on paths and stars the compatible reflections survive;
    on graphs with no index symmetry the result is the identity alone. *)
