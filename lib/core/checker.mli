(** Output invariants: proper colouring of the returned subgraph and
    palette membership (the "Correctness" and "palette" clauses of
    Theorems 3.1, 3.11 and 4.4). *)

type 'c verdict = {
  proper : bool;  (** no edge with two returned endpoints sharing a colour *)
  conflicts : (int * int) list;  (** offending edges, [(u, v)] with [u < v] *)
  off_palette : int list;  (** returned processes whose colour is outside the palette *)
  returned : int;  (** how many processes returned *)
  distinct_colors : int;  (** number of distinct colours among returned processes *)
}

val check :
  equal:('c -> 'c -> bool) ->
  in_palette:('c -> bool) ->
  Asyncolor_topology.Graph.t ->
  'c option array ->
  'c verdict
(** [check ~equal ~in_palette g outputs] validates the partial colouring
    [outputs] (one entry per node; [None] = did not return).  Only edges
    whose two endpoints returned are constrained — the paper requires the
    outputs to "properly color the graph induced by the terminating
    processes". *)

val ok : 'c verdict -> bool
(** [proper] and no palette violations. *)

val ok_changed :
  equal:('c -> 'c -> bool) ->
  in_palette:('c -> bool) ->
  Asyncolor_topology.Graph.t ->
  (int -> 'c Asyncolor_kernel.Status.t) ->
  int ->
  bool
(** [ok_changed ~equal ~in_palette g status changed] checks only the
    nodes of the bitmask [changed] and the edges at them: every returned
    node of [changed] is on palette and shares its colour with no
    returned neighbour.  For a colouring that was {!ok} before, and in
    which since then only the nodes of [changed] took colours (any node
    may have lost one), it is {!ok} of {!check} on the current outputs:
    an off-palette colour or a monochromatic edge needs a colour that
    appeared after the last check.  [status p] is node [p]'s status;
    [changed] names nodes of [g] only, so [g] has at most
    [Sys.int_size - 1] nodes.  Allocates nothing. *)

val pp : Format.formatter -> 'c verdict -> unit
