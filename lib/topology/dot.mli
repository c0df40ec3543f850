(** Graphviz DOT export, for inspecting topologies and colourings. *)

val write_file : string -> ?labels:(int -> string) -> ?colors:(int -> int option) -> Graph.t -> unit
(** [write_file path g] writes [g] in DOT to [path]: one node a line
    (labelled by [labels], filled by the palette colour [colors] picks),
    then one [u -- v] line an edge. *)
