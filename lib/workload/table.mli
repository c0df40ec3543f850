(** Plain-text tables for the experiment harness (aligned columns,
    markdown-compatible). *)

type t

val create : headers:string list -> t
val add_row : t -> string list -> unit
(** @raise Invalid_argument if the row width differs from the header. *)

val row_int : int list -> string list

val write_csv : string -> t -> unit
(** [write_csv path t] writes [t] to [path] as CSV, header first; a
    field holding a comma, quote or newline is quoted, its quotes
    doubled. *)

val print : t -> unit
(** Write to stdout with a trailing newline. *)
