(** Binary decompositions of naturals, as used by the identifier-reduction
    function of paper §4.1.  For [z = Σ z_k 2^k], [length z = ⌈log2 (z+1)⌉]
    is the paper's [|z|]. *)

val length : int -> int
(** [length z] is [⌈log2 (z + 1)⌉]: the number of significant bits of [z]
    ([length 0 = 0], [length 1 = 1], [length 5 = 3]).
    @raise Invalid_argument on negative input. *)

val bit : int -> int -> int
(** [bit z k] is [z_k ∈ {0, 1}], the [k]-th binary digit of [z].
    @raise Invalid_argument on negative [z] or [k]. *)

val first_differing_bit : int -> int -> int option
(** [first_differing_bit x y] is [Some (min { k | x_k ≠ y_k })], or [None]
    when [x = y]. *)
