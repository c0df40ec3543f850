(** Protocol signature for the asynchronous state model (paper §2.1).

    A process is a deterministic state machine whose only communication is
    through a single-writer/multi-reader register readable by its graph
    neighbours.  One asynchronous round of process [p] performs, atomically:

    + write {!val:publish}[ state] into [p]'s register;
    + read the registers of all neighbours of [p] ([None] for a neighbour
      that has never been activated — the paper's [⊥]);
    + run {!val:transition} to either return an output or adopt a new state.

    The engine ({!Engine.Make}) supplies the graph and the schedule and
    guarantees the write-then-read order within a simultaneous step. *)

module type S = sig
  type state
  (** Private memory of one process. *)

  type register
  (** Value stored in the process's shared register. *)

  type output
  (** Final decision value (a colour for the protocols of the paper). *)

  val name : string
  (** Short protocol name used in traces and tables. *)

  val init : ident:int -> state
  (** Initial private state of the process whose (unique) input identifier
      is [ident].  Called at the process's first activation. *)

  val publish : state -> register
  (** Value written at the start of each round. *)

  val transition : state -> view:register option array -> (state, output) Step.t
  (** One round: [view.(i)] is the register of the [i]-th neighbour in the
      node's local order (the order of {!Asyncolor_topology.Graph.neighbours});
      [None] encodes [⊥].  Must be deterministic and total.

      [view] is only valid during the call: the engine keeps one buffer
      per node and refills it at that node's next round.  A transition
      that needs the entries later must copy them, never retain [view]
      itself. *)

  (** {2 Compact encoders}

      The run-core layer identifies configurations through a packed
      integer key ({!Engine.Make.config_key}) instead of polymorphic
      comparison of boxed values.  Each encoder emits a sequence of
      integers that {e uniquely determines} the encoded value: two values
      are equal (in the sense of [equal_state]/[equal_register]) iff they
      emit the same sequence.  Fixed-width fields can be emitted directly;
      variable-length collections must be length-prefixed by the encoder
      itself (the engine frames whole fields, not their interiors).  The
      engine supplies the [emit] sink; encoders must call it and nothing
      else. *)

  val encode_state : (int -> unit) -> state -> unit
  val encode_register : (int -> unit) -> register -> unit
  val encode_output : (int -> unit) -> output -> unit

  (** {2 Decoders}

      The inverses of the encoders: [decode_state data pos len] rebuilds
      the state whose encoding is the [len] integers of [data] from
      [pos], the slice the engine framed around one [encode_state] call.
      The contract: decoding an encoding gives back an equal value
      ([equal_state (decode_state d 0 (length d)) s] where [d] is what
      [encode_state] emitted for [s]).  The explorer keeps pending
      configurations as their keys only and rebuilds each one with these
      when it is expanded ({!Engine.Make.config_of_key_data}).  A
      decoder may raise on a slice no encoder could have written. *)

  val decode_state : int array -> int -> int -> state
  val decode_register : int array -> int -> int -> register
  val decode_output : int array -> int -> int -> output

  val equal_state : state -> state -> bool
  (** Structural equality; used by the model checker to canonicalise
      configurations. *)

  val equal_register : register -> register -> bool

  val pp_state : Format.formatter -> state -> unit
  val pp_register : Format.formatter -> register -> unit
  val pp_output : Format.formatter -> output -> unit
end
