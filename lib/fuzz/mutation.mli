(** Mutation testing: protocols with one planted, known bug each.

    The fuzzer's invariant suite ({!Exec}) is only trustworthy if it
    demonstrably {e fires}.  Each mutant here is a clean protocol with a
    single bug injected into its step function — the classes named in the
    literature on testing detectors: skipping a neighbour read, an
    off-by-one in the palette, breaking the stopping guard in either
    direction.  A campaign run against a mutant
    ({!Fuzz.campaign} [~mutation:name]) must produce a finding within a
    bounded exec budget; [test/test_fuzz.ml] pins that down per mutant,
    and the shrunk counterexample must replay to the same violation.

    The ["churn-"]-prefixed mutants are different in kind: their bug
    lives in the {e recovery machinery}, not the protocol.  {!Exec} runs
    the clean step function for them and corrupts how churn events are
    applied instead (a skipped reset, a colliding identifier), which is
    what the churn detectors must catch. *)

type info = {
  name : string;  (** CLI spelling, e.g. ["skip-read"] *)
  base : Scenario.algo;  (** the algorithm the bug is planted in *)
  describe : string;
}

val all : info list
val find : string -> info option

val is_churn : string -> bool
(** Does the mutation name denote a recovery-machinery bug (the
    ["churn-"] prefix convention, shared with {!Scenario.generate})? *)

(** Planted protocols, as first-class modules. *)

val a1_protocol : string -> Asyncolor.Color.pair Asyncolor.Algos.protocol option
(** The Algorithm 1 mutant of that name, if any. *)

val a2_protocol : string -> int Asyncolor.Algos.protocol option
(** The Algorithm 2 mutant of that name, if any. *)
