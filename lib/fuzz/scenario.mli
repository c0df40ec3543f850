(** Fuzzing scenarios: one fully explicit adversarial execution.

    A scenario is pure data — algorithm, optional planted mutation
    ({!Mutation}), topology, identifier assignment and an {e explicit}
    schedule (the activation set of every time step, crashes encoded as a
    process simply never being scheduled again, truncation as the schedule
    ending).  Making the schedule explicit rather than a closure is what
    buys byte-identical replay ({!Trace}) and structural minimisation
    ({!Shrink}): the whole execution is a value.

    Scenarios quantify over the same space as the paper's theorems
    (§2.2): arbitrary activation sets, crash faults, arbitrary wake-up
    delays — but sampled at sizes far beyond the exhaustive explorer's
    n ≤ 7 ceiling. *)

type algo = A1 | A2 | A2s | A3

type graph_spec = Cycle of int | Path of int | Complete of int | Star of int

(** One crash-recovery pair of the dynamic model, kept {e atomic} — a
    single value holds both the crash and its matching recovery, so no
    shrinking pass can separate them.  The node is unschedulable during
    [crash_at, recover_at) (its register stays frozen) and is reset to
    its initial state with [fresh_ident] immediately before the step at
    time [recover_at] (times are 1-based; [crash_at = recover_at] is an
    instantaneous crash-recover blip). *)
type churn_event = {
  node : int;
  crash_at : int;
  recover_at : int;
  fresh_ident : int;
}

type t = {
  algo : algo;
  mutation : string option;
      (** planted bug to run instead of the clean step function; [None]
          for the real algorithm.  See {!Mutation}. *)
  graph : graph_spec;
  idents : int array;
  schedule : int list list;
  churn : churn_event list;
      (** crash-recovery pairs, at most one per node; [[]] for a purely
          static execution *)
}

val algo_name : algo -> string
(** ["1"], ["2"], ["2s"], ["3"] — the CLI spelling. *)

val graph_n : graph_spec -> int
val build_graph : graph_spec -> Asyncolor_topology.Graph.t

val steps : t -> int
(** Schedule length. *)

val pp : Format.formatter -> t -> unit

val validate : t -> unit
(** @raise Invalid_argument if the identifier array does not match the
    node count, identifiers collide, the schedule names a process
    outside [\[0, n)], or a churn event is malformed (node out of range
    or churning twice, times violating
    [1 <= crash_at <= recover_at <= steps], a fresh identifier colliding
    with an initial identifier or with another event's) — the checks a
    hostile trace file must pass before being replayed. *)

val generate : ?algos:algo list -> ?mutation:string -> ?max_n:int -> Asyncolor_util.Prng.t -> t
(** Draw a scenario: algorithm from [algos] (default all four), [n] in
    [\[3, max_n\]] (default 10), topology (cycle-heavy; Algorithms 2s/3
    stay on the cycle), identifier workload, then a schedule with random
    per-process wake-up delays, independent crash times, a per-scenario
    activation density and a random truncation horizon.  Scenarios for a
    ["churn-"]-prefixed mutation always carry at least one churn event
    (that is where those bugs live); about a third of unmutated scenarios
    do; protocol-mutant scenarios never do, keeping their catch-rate
    calibration intact.  All draws happen in a fixed order, so the
    scenario is a pure function of the generator's state. *)

(** {1 Shrinking primitives} — each returns a structurally smaller
    scenario; {!Shrink} searches over them. *)

val drop_steps : t -> lo:int -> len:int -> t
(** Remove schedule steps [lo, lo+len).  Churn times are remapped across
    the removed window; a pair whose recovery no longer fits the shorter
    schedule is dropped {e whole} — a crash is never left behind without
    its recovery. *)

val thin_step : t -> step:int -> drop:int -> t
(** Remove the [drop]-th element of activation set [step]. *)

val drop_node : t -> int -> t option
(** Remove one node of a cycle with [n > 3]: the cycle closes over the
    gap, identifiers, schedule indices and churn events are remapped (the
    victim's own churn event disappears with it).  [None] for other
    topologies or [n = 3]. *)

val drop_churn_event : t -> int -> t option
(** Remove the [i]-th churn event (both its crash and its recovery —
    the pair is one value, so it cannot be split).  [None] when [i] is
    out of range. *)
