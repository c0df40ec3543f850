(** Counterexample minimisation by delta debugging.

    Given a scenario that violates an invariant, search the structural
    shrinking primitives of {!Scenario} — dropping schedule chunks
    (ddmin-style halving), dropping churn events, thinning activation
    sets one process at a time, and removing cycle nodes — keeping an
    edit only if the {e same} invariant still fails, until no single
    edit makes progress.

    Deterministic (same failing scenario, same minimum) and terminating:
    every accepted edit lowers at least one of node count, churn events,
    steps and activation-set occupancy and raises none of them, and
    [max_execs] caps the total number of re-executions (the returned
    scenario is still a valid, failing one when the budget runs out —
    just possibly not minimal). *)

type stats = {
  execs : int;  (** candidate re-executions performed *)
  kept : int;  (** edits accepted *)
}

val minimize :
  ?max_execs:int -> Scenario.t -> invariant:string -> Scenario.t * stats
(** [minimize sc ~invariant] requires [sc] to currently fail [invariant];
    returns a (weakly) smaller scenario that still fails it.  Default
    [max_execs] is 4000. *)
