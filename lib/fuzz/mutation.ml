module Step = Asyncolor_kernel.Step

type info = { name : string; base : Scenario.algo; describe : string }

let all =
  [
    {
      name = "skip-read";
      base = Scenario.A2;
      describe = "Algorithm 2 reads its first neighbour's register as ⊥";
    };
    {
      name = "guard-always";
      base = Scenario.A2;
      describe = "Algorithm 2 returns its a-candidate unconditionally";
    };
    {
      name = "guard-never";
      base = Scenario.A2;
      describe = "Algorithm 2's stopping guard never fires";
    };
    {
      name = "palette-off-by-one";
      base = Scenario.A1;
      describe = "Algorithm 1 returns (a+1, b) instead of (a, b)";
    };
    (* The churn- mutants plant their bug in the recovery machinery, not
       the protocol: {!Exec} runs the clean step function and corrupts the
       reset instead. *)
    {
      name = "churn-zombie";
      base = Scenario.A2;
      describe = "recovery leaves the crashed incarnation in place (no reset)";
    };
    {
      name = "churn-collide";
      base = Scenario.A2;
      describe = "recovery installs an identifier a live process already holds";
    };
  ]

let find name = List.find_opt (fun i -> i.name = name) all

(* Churn mutants corrupt how {!Exec} applies recovery events; the protocol
   itself stays clean.  Recognised by name so {!Scenario.generate} (which
   cannot depend on this module) can use the same convention. *)
let is_churn name = String.length name >= 6 && String.sub name 0 6 = "churn-"

(* Each mutant is the clean protocol with exactly one planted bug in its
   step function, and a distinguishing [name] so traces and reports show
   what actually ran. *)

module A2 = Asyncolor.Algorithm2.P

module Skip_read = struct
  include A2

  let name = "algorithm2!skip-read"

  let transition s ~view =
    let view = Array.copy view in
    if Array.length view > 0 then view.(0) <- None;
    A2.transition s ~view
end

module Guard_always = struct
  include A2

  let name = "algorithm2!guard-always"
  let transition s ~view:_ = Step.Return s.Asyncolor.Algorithm2.a
end

module Guard_never = struct
  include A2

  let name = "algorithm2!guard-never"

  let transition s ~view =
    match A2.transition s ~view with
    | Step.Return _ -> Step.Continue s
    | c -> c
end

module A1 = Asyncolor.Algorithm1.P

module Palette_off_by_one = struct
  include A1

  let name = "algorithm1!palette-off-by-one"

  let transition s ~view =
    match A1.transition s ~view with
    | Step.Return (a, b) -> Step.Return (a + 1, b)
    | c -> c
end

let a1_protocol name : Asyncolor.Color.pair Asyncolor.Algos.protocol option =
  match name with
  | "palette-off-by-one" -> Some (module Palette_off_by_one)
  | _ -> None

let a2_protocol name : int Asyncolor.Algos.protocol option =
  match name with
  | "skip-read" -> Some (module Skip_read)
  | "guard-always" -> Some (module Guard_always)
  | "guard-never" -> Some (module Guard_never)
  | _ -> None
