module Builders = Asyncolor_topology.Builders
module Status = Asyncolor_kernel.Status
module Idents = Asyncolor_workload.Idents
module Stats = Asyncolor_workload.Stats
module Prng = Asyncolor_util.Prng
module Mask = Asyncolor_util.Mask
module Executor = Asyncolor_util.Executor
module Obs = Asyncolor_obs.Obs
module Checker = Asyncolor.Checker

(* Only the wait-free cycle algorithms make sense under churn: the
   recovery invariant needs a bound on how long healing may take, and
   Algorithm 2s has none (the symmetric lasso of E13). *)
type algo = A2 | A3

let algo_name = function A2 -> "2" | A3 -> "3"
let algo_of_string = function "2" -> Some A2 | "3" -> Some A3 | _ -> None

(* Planted recovery bugs, each pinned to the detector that must catch it
   (mutation testing for the churn invariant suite, mirroring
   {!Asyncolor_fuzz.Mutation}). *)
type bug = Ident_collide | Skip_reinit | Heal_starve | Spurious_recolor

let bug_name = function
  | Ident_collide -> "ident-collide"
  | Skip_reinit -> "skip-reinit"
  | Heal_starve -> "heal-starve"
  | Spurious_recolor -> "spurious-recolor"

let bug_of_string = function
  | "ident-collide" -> Some Ident_collide
  | "skip-reinit" -> Some Skip_reinit
  | "heal-starve" -> Some Heal_starve
  | "spurious-recolor" -> Some Spurious_recolor
  | _ -> None

let bug_detector = function
  | Ident_collide -> "churn-fresh-ident"
  | Skip_reinit -> "churn-reinit"
  | Heal_starve -> "churn-recovery"
  | Spurious_recolor -> "churn-stability"

let bugs = [ Ident_collide; Skip_reinit; Heal_starve; Spurious_recolor ]

type config = {
  algo : algo;
  n : int;
  horizon : int;
  crash_rate : float;
  recover_rate : float;
  burst : int;
  mutant : bug option;
}

let default =
  {
    algo = A2;
    n = 62;
    horizon = 250_000;
    crash_rate = 0.3;
    recover_rate = 0.5;
    burst = 1;
    mutant = None;
  }

let validate_config c =
  if c.n < 3 || c.n > Sys.int_size - 1 then
    invalid_arg
      (Printf.sprintf "Churn: n must lie in [3, %d] (cycle + packed masks)"
         (Sys.int_size - 1));
  if c.horizon < 1 then invalid_arg "Churn: horizon must be positive";
  let rate name r =
    if not (r >= 0.0 && r <= 1.0) then
      invalid_arg (Printf.sprintf "Churn: %s must lie in [0, 1]" name)
  in
  rate "crash-rate" c.crash_rate;
  rate "recover-rate" c.recover_rate;
  if c.burst < 1 || c.burst > c.n then
    invalid_arg "Churn: burst must lie in [1, n]"

let pp_config ppf c =
  Format.fprintf ppf
    "algo=%s%s n=%d horizon=%d crash-rate=%.3f recover-rate=%.3f burst=%d"
    (algo_name c.algo)
    (match c.mutant with None -> "" | Some b -> "!" ^ bug_name b)
    c.n c.horizon c.crash_rate c.recover_rate c.burst

type violation = { epoch : int; detector : string; message : string }

type result = {
  session : int;
  steps : int;
  activations : int;
  epochs : int;
  crashes : int;
  recoveries : int;
  latencies : int list;
  radii : int list;
  violations : violation list;
}

(* Per-session PRNG stream: a pure function of (campaign seed, session
   index), the same odd-multiplier xor combine as the fuzzer's per-exec
   streams — session [i] runs the same schedule whatever --jobs is,
   which is the whole determinism argument of the campaign. *)
let session_seed ~seed i = seed lxor (i * 0x9E3779B97F4A7C1)

(* Per-(seed, event) stream: the [k]-th churn event draws its internals
   (burst victim choices) from its own stream, so an event consumes no
   draws from the session stream beyond its trigger coin — the schedule
   shape never depends on how many victims an earlier burst considered. *)
let event_seed base k = base lxor ((k + 1) * 0x2545F4914F6CDD1D)

(* Ring distance between nodes [a] and [b] on the n-cycle. *)
let ring_dist n a b =
  let d = abs (a - b) in
  min d (n - d)

let entry = function A2 -> Asyncolor.Algos.a2 | A3 -> Asyncolor.Algos.a3

(* Observability: counters are sharded per domain in the sink, so
   parallel sessions never contend; everything is out-of-band and leaves
   the report bytes untouched. *)
type octx = {
  oc_steps : Obs.Counter.t;
  oc_activations : Obs.Counter.t;
  oc_crashes : Obs.Counter.t;
  oc_recoveries : Obs.Counter.t;
  oc_epochs : Obs.Counter.t;
  oc_violations : Obs.Counter.t;
  og_latency_p99 : Obs.Gauge.t;
}

let make_octx o =
  {
    oc_steps = Obs.counter o "churn.steps";
    oc_activations = Obs.counter o "churn.activations";
    oc_crashes = Obs.counter o "churn.crashes";
    oc_recoveries = Obs.counter o "churn.recoveries";
    oc_epochs = Obs.counter o "churn.epochs";
    oc_violations = Obs.counter o "churn.violations";
    og_latency_p99 = Obs.gauge o "churn.recovery_latency_p99";
  }

(* How long one epoch's phases run.  The churn window is short so quiet
   periods (where the recovery invariant is measurable) dominate the
   horizon; the stability window only needs enough steps to let a
   spurious recolouring surface. *)
let churn_window = 8
let stability_window = 3

(* A session stops early once it has gathered this many violations: a
   finding needs evidence, not an unbounded flood — and some planted bugs
   (heal-starve exempts every recovered node from scheduling, so live
   activations stop accruing entirely) would otherwise never reach their
   activation horizon. *)
let max_violations = 64

(* [Status.output a = Status.output b] without the option boxes. *)
let same_output (a : int Status.t) (b : int Status.t) =
  match (a, b) with
  | Status.Returned x, Status.Returned y -> Int.equal x y
  | Status.Returned _, _ | _, Status.Returned _ -> false
  | _ -> true

let run ?(obs = Obs.disabled) cfg ~seed ~session =
  validate_config cfg;
  let octx = make_octx obs in
  let alg = entry cfg.algo in
  let (module P) = alg.protocol in
  let module E = Asyncolor_kernel.Engine.Make (P) in
  let n = cfg.n in
  let graph = Builders.cycle n in
  let in_palette = alg.palette graph ~on_cycle:true in
  let universe = max 64 (4 * n) in
  let base = session_seed ~seed session in
  let prng = Prng.create ~seed:base in
  let idents = Idents.random_sparse prng ~n ~universe in
  let engine = E.create graph ~idents in
  let heal_bound = Option.get alg.bound n in
  (* The session loop allocates nothing in steady state beyond what the
     result keeps (latency and radius samples, violations) and what the
     engine step itself allocates.  Node sets are bitmasks (n <= 62),
     walked bit by bit so per-step and per-recovery work scales with what
     changed; the scratch arrays below are allocated once per session. *)
  let all = (1 lsl n) - 1 in
  let up = ref all in
  (* up nodes whose current incarnation has not yet been counted as
     returned (latency bookkeeping) *)
  let pending = ref all in
  (* nodes ever recovered (only recovered incarnations feed the latency
     histogram; the initial colouring does not) *)
  let recovered = ref 0 in
  (* nodes the heal-starve mutant silently starves *)
  let starved = ref 0 in
  (* Every installed identifier lies in [0, universe): drawn by
     [random_sparse], by the allocator, or copied from another node.
     [held.(id)] counts the nodes the engine shows holding [id], kept
     exact around every reset.  The allocator is conservative: it avoids
     the identifiers of every node, dead incarnations included (their
     registers may still be visible to neighbours), so its answer is the
     smallest identifier with count 0.  At most n are held and
     universe > n, so the scan stops by n. *)
  let held = Array.make universe 0 in
  for q = 0 to n - 1 do
    let id = E.ident engine q in
    held.(id) <- held.(id) + 1
  done;
  let fresh_ident () =
    let c = ref 0 in
    while held.(!c) > 0 do
      incr c
    done;
    !c
  in
  (* churn-fresh-ident scratch, indexed by identifier: [owner.(id)] is
     the first node seen holding [id] in the scan numbered [stamp.(id)] *)
  let owner = Array.make universe 0 and stamp = Array.make universe 0 in
  let scans = ref 0 in
  (* heal's per-node activation count at the start of the quiet period *)
  let start = Array.make n 0 in
  (* Change masks: a status moves only when its node is stepped while
     unfinished or reset (a returned process never recolours), so the
     detectors walk what moved, not all n nodes.  [moved] holds the nodes
     stepped live or reset since it was last cleared (at the epoch's
     start, and after the locality pass), and [before.(p)] is p's status
     at that point, recorded just before its first move. *)
  let moved = ref 0 in
  let before = Array.make n Status.Asleep in
  let note set =
    let m = ref (set land lnot !moved) in
    moved := !moved lor set;
    while !m <> 0 do
      let p = Mask.lowest_bit !m in
      m := !m land (!m - 1);
      before.(p) <- E.status engine p
    done
  in
  (* nodes stepped live since the last colouring check that passed: a
     colour appears only through a step, and a reset only removes one *)
  let dirty = ref all in
  let status_of = E.status engine in
  let churned = ref 0 in
  let violations = ref [] in
  let nviol = ref 0 in
  let latencies = ref [] in
  let radii = ref [] in
  let crashes = ref 0 in
  let recoveries = ref 0 in
  let activations = ref 0 in
  let epochs = ref 0 in
  let event_idx = ref 0 in
  let add_violation ~epoch detector message =
    Obs.Counter.incr octx.oc_violations;
    incr nviol;
    violations := { epoch; detector; message } :: !violations
  in
  (* Walk the up, uncounted nodes that have returned — not the nodes
     activated this step: a skip-reinit recovery leaves an
     already-returned node uncounted, and it is counted on the next
     step. *)
  let check_new_returns () =
    let m = ref (!pending land lnot (E.unfinished_mask engine)) in
    pending := !pending land lnot !m;
    while !m <> 0 do
      let p = Mask.lowest_bit !m in
      m := !m land (!m - 1);
      if !recovered land (1 lsl p) <> 0 then
        latencies := E.activations engine p :: !latencies
    done
  in
  let step mask =
    (* the heal-starve bug withholds scheduling everywhere, not only in
       the heal phase — "silently never scheduled again" *)
    let m = mask land lnot !starved in
    let live = m land E.unfinished_mask engine in
    note live;
    dirty := !dirty lor live;
    E.activate_mask engine m;
    Obs.Counter.incr octx.oc_steps;
    let did = Mask.popcount live in
    activations := !activations + did;
    Obs.Counter.add octx.oc_activations did;
    check_new_returns ()
  in
  (* Every reset, the planted bugs' included, goes through here, so
     [held] and [moved] stay exact. *)
  let reset p ~ident =
    note (1 lsl p);
    let old = E.ident engine p in
    held.(old) <- held.(old) - 1;
    E.reset engine p ~ident;
    let id = E.ident engine p in
    held.(id) <- held.(id) + 1
  in
  (* Recovery event: the engine-side reset plus the bookkeeping the
     detectors audit.  The planted bugs live here — each one breaks the
     recovery machinery, never the protocol. *)
  let recover ~epoch p =
    (match cfg.mutant with
    | Some Ident_collide ->
        (* planted bug: reuse another node's identifier instead (distance
           2, so the collision is global, not a degenerate adjacent pair) *)
        reset p ~ident:(E.ident engine ((p + 2) mod n))
    | Some Skip_reinit ->
        (* planted bug: declare the node recovered without re-initialising *)
        ()
    | _ -> reset p ~ident:(fresh_ident ()));
    let bit = 1 lsl p in
    up := !up lor bit;
    pending := !pending lor bit;
    recovered := !recovered lor bit;
    (match cfg.mutant with
    | Some Heal_starve -> starved := !starved lor bit
    | _ -> ());
    incr recoveries;
    Obs.Counter.incr octx.oc_recoveries;
    (* churn-reinit: a recovered node must observably be a fresh process —
       asleep, register back to ⊥, activation counter restarted. *)
    (match E.status engine p with
    | Status.Asleep
      when Option.is_none (E.public engine p) && E.activations engine p = 0 ->
        ()
    | _ ->
        add_violation ~epoch "churn-reinit"
          (Printf.sprintf
             "node %d not re-initialised on recovery (status %s, acts %d)" p
             (match E.status engine p with
             | Status.Asleep -> "asleep"
             | Status.Working -> "working"
             | Status.Returned _ -> "returned")
             (E.activations engine p)));
    (* churn-fresh-ident: installed identifiers stay pairwise distinct.
       It reads the engine's identifiers, never the allocator's buffer:
       the ident-collide bug goes around the allocator. *)
    incr scans;
    let scan = !scans in
    for q = 0 to n - 1 do
      let id = E.ident engine q in
      if stamp.(id) = scan then
        add_violation ~epoch "churn-fresh-ident"
          (Printf.sprintf "nodes %d and %d both hold identifier %d" owner.(id)
             q id)
      else begin
        stamp.(id) <- scan;
        owner.(id) <- q
      end
    done
  in
  let crash ev =
    (* victim: uniform among up nodes, drawn from the event's own stream *)
    if !up <> 0 then begin
      let v = Mask.nth_bit !up (Prng.int ev (Mask.popcount !up)) in
      up := !up land lnot (1 lsl v);
      pending := !pending land lnot (1 lsl v);
      churned := !churned lor (1 lsl v);
      incr crashes;
      Obs.Counter.incr octx.oc_crashes
    end
  in
  (* Recover the down nodes in ascending order: all of them ([~drain]),
     or each with the recovery probability, one draw per down node. *)
  let recover_down ~epoch ~drain =
    let down = ref (all land lnot !up) in
    while !down <> 0 do
      let p = Mask.lowest_bit !down in
      down := !down land (!down - 1);
      if drain || Prng.float prng 1.0 < cfg.recover_rate then begin
        churned := !churned lor (1 lsl p);
        recover ~epoch p
      end
    done
  in
  (* Quiet-period healing: round-robin singleton activations over the
     unfinished processes — the sequential adversary.  Wait-freedom then
     bounds each process's own activations to return; exceeding that
     per-process bound is the recovery violation.

     Why not synchronous lockstep?  Recovery leaves the ring outside the
     static model (frozen registers of returned neighbours can pin a
     fresh local maximum's [a]-candidate forever), and from there exact
     lockstep can sustain a period-2 oscillation between two adjacent
     fresh processes indefinitely — Algorithm 3 even livelocks
     permanently.  Any asymmetric schedule breaks the cycle in a couple
     of activations; the sequential schedule is the deterministic way to
     guarantee that, and makes the invariant the literal per-process
     wait-freedom statement. *)
  let heal ~epoch =
    (* only the chosen process steps from here on, so this set shrinks
       exactly when the chosen process returns *)
    let unfinished = ref (E.unfinished_mask engine) in
    let m = ref !unfinished in
    while !m <> 0 do
      let p = Mask.lowest_bit !m in
      m := !m land (!m - 1);
      start.(p) <- E.activations engine p
    done;
    let give_up = ref false in
    (* the round robin's next position *)
    let rr = ref 0 in
    while !unfinished <> 0 && not !give_up do
      let candidates = !unfinished land lnot !starved in
      if candidates = 0 then begin
        (* every unfinished process is starved: the healing machinery
           will never schedule them again *)
        give_up := true;
        let stuck = ref [] in
        for p = n - 1 downto 0 do
          if !unfinished land (1 lsl p) <> 0 then stuck := p :: !stuck
        done;
        add_violation ~epoch "churn-recovery"
          (Printf.sprintf "nodes [%s] are never scheduled again after recovery"
             (String.concat ";" (List.map string_of_int !stuck)))
      end
      else begin
        (* the first candidate at or after [rr], cyclically *)
        let later = candidates land lnot ((1 lsl !rr) - 1) in
        let p = Mask.lowest_bit (if later <> 0 then later else candidates) in
        rr := (p + 1) mod n;
        step (1 lsl p);
        if Status.is_returned (E.status engine p) then
          unfinished := !unfinished land lnot (1 lsl p)
        else if E.activations engine p - start.(p) > heal_bound then begin
          give_up := true;
          add_violation ~epoch "churn-recovery"
            (Printf.sprintf
               "node %d not returned after %d quiet activations (bound %d)" p
               (E.activations engine p - start.(p))
               heal_bound)
        end
      end
    done;
    (* the coloring the quiet period restored must be proper and on
       palette — the other half of the recovery invariant.  Only the
       dirty nodes can break a colouring that passed; a failed check
       leaves every node dirty, so the next one checks them all. *)
    if not !give_up then
      if Checker.ok_changed ~equal:Int.equal ~in_palette graph status_of !dirty
      then dirty := 0
      else begin
        dirty := all;
        let verdict =
          Checker.check ~equal:Int.equal ~in_palette graph (E.outputs engine)
        in
        add_violation ~epoch "churn-recovery"
          (Format.asprintf "healed coloring invalid: %a" Checker.pp verdict)
      end
  in
  let run_epoch epoch =
    moved := 0;
    churned := 0;
    (* -- churn phase: crashes, recoveries and activity interleave -- *)
    for _ = 1 to churn_window do
      if Prng.float prng 1.0 < cfg.crash_rate then begin
        let ev = Prng.create ~seed:(event_seed base !event_idx) in
        incr event_idx;
        for _ = 1 to cfg.burst do
          crash ev
        done
      end;
      recover_down ~epoch ~drain:false;
      (* one coin per up process, in ascending order *)
      step (Prng.bool_mask prng !up)
    done;
    (* -- drain: the epoch's last churn events recover every down node -- *)
    recover_down ~epoch ~drain:true;
    (* -- heal: quiet period; the recovery invariant's clock runs here -- *)
    heal ~epoch;
    (* -- repair locality: nobody outside the churn radius recoloured.
       Only a node that moved can have; one not coloured at the epoch's
       start is not constrained. -- *)
    let mv = ref !moved in
    while !mv <> 0 do
      let q = Mask.lowest_bit !mv in
      mv := !mv land (!mv - 1);
      if
        Status.is_returned before.(q)
        && not (same_output before.(q) (E.status engine q))
      then begin
        let dist = ref n and m = ref !churned in
        while !m <> 0 do
          let c = Mask.lowest_bit !m in
          m := !m land (!m - 1);
          dist := min !dist (ring_dist n q c)
        done;
        let dist = !dist in
        radii := dist :: !radii;
        if dist > 0 then
          add_violation ~epoch "churn-locality"
            (Printf.sprintf
               "node %d recoloured at ring distance %d from the nearest \
                churned node"
               q dist)
      end
    done;
    (* -- stability: no churn in flight, so nobody may recolour.  The
       healed outputs are compared after every step (not only at the
       end), so a node that recolours and happens to land back on its old
       colour within the window is still caught; [flagged] keeps it one
       violation per node per epoch.  From here [before] holds the healed
       status of every node that moved since the heal. -- *)
    moved := 0;
    let flagged = ref 0 in
    for s = 1 to stability_window do
      (match cfg.mutant with
      | Some Spurious_recolor when epoch = 1 && s = 1 ->
          (* planted bug: a reset that no churn event accounts for, while
             no churn is in flight *)
          reset 0 ~ident:(fresh_ident ())
      | _ -> ());
      step (Prng.bool_mask prng all);
      let mv = ref (!moved land lnot !flagged) in
      while !mv <> 0 do
        let q = Mask.lowest_bit !mv in
        mv := !mv land (!mv - 1);
        if not (same_output before.(q) (E.status engine q)) then begin
          flagged := !flagged lor (1 lsl q);
          add_violation ~epoch "churn-stability"
            (Printf.sprintf "node %d changed output with no churn in flight" q)
        end
      done
    done;
    (* A stability violation leaves damage behind (the whole point of the
       detector); quietly re-heal so later epochs measure their own churn,
       not the planted bug's wake. *)
    if not (E.all_returned engine) then heal ~epoch
  in
  Obs.span obs
    ~args:
      [ ("session", string_of_int session); ("seed", string_of_int seed) ]
    "churn.session"
  @@ fun () ->
  (* Warmup: bring the fresh ring to a full coloring; epoch 0 is the
     initial colouring, not a recovery, so it feeds no latency sample. *)
  heal ~epoch:0;
  (* With a zero crash rate no epoch can ever generate activity, so the
     session is the warmup alone — anything else would spin forever. *)
  let churn_possible = cfg.crash_rate > 0.0 in
  (* the epoch cap is belt-and-braces against zero-progress loops: a
     clean epoch yields far more than one activation, so it never binds
     without a planted bug *)
  let max_epochs = cfg.horizon in
  while
    !activations < cfg.horizon && churn_possible
    && !nviol < max_violations
    && !epochs < max_epochs
  do
    incr epochs;
    Obs.Counter.incr octx.oc_epochs;
    let epoch = !epochs in
    (* the span's arguments would allocate even on a disabled sink *)
    if Obs.enabled obs then
      Obs.span obs
        ~args:[ ("epoch", string_of_int epoch) ]
        "churn.epoch"
        (fun () -> run_epoch epoch)
    else run_epoch epoch
  done;
  let latencies = List.rev !latencies in
  (if Obs.enabled obs && latencies <> [] then
     let s = Stats.summarize latencies in
     Obs.Gauge.set octx.og_latency_p99 s.Stats.p99);
  {
    session;
    steps = E.time engine;
    activations = !activations;
    epochs = !epochs;
    crashes = !crashes;
    recoveries = !recoveries;
    latencies;
    radii = List.rev !radii;
    violations = List.rev !violations;
  }

(* --- campaigns -------------------------------------------------------- *)

type report = {
  seed : int;
  cfg : config;
  sessions : int;
  results : result list;
  total_activations : int;
  total_crashes : int;
  total_recoveries : int;
  latency : Stats.summary option;
  radius : Stats.summary option;
  violations : (int * violation) list;
}

let campaign ?(jobs = 1) ?policy ?(obs = Obs.disabled) cfg ~seed ~sessions () =
  validate_config cfg;
  if sessions < 1 then invalid_arg "Churn: sessions must be positive";
  let results =
    Obs.span obs
      ~args:
        [ ("seed", string_of_int seed); ("sessions", string_of_int sessions) ]
      "churn.campaign"
    @@ fun () ->
    Executor.with_executor ~obs ?policy ~jobs (fun exec ->
        Executor.map exec
          (fun i -> run ~obs cfg ~seed ~session:i)
          (Array.init sessions Fun.id))
  in
  (* merge by session index: the report is a pure function of
     (cfg, seed, sessions) whatever jobs or policy ran it *)
  let results = Array.to_list results in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
  let gather f = List.concat_map f results in
  let summarize = function [] -> None | l -> Some (Stats.summarize l) in
  {
    seed;
    cfg;
    sessions;
    results;
    total_activations = sum (fun r -> r.activations);
    total_crashes = sum (fun r -> r.crashes);
    total_recoveries = sum (fun r -> r.recoveries);
    latency = summarize (gather (fun r -> r.latencies));
    radius = summarize (gather (fun r -> r.radii));
    violations =
      gather (fun r -> List.map (fun v -> (r.session, v)) r.violations);
  }

let pp_summary_opt ppf = function
  | None -> Format.pp_print_string ppf "-"
  | Some s -> Stats.pp_summary ppf s

let pp_report ppf r =
  Format.fprintf ppf "@[<v>churn %a seed=%d sessions=%d@," pp_config r.cfg
    r.seed r.sessions;
  List.iter
    (fun s ->
      Format.fprintf ppf
        "session %d: steps=%d activations=%d epochs=%d crashes=%d \
         recoveries=%d violations=%d@,"
        s.session s.steps s.activations s.epochs s.crashes s.recoveries
        (List.length s.violations))
    r.results;
  Format.fprintf ppf
    "total: activations=%d crashes=%d recoveries=%d@,\
     recovery latency (activations): %a@,\
     repair radius: %a@,"
    r.total_activations r.total_crashes r.total_recoveries pp_summary_opt
    r.latency pp_summary_opt r.radius;
  (match r.violations with
  | [] -> Format.fprintf ppf "violations: none"
  | vs ->
      Format.fprintf ppf "violations: %d" (List.length vs);
      List.iter
        (fun (s, v) ->
          Format.fprintf ppf "@,  [s%d e%d %s] %s" s v.epoch v.detector
            v.message)
        vs);
  Format.fprintf ppf "@]"
