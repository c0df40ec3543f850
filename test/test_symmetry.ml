(* Property and differential tests for the explorer's dihedral symmetry
   reduction: orbit canonicalization on the intern path, quotient
   soundness against the unreduced explorer, and the interplay with the
   spill-to-disk frontier. *)

module Explorer = Asyncolor_check.Explorer
module Builders = Asyncolor_topology.Builders
module Graph = Asyncolor_topology.Graph
module Idents = Asyncolor_workload.Idents
module Executor = Asyncolor_util.Executor
module Spill = Asyncolor_resilience.Spill

let check = Alcotest.check
let qtest t = QCheck_alcotest.to_alcotest t

(* --- differential: in-place canonicalizers vs materialised candidates --- *)

module Canon (P : Asyncolor_kernel.Protocol.S) = struct
  module X = Explorer.Make (P)
  module E = X.E

  (* The reference canonicalizer: build every candidate key as an array
     by concatenating [c]'s per-process segments in permuted order, pick
     the least with polymorphic [compare] (first index wins ties), and
     count the orbit as the number of pairwise-distinct candidates.  It
     uses no group structure, so it checks the orbit–stabiliser count of
     [X.canonicalize] and [E.canonical_probe] rather than sharing their
     assumption. *)
  let reference_canonicalize group c =
    if Array.length group = 1 then (E.config_key c, c, 1, 0)
    else begin
      let key, offs = E.config_key_offsets c in
      let data = E.key_data key in
      let segs =
        Array.init
          (Array.length offs - 1)
          (fun p -> Array.sub data offs.(p) (offs.(p + 1) - offs.(p)))
      in
      let build sigma =
        Array.concat (List.map (fun p -> segs.(p)) (Array.to_list sigma))
      in
      let cands = Array.map build group in
      let best = ref 0 in
      for i = 1 to Array.length cands - 1 do
        if compare cands.(i) cands.(!best) < 0 then best := i
      done;
      let distinct = ref 0 in
      Array.iteri
        (fun i ci ->
          let dup = ref false in
          for j = 0 to i - 1 do
            if (not !dup) && cands.(j) = ci then dup := true
          done;
          if not !dup then incr distinct)
        cands;
      let bi = !best in
      let rep = if bi = 0 then c else E.config_permute c group.(bi) in
      (E.key_of_data cands.(bi), rep, !distinct, bi)
    end

  (* The engine's canonical probe of the live configuration against both
     canonicalizers of its snapshot: the same key data and hash, winner
     and orbit, and the representative's unfinished mask. *)
  let probe_agrees group eng =
    let key, wi, orbit, um = E.canonical_probe eng group in
    let data = Array.copy (E.key_data key) and hash = E.key_hash key in
    let c = E.snapshot eng in
    let k1, rep, o1, w1 = X.canonicalize group c in
    let k2, _, o2, w2 = reference_canonicalize group c in
    data = E.key_data k1
    && data = E.key_data k2
    && hash = E.key_hash k1
    && hash = E.key_hash k2
    && wi = w1 && wi = w2 && orbit = o1 && orbit = o2
    && um = E.config_unfinished_mask rep

  (* Drive one engine the way the explorer's loops do, probing after
     every operation: [`Step raw] steps the working processes among
     [raw]; [`Branch raw] restores the configuration restored last
     (the fast restore) and steps from it; [`Rebase] restores a snapshot
     of the live configuration (a full restore, every segment stale).
     So the probe meets segments that are cached, stepped, rewritten
     and wholly stale. *)
  let prop_probe graph ~idents ops =
    let group = X.symmetry_group ~symmetry:true graph ~idents in
    let eng = E.create graph ~idents in
    let base = ref (E.snapshot eng) in
    E.restore eng !base;
    let step raw =
      let m = raw land E.unfinished_mask eng in
      if m <> 0 then E.activate_mask eng m
    in
    probe_agrees group eng
    && List.for_all
         (fun op ->
           (match op with
           | `Step raw -> step raw
           | `Branch raw ->
               E.restore eng !base;
               step raw
           | `Rebase ->
               base := E.snapshot eng;
               E.restore eng !base);
           probe_agrees group eng)
         ops
end

module C2 = Canon (Asyncolor.Algorithm2.P)
module Exp = C2.X
module E = Exp.E

let reference_canonicalize = C2.reference_canonicalize

(* --- canonicalization properties --------------------------------------- *)

(* A random reachable configuration: replay a list of raw activation
   masks from the root, clamping each against the working processes at
   that point (an empty clamped set is skipped, not an error). *)
let config_of_schedule graph ~idents masks =
  let e = E.create graph ~idents in
  List.iter
    (fun raw ->
      let un = E.config_unfinished_mask (E.snapshot e) in
      let m = raw land un in
      if m <> 0 then E.activate_mask e m)
    masks;
  E.snapshot e

let idents_of_workload n = function
  | `Uniform -> Idents.uniform n
  | `Periodic -> Idents.periodic [| 0; 1 |] n
  | `Distinct -> Idents.increasing n

let pp_workload = function
  | `Uniform -> "uniform"
  | `Periodic -> "periodic"
  | `Distinct -> "distinct"

(* (cycle length, identifier workload, raw activation masks) for
   n ∈ 3..10 across all three symmetry regimes: full dihedral group,
   a proper subgroup, and the trivial group. *)
let arb_instance =
  let gen =
    QCheck.Gen.(
      int_range 3 10 >>= fun n ->
      oneofl [ `Uniform; `Periodic; `Distinct ] >>= fun w ->
      list_size (int_range 0 6) (int_range 1 ((1 lsl n) - 1)) >>= fun masks ->
      return (n, w, masks))
  in
  let print (n, w, masks) =
    Printf.sprintf "n=%d %s [%s]" n (pp_workload w)
      (String.concat ";" (List.map string_of_int masks))
  in
  QCheck.make ~print gen

(* canon (permute c σ) = canon c for every group element σ — rotations
   and reflections alike, since the group enumerates all of them. *)
let prop_canon_orbit_invariant (n, w, masks) =
  let graph = Builders.cycle n in
  let idents = idents_of_workload n w in
  let group = Exp.symmetry_group ~symmetry:true graph ~idents in
  let c = config_of_schedule graph ~idents masks in
  let key, _rep, orbit, _wi = Exp.canonicalize group c in
  Array.for_all
    (fun sigma ->
      let key', _, orbit', _ =
        Exp.canonicalize group (E.config_permute c sigma)
      in
      E.key_equal key key' && orbit = orbit')
    group

(* canonicalize is idempotent: the representative canonicalizes to
   itself, with the identity (index 0) as winner. *)
let prop_canon_idempotent (n, w, masks) =
  let graph = Builders.cycle n in
  let idents = idents_of_workload n w in
  let group = Exp.symmetry_group ~symmetry:true graph ~idents in
  let c = config_of_schedule graph ~idents masks in
  let key, rep, orbit, _ = Exp.canonicalize group c in
  let key', _rep', orbit', wi' = Exp.canonicalize group rep in
  E.key_equal key key'
  && E.key_equal key (E.config_key rep)
  && orbit' = orbit && wi' = 0

(* 1 ≤ orbit size ≤ |group|, and the group itself is the dihedral group
   on uniform workloads (order 2n), trivial on injective ones. *)
let prop_orbit_size_bounded (n, w, masks) =
  let graph = Builders.cycle n in
  let idents = idents_of_workload n w in
  let group = Exp.symmetry_group ~symmetry:true graph ~idents in
  let expected_order =
    match w with `Uniform -> 2 * n | `Distinct -> 1 | `Periodic -> Array.length group
  in
  let c = config_of_schedule graph ~idents masks in
  let _, _, orbit, wi = Exp.canonicalize group c in
  Array.length group = expected_order
  && 1 <= orbit
  && orbit <= Array.length group
  && 0 <= wi
  && wi < Array.length group

(* The mask engine and the list engine must agree on the canonical key of
   the configuration a common schedule reaches. *)
let prop_mask_list_agree (n, w, masks) =
  let graph = Builders.cycle n in
  let idents = idents_of_workload n w in
  let group = Exp.symmetry_group ~symmetry:true graph ~idents in
  let em = E.create graph ~idents and el = E.create graph ~idents in
  List.iter
    (fun raw ->
      let un = E.config_unfinished_mask (E.snapshot em) in
      let m = raw land un in
      if m <> 0 then begin
        E.activate_mask em m;
        E.activate el (Explorer.subset_of_mask m)
      end)
    masks;
  let km, _, _, _ = Exp.canonicalize group (E.snapshot em) in
  let kl, _, _, _ = Exp.canonicalize group (E.snapshot el) in
  E.key_equal km kl

let test_canon_orbit_invariant =
  QCheck.Test.make ~name:"canon (permute c sigma) = canon c (n in 3..10)"
    ~count:100 arb_instance prop_canon_orbit_invariant

let test_canon_idempotent =
  QCheck.Test.make ~name:"canon idempotent on representatives" ~count:100
    arb_instance prop_canon_idempotent

let test_orbit_size_bounded =
  QCheck.Test.make ~name:"orbit size in [1, |group|], group order exact"
    ~count:100 arb_instance prop_orbit_size_bounded

let test_mask_list_agree =
  QCheck.Test.make ~name:"mask/list engines agree post-canonicalization"
    ~count:100 arb_instance prop_mask_list_agree

let canon_matches_reference group c =
  let key, rep, orbit, wi = Exp.canonicalize group c in
  let key', rep', orbit', wi' = reference_canonicalize group c in
  E.key_equal key key'
  && E.config_compare rep rep' = 0
  && orbit = orbit' && wi = wi'

let prop_canon_matches_reference (n, w, masks) =
  let graph = Builders.cycle n in
  let idents = idents_of_workload n w in
  let group = Exp.symmetry_group ~symmetry:true graph ~idents in
  canon_matches_reference group (config_of_schedule graph ~idents masks)

(* Topologies whose index-dihedral automorphisms are a proper subset of
   the 2n candidates (the path's reversal, the star's reflections about
   its centre) or all of them (the clique), under the two identifier
   workloads that leave a nontrivial group. *)
let topologies =
  [ ("path", Builders.path); ("star", Builders.star); ("complete", Builders.complete) ]

let arb_general_instance =
  let gen =
    QCheck.Gen.(
      oneofl topologies >>= fun topo ->
      int_range 3 10 >>= fun n ->
      oneofl [ `Uniform; `Periodic ] >>= fun w ->
      list_size (int_range 0 6) (int_range 1 ((1 lsl n) - 1)) >>= fun masks ->
      return (topo, n, w, masks))
  in
  let print ((name, _), n, w, masks) =
    Printf.sprintf "%s n=%d %s [%s]" name n (pp_workload w)
      (String.concat ";" (List.map string_of_int masks))
  in
  QCheck.make ~print gen

let prop_general_canon_matches_reference ((_, build), n, w, masks) =
  let graph = build n in
  let idents = idents_of_workload n w in
  let group = Exp.symmetry_group ~symmetry:true graph ~idents in
  canon_matches_reference group (config_of_schedule graph ~idents masks)

let test_canon_matches_reference =
  QCheck.Test.make ~name:"cycles: in-place canon = reference"
    ~count:1000 arb_instance prop_canon_matches_reference

let test_general_canon_matches_reference =
  QCheck.Test.make
    ~name:"path/star/clique: canon = reference"
    ~count:1000 arb_general_instance prop_general_canon_matches_reference

(* The engine's in-place canonical probe against [Exp.canonicalize] and
   the reference, over Algorithms 1, 2, 2s and 3 on cycles (n 3..8,
   uniform and periodic idents) and on the general graphs above. *)
module C1 = Canon (Asyncolor.Algorithm1.P)
module C2s = Canon (Asyncolor.Algorithm2s.P)
module C3 = Canon (Asyncolor.Algorithm3.P)

let probe_algorithms =
  [
    ("alg1", C1.prop_probe);
    ("alg2", C2.prop_probe);
    ("alg2s", C2s.prop_probe);
    ("alg3", C3.prop_probe);
  ]

let graphs = ("cycle", Builders.cycle) :: topologies

let arb_probe_instance =
  let gen =
    QCheck.Gen.(
      oneofl probe_algorithms >>= fun alg ->
      oneofl graphs >>= fun topo ->
      int_range 3 8 >>= fun n ->
      oneofl [ `Uniform; `Periodic ] >>= fun w ->
      let raw = int_range 1 ((1 lsl n) - 1) in
      let op =
        frequency
          [
            (4, map (fun r -> `Step r) raw);
            (4, map (fun r -> `Branch r) raw);
            (1, return `Rebase);
          ]
      in
      list_size (int_range 0 12) op >>= fun ops ->
      return (alg, topo, n, w, ops))
  in
  let print ((alg, _), (topo, _), n, w, ops) =
    Printf.sprintf "%s %s n=%d %s [%s]" alg topo n (pp_workload w)
      (String.concat ";"
         (List.map
            (function
              | `Step r -> Printf.sprintf "step %d" r
              | `Branch r -> Printf.sprintf "branch %d" r
              | `Rebase -> "rebase")
            ops))
  in
  QCheck.make ~print gen

let test_probe_matches_canonicalize =
  QCheck.Test.make ~name:"engine canonical probe = canonicalize = reference"
    ~count:1000 arb_probe_instance
    (fun ((_, prop), (_, build), n, w, ops) ->
      prop (build n) ~idents:(idents_of_workload n w) ops)

(* Orbit–stabiliser needs the group to be a group: duplicate-free, and
   closed under composition (with the identity first, so the winner index
   0 means "no remap").  Checked on every graph and workload the
   properties above draw from. *)
let test_group_is_subgroup () =
  let compose s t = Array.map (fun q -> s.(q)) t in
  List.iter
    (fun (name, build) ->
      for n = 3 to 10 do
        List.iter
          (fun w ->
            let idents = idents_of_workload n w in
            let group =
              Exp.symmetry_group ~symmetry:true (build n) ~idents
            in
            let what = Printf.sprintf "%s n=%d %s" name n (pp_workload w) in
            let mem s = Array.exists (fun t -> t = s) group in
            check Alcotest.bool (what ^ ": identity first") true
              (group.(0) = Array.init n Fun.id);
            Array.iteri
              (fun i s ->
                for j = 0 to i - 1 do
                  if group.(j) = s then
                    Alcotest.failf "%s: elements %d and %d coincide" what j i
                done;
                Array.iter
                  (fun t ->
                    if not (mem (compose s t)) then
                      Alcotest.failf "%s: not closed under composition" what)
                  group)
              group)
          [ `Uniform; `Periodic; `Distinct ]
      done)
    (("cycle", Builders.cycle) :: topologies)

(* --- differential: reduced vs unreduced -------------------------------- *)

let report = Alcotest.testable Exp.pp_report ( = )

(* The quotient run must agree with the unreduced run after orbit
   expansion: counts, completeness, both verdicts, the exact worst case.
   And the reduced run must be report-identical to itself across jobs
   and execution policies — canonicalization is deterministic, so the
   work-stealing merge still produces one canonical report. *)
let diff_symmetric ?(mode = `All_subsets) graph ~idents () =
  let off = Exp.explore ~mode graph ~idents in
  let on_ = Exp.explore ~mode ~symmetry:true graph ~idents in
  (match on_.orbit with
  | None -> Alcotest.fail "orbit stats expected on a symmetry-reduced run"
  | Some o ->
      check Alcotest.int "expanded configs" off.configs o.expanded_configs;
      check Alcotest.int "expanded transitions" off.transitions
        o.expanded_transitions;
      check Alcotest.int "expanded terminal" off.terminal_configs
        o.expanded_terminal;
      check Alcotest.bool "reduction strict when group nontrivial" true
        (o.group_order = 1 || on_.configs < off.configs));
  check Alcotest.bool "complete" off.complete on_.complete;
  check Alcotest.bool "wait-free verdict" off.wait_free on_.wait_free;
  check Alcotest.int "exact worst case" off.worst_case_activations
    on_.worst_case_activations;
  check Alcotest.bool "livelock verdict" (off.livelock <> None)
    (on_.livelock <> None);
  check Alcotest.bool "safety verdict" (off.safety <> [])
    (on_.safety <> []);
  List.iter
    (fun (name, jobs, policy) ->
      check report (name ^ " = serial") on_
        (Exp.explore ~mode ~symmetry:true ~jobs ~policy graph ~idents))
    [
      ("sync jobs=2", 2, Executor.Synchronous);
      ("sync jobs=4", 4, Executor.Synchronous);
      ("async κ=0.5 jobs=2", 2, Executor.asynchronous ~kappa:0.5 ~jobs:2 ());
      ("async κ=0.5 jobs=4", 4, Executor.asynchronous ~kappa:0.5 ~jobs:4 ());
    ]

let test_diff_uniform_c4 () =
  diff_symmetric (Builders.cycle 4) ~idents:(Idents.uniform 4) ()

let test_diff_uniform_c5_singletons () =
  diff_symmetric ~mode:`Singletons (Builders.cycle 5)
    ~idents:(Idents.uniform 5) ()

let test_diff_periodic_c6 () =
  diff_symmetric ~mode:`Singletons (Builders.cycle 6)
    ~idents:(Idents.periodic [| 3; 8 |] 6) ()

(* Distinct identifiers (the E6/E13/E17 regime): the group degenerates to
   the identity, and symmetry-on must match symmetry-off field-for-field
   with orbit accounting that just echoes the plain counts. *)
let test_diff_distinct_trivial_group () =
  let graph = Builders.cycle 4 in
  let idents = [| 5; 1; 9; 4 |] in
  let grp = Exp.symmetry_group ~symmetry:true graph ~idents in
  check Alcotest.int "group is trivial" 1 (Array.length grp);
  let off = Exp.explore graph ~idents in
  let on_ = Exp.explore ~symmetry:true graph ~idents in
  check report "identical up to orbit stats" off { on_ with orbit = None };
  check
    (Alcotest.testable
       (fun ppf (o : Explorer.orbit_stats) ->
         Format.fprintf ppf "G=%d C=%d T=%d F=%d" o.group_order
           o.expanded_configs o.expanded_transitions o.expanded_terminal)
       ( = ))
    "orbit stats echo the plain counts"
    {
      Explorer.group_order = 1;
      expanded_configs = off.configs;
      expanded_transitions = off.transitions;
      expanded_terminal = off.terminal_configs;
    }
    (Option.get on_.orbit)

(* --- spill invariance --------------------------------------------------- *)

let with_temp_spill_dir f =
  let dir = Filename.temp_file "asyncolor-spill" ".d" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun name -> Sys.remove (Filename.concat dir name))
          (Sys.readdir dir);
        Unix.rmdir dir
      end)
    (fun () -> f dir)

(* Spilling closed levels to disk is a memory optimisation, not a
   semantic one: with many levels on disk the report must stay identical
   to the in-memory run, symmetric or not, serial or work-stealing.  A
   threshold of a few hundred entries closes hundreds of levels here;
   a zero threshold (one fsynced file per merged row) is left to the
   chaos legs, which need every merge boundary to be an I/O site. *)
let test_spill_report_invariant () =
  let graph = Builders.cycle 5 in
  let idents = Idents.uniform 5 in
  List.iter
    (fun symmetry ->
      let plain = Exp.explore ~symmetry graph ~idents in
      List.iter
        (fun (name, jobs, policy) ->
          with_temp_spill_dir (fun dir ->
              let sp = Spill.create ~dir () in
              let spilled =
                Exp.explore ~symmetry ~spill:(sp, 500) ~jobs ~policy graph
                  ~idents
              in
              check report
                (Printf.sprintf "spilled %s (symmetry %b) = in-memory" name
                   symmetry)
                plain spilled;
              check Alcotest.bool "several levels hit the disk" true
                (Spill.levels_on_disk sp >= 4)))
        [
          ("serial", 1, Executor.Serial);
          ("async κ=0.5 jobs=4", 4, Executor.asynchronous ~kappa:0.5 ~jobs:4 ());
        ])
    [ false; true ]

(* A checkpoint of a spilled run holds the whole adjacency stream, its
   closed levels read back from disk; a resumed run pushes it again into
   a log of its own threshold, which sets the chunk size and so the
   padding and byte offsets.  Whatever the resuming side spills, and
   with or without symmetry's per-edge automorphism index, the report
   is the uninterrupted one. *)
let test_spilled_checkpoint_resumes () =
  let graph = Builders.cycle 4 in
  let idents = Idents.uniform 4 in
  List.iter
    (fun symmetry ->
      let plain = Exp.explore ~symmetry graph ~idents in
      List.iter
        (fun cut ->
          let path = Filename.temp_file "asyncolor-sym" ".ckpt" in
          Fun.protect
            ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
            (fun () ->
              with_temp_spill_dir (fun dir ->
                  ignore
                    (Exp.explore ~symmetry ~checkpoint:(path, max_int)
                       ~stop:(fun ~configs -> configs >= cut)
                       ~spill:(Spill.create ~dir (), 500)
                       graph ~idents));
              List.iter
                (fun threshold ->
                  let resumed =
                    match threshold with
                    | None -> Exp.explore_resume path
                    | Some w ->
                        with_temp_spill_dir (fun dir ->
                            Exp.explore_resume ~spill:(Spill.create ~dir (), w) path)
                  in
                  check report
                    (Printf.sprintf "symmetry %b, cut %d, resumed with threshold %s"
                       symmetry cut
                       (match threshold with None -> "none" | Some w -> string_of_int w))
                    plain resumed)
                [ None; Some 200 ]))
        [ 10; 300 ])
    [ false; true ]

(* --- safety predicates on the quotient ------------------------------- *)

(* A predicate checks the representative, which a run rebuilds from the
   key it interned whenever the engine does not already hold it: at two
   jobs and more always, at one job when the winner is not the identity.
   Both predicates below read what a rebuild restores (outputs,
   statuses, states, registers) and they fire on representatives first
   reached through a non-identity winner.  The expected list was
   recorded before the rebuild replaced the permuted snapshot, and it is
   the same at every jobs value and policy. *)
let pp_out = function None -> "_" | Some c -> string_of_int c

let check_outputs outs =
  if Array.exists Option.is_some outs then
    Some ("outputs " ^ String.concat "," (Array.to_list (Array.map pp_out outs)))
  else None

let check_config e =
  let n = E.n e in
  let st p =
    match E.status e p with
    | Asyncolor_kernel.Status.Asleep -> 'A'
    | Working -> 'W'
    | Returned _ -> 'R'
  in
  if st 0 = 'A' && st 1 = 'W' && st (n - 1) = 'W' then
    let fields p =
      match E.public e p with
      | None -> "_"
      | Some (r : Asyncolor.Algorithm2.fields) ->
          let s : Asyncolor.Algorithm2.fields = E.state e p in
          Printf.sprintf "%d%d/%d%d" r.a r.b s.a s.b
    in
    Some
      (Printf.sprintf "statuses %s fields %s" (String.init n st)
         (String.concat "," (List.init n fields)))
  else None

let expected_safety =
  [
    ("outputs _,_,_,_,0", [ [ 0 ] ]);
    ("outputs _,_,0,_,0", [ [ 0; 2 ] ]);
    ("outputs _,_,_,_,0", [ [ 0; 1; 3 ] ]);
    ("statuses AWWWW fields _,00/01,00/01,00/01,00/01", [ [ 0; 1; 2; 3 ] ]);
    ("outputs _,_,_,_,0", [ [ 0 ]; [ 0 ] ]);
    ("outputs _,_,_,_,0", [ [ 0 ]; [ 0; 1 ] ]);
    ("outputs _,_,0,_,0", [ [ 0 ]; [ 0; 2 ] ]);
    ("outputs _,_,_,_,0", [ [ 0 ]; [ 0; 1; 2 ] ]);
    ("outputs _,_,_,0,_", [ [ 0 ]; [ 0; 3 ] ]);
    ("outputs _,_,_,0,_", [ [ 0 ]; [ 0; 1; 3 ] ]);
    ( "statuses AWWRW fields _,00/01,00/01,00/00,00/01",
      [ [ 0 ]; [ 0; 1; 3 ] ] );
  ]

(* The winner index of the last step of a violation's schedule: the
   schedule replayed on the quotient, each step from the representative
   the previous one reached. *)
let last_winner graph ~idents group schedule =
  let eng = E.create graph ~idents in
  let rep = ref (E.snapshot eng) and wi = ref 0 in
  List.iter
    (fun set ->
      E.restore eng !rep;
      E.activate eng set;
      let _, r, _, w = Exp.canonicalize group (E.snapshot eng) in
      rep := r;
      wi := w)
    schedule;
  !wi

let test_predicates_under_symmetry () =
  let graph = Builders.cycle 5 and idents = Idents.uniform 5 in
  let group = Exp.symmetry_group ~symmetry:true graph ~idents in
  let safety = Alcotest.(list (pair string (list (list int)))) in
  List.iter
    (fun (what, jobs, policy) ->
      let r =
        Exp.explore ~symmetry:true ~max_violations:10 ~jobs ?policy
          ~check_outputs ~check_config graph ~idents
      in
      let got =
        List.map (fun (v : Exp.violation) -> (v.message, v.schedule)) r.safety
      in
      check safety (what ^ ": violations as recorded") expected_safety got;
      check Alcotest.bool
        (what ^ ": a predicate fired through a non-identity winner")
        true
        (List.exists
           (fun (_, sched) -> last_winner graph ~idents group sched <> 0)
           got))
    [
      ("jobs=1", 1, None);
      ("jobs=2 sync", 2, Some Executor.Synchronous);
      ("jobs=4 async", 4, Some (Executor.asynchronous ~kappa:0.5 ~jobs:4 ()));
    ]

let () =
  Alcotest.run "symmetry"
    [
      ( "canonicalization",
        [
          qtest test_canon_orbit_invariant;
          qtest test_canon_idempotent;
          qtest test_orbit_size_bounded;
          qtest test_mask_list_agree;
          qtest test_canon_matches_reference;
          qtest test_general_canon_matches_reference;
          qtest test_probe_matches_canonicalize;
          Alcotest.test_case "symmetry group is a subgroup" `Quick
            test_group_is_subgroup;
        ] );
      ( "differential",
        [
          Alcotest.test_case "uniform C4 (full model)" `Quick
            test_diff_uniform_c4;
          Alcotest.test_case "uniform C5 (interleaved)" `Quick
            test_diff_uniform_c5_singletons;
          Alcotest.test_case "periodic C6 (interleaved)" `Quick
            test_diff_periodic_c6;
          Alcotest.test_case "distinct idents: trivial group" `Quick
            test_diff_distinct_trivial_group;
          Alcotest.test_case "predicates on rebuilt representatives" `Quick
            test_predicates_under_symmetry;
        ] );
      ( "spill",
        [
          Alcotest.test_case "report invariant under spilling" `Quick
            test_spill_report_invariant;
          Alcotest.test_case "spilled checkpoint resumes" `Quick
            test_spilled_checkpoint_resumes;
        ] );
    ]
