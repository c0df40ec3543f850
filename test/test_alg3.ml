(* Tests for Algorithm 3 (wait-free 5-colouring in O(log* n), paper §4):
   the Lemma 4.5 identifier invariant monitored at every step, identifier
   monotonicity, rank monotonicity, Theorem 4.4 sweeps at large n, and
   exhaustive checks on C3. *)

module A3 = Asyncolor.Algorithm3
module Rank = Asyncolor.Rank
module Color = Asyncolor.Color
module Checker = Asyncolor.Checker
module Status = Asyncolor_kernel.Status
module Step = Asyncolor_kernel.Step
module Mex = Asyncolor_util.Mex
module Reduce = Asyncolor_cv.Reduce
module Adversary = Asyncolor_kernel.Adversary
module Builders = Asyncolor_topology.Builders
module Idents = Asyncolor_workload.Idents
module Prng = Asyncolor_util.Prng
module Logstar = Asyncolor_cv.Logstar
module Explorer = Asyncolor_check.Explorer.Make (A3.P)

let check = Alcotest.check
let qtest t = QCheck_alcotest.to_alcotest t

let validate n outputs =
  Checker.check ~equal:Int.equal ~in_palette:Color.in_five (Builders.cycle n) outputs

(* --- rank ------------------------------------------------------------ *)

let test_rank_order () =
  check Alcotest.bool "0 <= inf" true Rank.(zero <= Inf);
  check Alcotest.bool "inf <= 0 fails" false Rank.(Inf <= zero);
  check Alcotest.bool "inf <= inf" true Rank.(Inf <= Inf);
  check Alcotest.int "compare fin" (-1) (Rank.compare (Rank.Fin 1) (Rank.Fin 2));
  check Alcotest.bool "succ fin" true (Rank.equal (Rank.succ (Rank.Fin 3)) (Rank.Fin 4));
  check Alcotest.bool "succ inf" true (Rank.equal (Rank.succ Rank.Inf) Rank.Inf);
  check Alcotest.bool "min" true (Rank.equal (Rank.min Rank.Inf (Rank.Fin 7)) (Rank.Fin 7));
  check Alcotest.bool "finite" true (Rank.is_finite Rank.zero);
  check Alcotest.bool "inf not finite" false (Rank.is_finite Rank.Inf)

(* --- pinned scenarios ------------------------------------------------- *)

let test_solo_returns () =
  let e = A3.E.create (Builders.cycle 3) ~idents:[| 12; 47; 30 |] in
  A3.E.activate e [ 2 ];
  check Alcotest.(option int) "solo returns 0" (Some 0)
    (Status.output (A3.E.status e 2))

let test_identifier_coloring_invariant_monitored () =
  (* Lemma 4.5 asserted at EVERY time step of adversarial runs. *)
  List.iter
    (fun seed ->
      let n = 24 in
      let prng = Prng.create ~seed in
      let idents = Idents.random_sparse (Prng.split prng) ~n ~universe:(n * n) in
      let e = A3.E.create (Builders.cycle n) ~idents in
      A3.E.set_monitor e A3.monitor_identifier_coloring;
      let r = A3.E.run e (Adversary.random_subsets (Prng.split prng) ~p:0.5) in
      check Alcotest.bool "terminated" true r.all_returned;
      check Alcotest.bool "proper" true (Checker.ok (validate n r.outputs)))
    [ 1; 2; 3; 4; 5 ]

let test_identifiers_never_increase () =
  let n = 16 in
  let idents = Idents.increasing n in
  let e = A3.E.create (Builders.cycle n) ~idents in
  let prev = Array.map (fun x -> x) idents in
  A3.E.set_monitor e (fun e ->
      for p = 0 to n - 1 do
        match A3.E.status e p with
        | Status.Working ->
            let x = (A3.E.state e p).A3.x in
            if x > prev.(p) then Alcotest.failf "X increased at p%d" p;
            prev.(p) <- x
        | Status.Asleep | Status.Returned _ -> ()
      done);
  ignore (A3.E.run e Adversary.synchronous)

let test_ranks_never_decrease () =
  let n = 16 in
  let e = A3.E.create (Builders.cycle n) ~idents:(Idents.increasing n) in
  let prev = Array.make n Rank.zero in
  A3.E.set_monitor e (fun e ->
      for p = 0 to n - 1 do
        match A3.E.status e p with
        | Status.Working ->
            let r = (A3.E.state e p).A3.r in
            if not Rank.(prev.(p) <= r) then Alcotest.failf "rank decreased at p%d" p;
            prev.(p) <- r
        | Status.Asleep | Status.Returned _ -> ()
      done);
  ignore (A3.E.run e Adversary.synchronous)

let test_blocked_neighbour_does_not_block_coloring () =
  (* A crashed neighbour freezes its r forever; the colouring component
     must still terminate (wait-freedom does not rest on lines 11-19). *)
  let idents = Idents.increasing 8 in
  let adv = Adversary.crash ~at:2 ~procs:[ 0; 4 ] Adversary.round_robin in
  let r = A3.run_on_cycle ~idents adv in
  check Alcotest.bool "survivors done or crashed" true
    (r.all_returned || r.schedule_ended);
  check Alcotest.bool "proper" true (Checker.ok (validate 8 r.outputs))

let test_lemma_4_6_local_max_stays_max () =
  (* Once X_p is a local maximum it stays one: neighbours only decrease. *)
  let n = 10 in
  let idents = Idents.random_permutation (Prng.create ~seed:77) n in
  let e = A3.E.create (Builders.cycle n) ~idents in
  let was_max = Array.make n false in
  A3.E.set_monitor e (fun e ->
      (* Paper definition: p is a local maximum at time t if its (private)
         X_p exceeds both neighbours' *published* identifiers. *)
      let published p =
        Option.map (fun (r : A3.fields) -> r.A3.x) (A3.E.public e p)
      in
      let private_x p =
        match A3.E.status e p with
        | Status.Working -> Some (A3.E.state e p).A3.x
        | Status.Asleep -> None
        | Status.Returned _ -> published p
      in
      for p = 0 to n - 1 do
        match private_x p with
        | None -> ()
        | Some xp ->
            let lo = published ((p + n - 1) mod n)
            and hi = published ((p + 1) mod n) in
            let is_max =
              (match lo with Some v -> xp > v | None -> false)
              && match hi with Some v -> xp > v | None -> false
            in
            if was_max.(p) && not is_max then
              Alcotest.failf "p%d stopped being a local max" p;
            if is_max then was_max.(p) <- true
      done);
  ignore (A3.E.run e Adversary.synchronous)

(* --- list-free transition vs the list-based reference ----------------- *)

(* The transition as the paper states it, over lists: C is every visible
   neighbour's (a, b), C+ those of neighbours with a greater identifier,
   mex comes from [Mex.of_list], and the identifier block runs when both
   neighbours have published.  The protocol's own colouring component
   scans [view] in place and must agree with it everywhere. *)
let reference_reduce_identifier (s : A3.fields) (q : A3.fields)
    (q' : A3.fields) =
  if Rank.is_finite s.r && Rank.(s.r <= min q.r q'.r) then begin
    let lo = min q.x q'.x and hi = max q.x q'.x in
    if lo < s.x && s.x < hi then begin
      let y = Reduce.f s.x lo in
      { s with r = Rank.succ s.r; x = (if y < lo then y else s.x) }
    end
    else begin
      let x =
        if s.x < lo then
          min s.x (Mex.of_list [ Reduce.f q.x s.x; Reduce.f q'.x s.x ])
        else s.x
      in
      { s with r = Rank.Inf; x }
    end
  end
  else s

let reference_transition (s : A3.fields) ~view =
  let nbrs = Array.to_list view |> List.filter_map Fun.id in
  let c = List.concat_map (fun (r : A3.fields) -> [ r.a; r.b ]) nbrs in
  if not (List.mem s.a c) then Step.Return s.a
  else if not (List.mem s.b c) then Step.Return s.b
  else begin
    let c_plus =
      List.concat_map
        (fun (r : A3.fields) -> if r.x > s.x then [ r.a; r.b ] else [])
        nbrs
    in
    let s = { s with a = Mex.of_list c_plus; b = Mex.of_list c } in
    match view with
    | [| Some q; Some q' |] -> Step.Continue (reference_reduce_identifier s q q')
    | _ -> Step.Continue s
  end

(* Small value ranges, so that candidates repeat and collide; neighbour
   identifiers within 2 of the caller's, so above, below and equal all
   occur; finite and infinite ranks, so the identifier block both runs
   and is gated off.  Degree 2 views with both entries published reach
   the identifier block. *)
let arb_transition_case =
  let open QCheck.Gen in
  let candidate = int_range 0 5 in
  let rank = frequency [ (1, return Rank.Inf); (3, map (fun k -> Rank.Fin k) (int_range 0 3)) ] in
  let gen =
    int_range 2 12 >>= fun x ->
    let register =
      map4
        (fun dx r a b -> { A3.x = x + dx; r; a; b })
        (int_range (-2) 2) rank candidate candidate
    in
    let entry = frequency [ (1, return None); (3, map Option.some register) ] in
    let degree = frequency [ (1, int_range 0 6); (2, return 2) ] in
    map4
      (fun r a b view -> ({ A3.x; r; a; b }, view))
      rank candidate candidate
      (degree >>= fun deg -> array_repeat deg entry)
  in
  let pp (f : A3.fields) =
    Format.asprintf "{x=%d;r=%a;a=%d;b=%d}" f.x Rank.pp f.r f.a f.b
  in
  let print (s, view) =
    Printf.sprintf "state %s, view [%s]" (pp s)
      (String.concat "; "
         (Array.to_list
            (Array.map (function None -> "⊥" | Some r -> pp r) view)))
  in
  QCheck.make ~print gen

let prop_transition_matches_reference =
  QCheck.Test.make ~name:"list-free transition = list-based reference"
    ~count:3_000 arb_transition_case (fun (s, view) ->
      let equal_step a b =
        match (a, b) with
        | Step.Return c, Step.Return c' -> Int.equal c c'
        | Step.Continue t, Step.Continue t' -> A3.P.equal_state t t'
        | _ -> false
      in
      equal_step (A3.P.transition s ~view) (reference_transition s ~view))

(* --- Theorem 4.4 ------------------------------------------------------ *)

let prop_logstar_rounds_random =
  QCheck.Test.make ~name:"Theorem 4.4: rounds <= O(log* n), random idents"
    ~count:100
    QCheck.(pair (int_range 3 2000) (int_range 0 10_000))
    (fun (n, seed) ->
      let prng = Prng.create ~seed in
      let idents = Idents.random_sparse (Prng.split prng) ~n ~universe:(max 64 (n * n)) in
      let r = A3.run_on_cycle ~idents (Adversary.random_subsets (Prng.split prng) ~p:0.6) in
      r.all_returned
      && r.rounds <= A3.activation_bound n
      && Checker.ok (validate n r.outputs))

let prop_logstar_rounds_monotone =
  QCheck.Test.make ~name:"Theorem 4.4: monotone chains collapse" ~count:20
    QCheck.(int_range 64 4096)
    (fun n ->
      let r = A3.run_on_cycle ~idents:(Idents.increasing n) Adversary.synchronous in
      (* flat in n: a fixed small constant suffices empirically *)
      r.all_returned && r.rounds <= 8 + (2 * Logstar.log_star_int n))

let test_large_ring () =
  let n = 1 lsl 17 in
  let idents = Idents.increasing n in
  let r = A3.run_on_cycle ~idents Adversary.synchronous in
  check Alcotest.bool "terminates" true r.all_returned;
  check Alcotest.bool "few rounds" true (r.rounds <= 16);
  check Alcotest.bool "proper" true (Checker.ok (validate n r.outputs))

(* --- exhaustive -------------------------------------------------------- *)

let test_exhaustive_interleaved_c3 () =
  List.iter
    (fun idents ->
      let g = Builders.cycle 3 in
      let check_outputs outs =
        if Checker.ok (validate 3 outs) then None else Some "bad colouring"
      in
      let check_config e =
        match A3.monitor_identifier_coloring e with
        | () -> None
        | exception Failure msg -> Some msg
      in
      let r = Explorer.explore ~mode:`Singletons g ~idents ~check_outputs ~check_config in
      check Alcotest.bool "complete" true r.complete;
      check Alcotest.bool "wait-free interleaved" true r.wait_free;
      check Alcotest.int "no violations (colouring + Lemma 4.5)" 0
        (List.length r.safety))
    [ [| 12; 47; 30 |]; [| 0; 1; 2 |]; [| 100; 10; 55 |] ]

let test_exhaustive_interleaved_c4 () =
  let g = Builders.cycle 4 in
  let r = Explorer.explore ~mode:`Singletons g ~idents:[| 12; 47; 30; 21 |] in
  check Alcotest.bool "complete" true r.complete;
  check Alcotest.bool "wait-free" true r.wait_free;
  check Alcotest.bool "small exact worst" true (r.worst_case_activations <= 6)

let test_exhaustive_simultaneous_lock () =
  let g = Builders.cycle 3 in
  let r = Explorer.explore g ~idents:[| 12; 47; 30 |] in
  check Alcotest.bool "complete" true r.complete;
  check Alcotest.bool "F1 also affects Algorithm 3" false r.wait_free

let () =
  Alcotest.run "algorithm3"
    [
      ("rank", [ Alcotest.test_case "order" `Quick test_rank_order ]);
      ( "scenarios",
        [
          Alcotest.test_case "solo returns" `Quick test_solo_returns;
          Alcotest.test_case "Lemma 4.5 monitored" `Quick
            test_identifier_coloring_invariant_monitored;
          Alcotest.test_case "X never increases" `Quick test_identifiers_never_increase;
          Alcotest.test_case "ranks never decrease" `Quick test_ranks_never_decrease;
          Alcotest.test_case "crashes don't block colouring" `Quick
            test_blocked_neighbour_does_not_block_coloring;
          Alcotest.test_case "Lemma 4.6: local max stays" `Quick
            test_lemma_4_6_local_max_stays_max;
        ] );
      ("transition", [ qtest prop_transition_matches_reference ]);
      ( "theorem 4.4",
        [
          qtest prop_logstar_rounds_random;
          qtest prop_logstar_rounds_monotone;
          Alcotest.test_case "ring of 131072" `Slow test_large_ring;
        ] );
      ( "exhaustive",
        [
          Alcotest.test_case "interleaved C3 (+Lemma 4.5)" `Slow
            test_exhaustive_interleaved_c3;
          Alcotest.test_case "interleaved C4" `Slow test_exhaustive_interleaved_c4;
          Alcotest.test_case "simultaneous C3 locks" `Slow
            test_exhaustive_simultaneous_lock;
        ] );
    ]
