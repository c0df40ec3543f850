(* Cross-algorithm property tests pinned to the paper's lemmas.

   Lemma 3.3 (and its Algorithm 2/3 counterparts): a working process given
   two consecutive solo activations — no neighbour takes a step in
   between — returns at the second one.  This is the engine of
   wait-freedom: after the first round the process writes a colour
   candidate avoiding everything it read; if nothing changed, the second
   round confirms it.

   Algorithm 3's synchronisation invariant: the identifier X_p changes only
   in a round where the counter r_p changes too (lines 11-19 couple every
   X update to an r update) — the mechanics behind Lemma 4.5. *)

module Status = Asyncolor_kernel.Status
module Adversary = Asyncolor_kernel.Adversary
module Builders = Asyncolor_topology.Builders
module Idents = Asyncolor_workload.Idents
module Prng = Asyncolor_util.Prng

let qtest t = QCheck_alcotest.to_alcotest t

let random_prefix prng ~n ~steps =
  List.init steps (fun _ ->
      List.filter (fun _ -> Prng.bool prng) (List.init n Fun.id))

(* Drive a random prefix, then give the first still-working process two solo
   activations; it must have returned by the second.  [true] if no working
   process exists (vacuous). *)
module Solo_progress (P : Asyncolor_kernel.Protocol.S) = struct
  module E = Asyncolor_kernel.Engine.Make (P)

  let check ~n ~seed =
    let prng = Prng.create ~seed in
    let idents = Idents.random_permutation (Prng.split prng) n in
    let e = E.create (Builders.cycle n) ~idents in
    List.iter (E.activate e) (random_prefix (Prng.split prng) ~n ~steps:(Prng.int prng 12));
    match List.find_opt (fun p -> (E.status e p = Status.Working)) (List.init n Fun.id) with
    | None -> true
    | Some p ->
        E.activate e [ p ];
        E.activate e [ p ];
        Status.is_returned (E.status e p)
end

module Solo1 = Solo_progress (Asyncolor.Algorithm1.P)
module Solo2 = Solo_progress (Asyncolor.Algorithm2.P)
module Solo3 = Solo_progress (Asyncolor.Algorithm3.P)

let arb =
  QCheck.make
    ~print:(fun (n, seed) -> Printf.sprintf "n=%d seed=%d" n seed)
    QCheck.Gen.(pair (int_range 3 24) (int_range 0 100_000))

let prop_lemma_3_3_alg1 =
  QCheck.Test.make ~name:"Lemma 3.3 (alg1): two solo activations return" ~count:300
    arb (fun (n, seed) -> Solo1.check ~n ~seed)

let prop_lemma_3_3_alg2 =
  QCheck.Test.make ~name:"Lemma 3.3 (alg2): two solo activations return" ~count:300
    arb (fun (n, seed) -> Solo2.check ~n ~seed)

let prop_lemma_3_3_alg3 =
  QCheck.Test.make ~name:"Lemma 3.3 (alg3): two solo activations return" ~count:300
    arb (fun (n, seed) -> Solo3.check ~n ~seed)

(* --- Algorithm 3: X changes only with r ------------------------------- *)

module A3 = Asyncolor.Algorithm3
module Rank = Asyncolor.Rank

let prop_x_changes_with_r =
  QCheck.Test.make ~name:"alg3: X_p changes only when r_p changes" ~count:150 arb
    (fun (n, seed) ->
      let prng = Prng.create ~seed in
      let idents = Idents.random_sparse (Prng.split prng) ~n ~universe:(max 64 (n * n)) in
      let e = A3.E.create (Builders.cycle n) ~idents in
      let prev_x = Array.copy idents in
      let prev_r = Array.make n Rank.zero in
      let ok = ref true in
      A3.E.set_monitor e (fun e ->
          for p = 0 to n - 1 do
            match A3.E.status e p with
            | Status.Working ->
                let s = A3.E.state e p in
                if s.A3.x <> prev_x.(p) && s.A3.r = prev_r.(p) then
                  ok := false;
                prev_x.(p) <- s.A3.x;
                prev_r.(p) <- s.A3.r
            | Status.Asleep | Status.Returned _ -> ()
          done);
      let r = A3.E.run e (Adversary.random_subsets (Prng.split prng) ~p:0.5) in
      !ok && r.all_returned)

let prop_b_dominates_a_alg3 =
  (* C+ ⊆ C gives a ≤ b in Algorithm 3 too (used by Lemma 3.13). *)
  QCheck.Test.make ~name:"alg3: a_p <= b_p at every step" ~count:150 arb
    (fun (n, seed) ->
      let prng = Prng.create ~seed in
      let idents = Idents.random_permutation (Prng.split prng) n in
      let e = A3.E.create (Builders.cycle n) ~idents in
      let ok = ref true in
      A3.E.set_monitor e (fun e ->
          for p = 0 to n - 1 do
            match A3.E.status e p with
            | Status.Working ->
                let s = A3.E.state e p in
                if s.A3.a > s.A3.b then ok := false
            | Status.Asleep | Status.Returned _ -> ()
          done);
      ignore (A3.E.run e (Adversary.singletons (Prng.split prng)));
      !ok)

(* --- Lemma 4.6 dynamics under adversarial schedules -------------------- *)

let prop_rank_inf_is_absorbing =
  QCheck.Test.make ~name:"alg3: r = ∞ is absorbing and freezes X" ~count:150 arb
    (fun (n, seed) ->
      let prng = Prng.create ~seed in
      let idents = Idents.random_sparse (Prng.split prng) ~n ~universe:(max 64 (n * n)) in
      let e = A3.E.create (Builders.cycle n) ~idents in
      let frozen = Array.make n None in
      let ok = ref true in
      A3.E.set_monitor e (fun e ->
          for p = 0 to n - 1 do
            match A3.E.status e p with
            | Status.Working -> (
                let s = A3.E.state e p in
                match (frozen.(p), s.A3.r) with
                | None, Rank.Inf -> frozen.(p) <- Some s.A3.x
                | Some x, Rank.Inf -> if s.A3.x <> x then ok := false
                | Some _, Rank.Fin _ -> ok := false (* left ∞: impossible *)
                | None, Rank.Fin _ -> ())
            | Status.Asleep | Status.Returned _ -> ()
          done);
      ignore (A3.E.run e (Adversary.random_subsets (Prng.split prng) ~p:0.4));
      !ok)

let () =
  Alcotest.run "lemmas"
    [
      ( "solo progress (Lemma 3.3)",
        [ qtest prop_lemma_3_3_alg1; qtest prop_lemma_3_3_alg2; qtest prop_lemma_3_3_alg3 ] );
      ( "algorithm 3 synchronisation",
        [
          qtest prop_x_changes_with_r;
          qtest prop_b_dominates_a_alg3;
          qtest prop_rank_inf_is_absorbing;
        ] );
    ]
