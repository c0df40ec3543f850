(* Tests for Asyncolor_cv: binary decompositions, the iterated logarithm,
   and the identifier-reduction function f of Equation (6), including
   property-based tests of Lemmas 4.1, 4.2 and 4.3. *)

module Bits = Asyncolor_cv.Bits
module Logstar = Asyncolor_cv.Logstar
module Reduce = Asyncolor_cv.Reduce

let check = Alcotest.check
let qtest t = QCheck_alcotest.to_alcotest t

(* --- bits ----------------------------------------------------------- *)

let test_length () =
  check Alcotest.int "|0|" 0 (Bits.length 0);
  check Alcotest.int "|1|" 1 (Bits.length 1);
  check Alcotest.int "|2|" 2 (Bits.length 2);
  check Alcotest.int "|3|" 2 (Bits.length 3);
  check Alcotest.int "|4|" 3 (Bits.length 4);
  check Alcotest.int "|255|" 8 (Bits.length 255);
  check Alcotest.int "|256|" 9 (Bits.length 256)

let test_bit () =
  check Alcotest.int "5_0" 1 (Bits.bit 5 0);
  check Alcotest.int "5_1" 0 (Bits.bit 5 1);
  check Alcotest.int "5_2" 1 (Bits.bit 5 2);
  check Alcotest.int "5_3" 0 (Bits.bit 5 3);
  check Alcotest.int "beyond width" 0 (Bits.bit 5 100)

let test_first_differing_bit () =
  check Alcotest.(option int) "equal" None (Bits.first_differing_bit 12 12);
  check Alcotest.(option int) "5 vs 4" (Some 0) (Bits.first_differing_bit 5 4);
  check Alcotest.(option int) "5 vs 7" (Some 1) (Bits.first_differing_bit 5 7);
  check Alcotest.(option int) "8 vs 0" (Some 3) (Bits.first_differing_bit 8 0)

let test_negative_rejected () =
  Alcotest.check_raises "length" (Invalid_argument "Bits.length: negative input")
    (fun () -> ignore (Bits.length (-1)))

let prop_length_tight =
  QCheck.Test.make ~name:"2^(|z|-1) <= z < 2^|z| for z > 0"
    (Bounded.int_range 1 (1 lsl 40))
    (fun z ->
      let l = Bits.length z in
      (1 lsl (l - 1)) <= z && z < 1 lsl l)

let prop_bits_reconstruct =
  QCheck.Test.make ~name:"z = Σ z_k 2^k"
    QCheck.(int_range 0 (1 lsl 30))
    (fun z ->
      let l = Bits.length z in
      let sum = ref 0 in
      for k = 0 to l - 1 do
        sum := !sum + (Bits.bit z k lsl k)
      done;
      !sum = z)

let prop_first_diff_correct =
  QCheck.Test.make ~name:"first_differing_bit: bits agree below, differ at"
    QCheck.(pair (int_range 0 (1 lsl 30)) (int_range 0 (1 lsl 30)))
    (fun (x, y) ->
      match Bits.first_differing_bit x y with
      | None -> x = y
      | Some k ->
          Bits.bit x k <> Bits.bit y k
          && List.for_all (fun i -> Bits.bit x i = Bits.bit y i) (List.init k Fun.id))

(* --- log* ----------------------------------------------------------- *)

let test_log_star_values () =
  check Alcotest.int "log* 0" 0 (Logstar.log_star_int 0);
  check Alcotest.int "log* 1" 0 (Logstar.log_star_int 1);
  check Alcotest.int "log* 2" 1 (Logstar.log_star_int 2);
  check Alcotest.int "log* 3" 2 (Logstar.log_star_int 3);
  check Alcotest.int "log* 4" 2 (Logstar.log_star_int 4);
  check Alcotest.int "log* 5" 3 (Logstar.log_star_int 5);
  check Alcotest.int "log* 16" 3 (Logstar.log_star_int 16);
  check Alcotest.int "log* 17" 4 (Logstar.log_star_int 17);
  check Alcotest.int "log* 65536" 4 (Logstar.log_star_int 65536);
  check Alcotest.int "log* 65537" 5 (Logstar.log_star_int 65537);
  check Alcotest.int "log* max_int" 5 (Logstar.log_star_int max_int)

(* The tower 2^2^..^2 of k twos: the largest [x] with log* x = k. *)
let towers = [| 1; 2; 4; 16; 65536 |]

let test_tower_is_logstar_boundary () =
  for k = 0 to 4 do
    check Alcotest.int
      (Printf.sprintf "log*(tower %d) = %d" k k)
      k
      (Logstar.log_star_int towers.(k))
  done;
  for k = 1 to 4 do
    check Alcotest.int
      (Printf.sprintf "log*(tower %d + 1) = %d" k (k + 1))
      (k + 1)
      (Logstar.log_star_int (towers.(k) + 1))
  done

let prop_log_star_monotone =
  QCheck.Test.make ~name:"log* monotone"
    QCheck.(pair (int_range 0 (1 lsl 50)) (int_range 0 (1 lsl 50)))
    (fun (a, b) ->
      let x = min a b and y = max a b in
      Logstar.log_star_int x <= Logstar.log_star_int y)

(* --- reduce: the function f of Eq. (6) ------------------------------ *)

let test_f_worked_examples () =
  (* x = 1011b, y = 1001b: first differing bit is 1, x_1 = 1 -> 2*1+1 = 3 *)
  check Alcotest.int "11 vs 9" 3 (Reduce.f 11 9);
  (* equal values: i = |x| *)
  check Alcotest.int "equal 5,5" ((2 * 3) + 0) (Reduce.f 5 5);
  (* x = 100b, y = 0: differ at bit 2, but |y| = 0 cuts first: i=0, x_0=0 *)
  check Alcotest.int "4 vs 0" 0 (Reduce.f 4 0);
  (* x = 101b, y = 1b: first diff at bit 1? x=101,y=001 -> diff bit 2; |y|=1 -> i=1, x_1=0 *)
  check Alcotest.int "5 vs 1" 2 (Reduce.f 5 1)

let test_f_rejects_negative () =
  Alcotest.check_raises "negative" (Invalid_argument "Reduce.f: negative input")
    (fun () -> ignore (Reduce.f (-1) 3))

let prop_f_bound =
  QCheck.Test.make ~name:"f x y <= 2|x| + 1 (shrink bound)"
    QCheck.(pair (int_range 0 (1 lsl 50)) (int_range 0 (1 lsl 50)))
    (fun (x, y) -> Reduce.f x y <= (2 * Bits.length x) + 1)

let prop_lemma_4_2 =
  QCheck.Test.make ~name:"Lemma 4.2: x > y >= 10 => f x y < y" ~count:5_000
    QCheck.(pair (Bounded.int_range 10 (1 lsl 50)) (Bounded.int_range 10 (1 lsl 50)))
    (fun (a, b) ->
      QCheck.assume (a <> b);
      let x = max a b and y = min a b in
      Reduce.f x y < y)

let prop_lemma_4_3 =
  QCheck.Test.make ~name:"Lemma 4.3: x > y > z => f x y <> f y z" ~count:5_000
    QCheck.(triple (int_range 0 (1 lsl 50)) (int_range 0 (1 lsl 50)) (int_range 0 (1 lsl 50)))
    (fun (a, b, c) ->
      let x = max a (max b c) and z = min a (min b c) in
      let y = a + b + c - x - z in
      QCheck.assume (x > y && y > z);
      Reduce.f x y <> Reduce.f y z)

(* One reduction step along a chain: each element but the last is
   replaced by [f] of itself and its successor. *)
let rec iterate_f_chain = function
  | [] -> []
  | [ last ] -> [ last ]
  | x :: (y :: _ as rest) -> Reduce.f x y :: iterate_f_chain rest

let prop_chain_preserves_coloring =
  (* Internal elements of a decreasing chain stay pairwise distinct after
     one reduction step (Lemma 4.3).  The *last* element is kept unreduced
     and CAN collide with its reduced neighbour (e.g. f 22 6 = 6) — which
     is exactly why Algorithm 3 line 15 only adopts Y when it still
     undercuts the smaller neighbour.  We therefore check all adjacent
     pairs except the final one. *)
  QCheck.Test.make ~name:"monotone chain: f-step keeps internal adjacents distinct"
    ~count:1_000
    QCheck.(list_of_size (Gen.int_range 3 12) (int_range 0 10_000))
    (fun l ->
      let chain = List.sort_uniq compare l |> List.rev in
      QCheck.assume (List.length chain >= 3);
      let reduced = iterate_f_chain chain in
      let rec internal_distinct = function
        | a :: (b :: _ :: _ as rest) -> a <> b && internal_distinct rest
        | _ -> true
      in
      internal_distinct reduced)

let test_boundary_collision_motivates_guard () =
  (* The concrete collision documented above: the chain [x; 22; 6] reduces
     22 to f(22,6) = 6, colliding with the kept minimum — Algorithm 3's
     "if Y < min(X_q, X_q')" guard exists precisely to refuse this. *)
  check Alcotest.int "f 22 6 = 6" 6 (Reduce.f 22 6);
  check Alcotest.bool "guard would refuse: not (6 < 6)" false (Reduce.f 22 6 < 6)

let test_iterations_to_small () =
  check Alcotest.int "already small" 0 (Reduce.iterations_to_small 9);
  check Alcotest.int "10 -> 9" 1 (Reduce.iterations_to_small 10);
  check Alcotest.bool "huge converges fast" true
    (Reduce.iterations_to_small max_int <= 5)

let prop_lemma_4_1 =
  QCheck.Test.make ~name:"Lemma 4.1: iterations <= 4 log* x + 4"
    QCheck.(int_range 0 (1 lsl 60))
    (fun x ->
      Reduce.iterations_to_small x <= (4 * Logstar.log_star_int x) + 4)

let () =
  Alcotest.run "cv"
    [
      ( "bits",
        [
          Alcotest.test_case "length" `Quick test_length;
          Alcotest.test_case "bit" `Quick test_bit;
          Alcotest.test_case "first differing bit" `Quick test_first_differing_bit;
          Alcotest.test_case "negative rejected" `Quick test_negative_rejected;
          qtest prop_length_tight;
          qtest prop_bits_reconstruct;
          qtest prop_first_diff_correct;
        ] );
      ( "logstar",
        [
          Alcotest.test_case "values" `Quick test_log_star_values;
          Alcotest.test_case "tower boundary" `Quick test_tower_is_logstar_boundary;
          qtest prop_log_star_monotone;
        ] );
      ( "reduce",
        [
          Alcotest.test_case "worked examples" `Quick test_f_worked_examples;
          Alcotest.test_case "negative rejected" `Quick test_f_rejects_negative;
          Alcotest.test_case "iterations_to_small" `Quick test_iterations_to_small;
          Alcotest.test_case "boundary collision motivates line-15 guard" `Quick
            test_boundary_collision_motivates_guard;
          qtest prop_f_bound;
          qtest prop_lemma_4_2;
          qtest prop_lemma_4_3;
          qtest prop_chain_preserves_coloring;
          qtest prop_lemma_4_1;
        ] );
    ]
