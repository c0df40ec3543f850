(* Unit and property tests for Asyncolor_util: the SplitMix64 PRNG, the
   minimum-excludant helper, the executor and the explorer's stores. *)

module Prng = Asyncolor_util.Prng
module Mex = Asyncolor_util.Mex

let check = Alcotest.check
let qtest t = QCheck_alcotest.to_alcotest t

(* --- Prng ---------------------------------------------------------- *)

let test_determinism () =
  let a = Prng.create ~seed:123 and b = Prng.create ~seed:123 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let da = List.init 8 (fun _ -> Prng.bits64 a) in
  let db = List.init 8 (fun _ -> Prng.bits64 b) in
  check Alcotest.bool "different seeds differ" true (da <> db)

let test_split_independent () =
  let a = Prng.create ~seed:5 in
  let b = Prng.split a in
  let xa = Prng.bits64 a and xb = Prng.bits64 b in
  check Alcotest.bool "split streams differ" true (xa <> xb)

(* Known answers: the SplitMix64 stream is fixed by this implementation
   (the experiment tables, the fuzzer's seeds and every churn schedule
   are functions of it), so pin actual values, not only self-consistency.
   Any change to the state representation must reproduce them exactly. *)
let seed1_bits64 =
  [
    0xbfef8030ddc2d772L;
    0x5f552ce482f2aa47L;
    0x70335fc3daf3d8a7L;
    0xf440fe3b62c79d2cL;
    0x33ba2f29e7c168bbL;
    0x98843f48a94b7866L;
    0x74ad4c24d41a25f8L;
    0x2f9a1f13648eab6eL;
  ]

let test_known_bits64 () =
  let p = Prng.create ~seed:1 in
  List.iter
    (fun want -> check Alcotest.int64 "seed 1 bits64" want (Prng.bits64 p))
    seed1_bits64;
  check Alcotest.int64 "negative seed" 0xa39b91cb5ecb1a80L
    (Prng.bits64 (Prng.create ~seed:(-7)));
  check Alcotest.int64 "max_int seed" 0x2de2ce032c245fa7L
    (Prng.bits64 (Prng.create ~seed:max_int))

let test_known_split () =
  let p = Prng.create ~seed:1 in
  let c = Prng.split p in
  List.iter
    (fun want -> check Alcotest.int64 "split child bits64" want (Prng.bits64 c))
    [
      0xf0e0e7be2fcf87edL;
      0xca7e1c9ef3f43d32L;
      0x477203fc7af79e35L;
      0x1bb4d534b5bbc443L;
      0x1cb4822bf3c03b88L;
      0x67171526d1674f9cL;
      0xaa4d8b94d3d2f62cL;
      0xdb6527529b9f36d1L;
    ];
  (* the split consumed exactly one draw of the parent *)
  check Alcotest.int64 "parent resumes" (List.nth seed1_bits64 1) (Prng.bits64 p)

let test_known_draws () =
  let p = Prng.create ~seed:42 in
  check
    Alcotest.(list int)
    "int 1000" [ 473; 191; 141; 366 ]
    (List.init 4 (fun _ -> Prng.int p 1000));
  check Alcotest.(list int) "int_in -5 5" [ -4; 5 ]
    (List.init 2 (fun _ -> Prng.int_in p (-5) 5));
  check
    Alcotest.(list bool)
    "bool"
    [ true; false; true; true; false; false; false; false ]
    (List.init 8 (fun _ -> Prng.bool p));
  check
    Alcotest.(list (float 0.0))
    "float 1.0"
    [ 0x1.36f1f7e8c90ap-5; 0x1.b53d1af09b619p-1; 0x1.158ab517a8cap-4 ]
    (List.init 3 (fun _ -> Prng.float p 1.0));
  check Alcotest.int "int max_int" 4607041891190626162
    (Prng.int (Prng.create ~seed:1) max_int)

(* [bool_mask] is a loop of [bool] calls, coin for coin: same heads,
   same number of draws consumed (so the streams stay in step). *)
let prop_bool_mask_matches_bool =
  QCheck.Test.make ~name:"bool_mask = one bool per set bit, lowest first"
    ~count:500
    QCheck.(pair small_int int)
    (fun (seed, m) ->
      let a = Prng.create ~seed and b = Prng.create ~seed in
      let want = ref 0 and rest = ref m in
      while !rest <> 0 do
        let low = !rest land - !rest in
        rest := !rest lxor low;
        if Prng.bool a then want := !want lor low
      done;
      Prng.bool_mask b m = !want && Prng.bits64 a = Prng.bits64 b)

let test_int_bounds () =
  let p = Prng.create ~seed:7 in
  for _ = 1 to 10_000 do
    let v = Prng.int p 13 in
    if v < 0 || v >= 13 then Alcotest.failf "out of bounds: %d" v
  done

let test_int_invalid () =
  let p = Prng.create ~seed:7 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int p 0))

let test_int_covers_range () =
  let p = Prng.create ~seed:11 in
  let seen = Array.make 6 false in
  for _ = 1 to 1_000 do
    seen.(Prng.int p 6) <- true
  done;
  check Alcotest.bool "all values hit" true (Array.for_all Fun.id seen)

let test_int_in () =
  let p = Prng.create ~seed:3 in
  for _ = 1 to 1_000 do
    let v = Prng.int_in p (-5) 5 in
    if v < -5 || v > 5 then Alcotest.failf "out of range: %d" v
  done;
  check Alcotest.int "singleton range" 4 (Prng.int_in p 4 4)

let test_float_bounds () =
  let p = Prng.create ~seed:17 in
  for _ = 1 to 10_000 do
    let v = Prng.float p 1.0 in
    if v < 0.0 || v >= 1.0 then Alcotest.failf "float out of bounds: %f" v
  done

let test_float_mean () =
  let p = Prng.create ~seed:23 in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Prng.float p 1.0
  done;
  let mean = !sum /. float_of_int n in
  check Alcotest.bool "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.02)

let test_bool_balance () =
  let p = Prng.create ~seed:29 in
  let trues = ref 0 in
  for _ = 1 to 10_000 do
    if Prng.bool p then incr trues
  done;
  check Alcotest.bool "roughly balanced" true (abs (!trues - 5_000) < 500)

let test_shuffle_is_permutation () =
  let p = Prng.create ~seed:31 in
  let a = Array.init 100 Fun.id in
  Prng.shuffle p a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "permutation" (Array.init 100 Fun.id) sorted

let test_shuffle_actually_moves () =
  let p = Prng.create ~seed:37 in
  let a = Array.init 100 Fun.id in
  Prng.shuffle p a;
  check Alcotest.bool "not identity" true (a <> Array.init 100 Fun.id)

let test_sample_without_replacement () =
  let p = Prng.create ~seed:43 in
  for _ = 1 to 200 do
    let l = Prng.sample_without_replacement p 5 20 in
    check Alcotest.int "size" 5 (List.length l);
    check Alcotest.bool "sorted distinct" true (List.sort_uniq compare l = l);
    List.iter (fun v -> check Alcotest.bool "range" true (v >= 0 && v < 20)) l
  done;
  check Alcotest.(list int) "k = n" [ 0; 1; 2 ] (Prng.sample_without_replacement p 3 3);
  check Alcotest.(list int) "k = 0" [] (Prng.sample_without_replacement p 0 5)

let prop_sample_distinct =
  QCheck.Test.make ~name:"sample_without_replacement: distinct, in range"
    QCheck.(pair small_nat small_nat)
    (fun (k, extra) ->
      let n = k + extra in
      let p = Prng.create ~seed:(k + (extra * 1000)) in
      let l = Prng.sample_without_replacement p k n in
      List.length l = k
      && List.sort_uniq compare l = l
      && List.for_all (fun v -> v >= 0 && v < n) l)

(* --- Mex ----------------------------------------------------------- *)

let test_mex_cases () =
  check Alcotest.int "empty" 0 (Mex.of_list []);
  check Alcotest.int "0" 1 (Mex.of_list [ 0 ]);
  check Alcotest.int "gap" 1 (Mex.of_list [ 0; 2; 3 ]);
  check Alcotest.int "dense" 4 (Mex.of_list [ 3; 1; 0; 2 ]);
  check Alcotest.int "dups" 2 (Mex.of_list [ 0; 0; 1; 1 ]);
  check Alcotest.int "negatives ignored" 1 (Mex.of_list [ -3; 0; -1 ]);
  check Alcotest.int "only negatives" 0 (Mex.of_list [ -3; -1 ])

let prop_mex_not_member =
  QCheck.Test.make ~name:"mex s ∉ s"
    QCheck.(list small_nat)
    (fun s -> not (List.mem (Mex.of_list s) s))

let prop_mex_minimal =
  QCheck.Test.make ~name:"∀ k < mex s, k ∈ s"
    QCheck.(list small_nat)
    (fun s ->
      let m = Mex.of_list s in
      List.for_all (fun k -> List.mem k s) (List.init m Fun.id))

let test_mex_sorted () =
  check Alcotest.(list int) "dense, gap, dups, gap after dups" [ 3; 2; 3; 1 ]
    (List.map Mex.of_list [ [ 0; 1; 2 ]; [ 0; 1; 4; 9 ]; [ 0; 1; 1; 2; 2 ]; [ 0; 0; 0; 2 ] ])

let prop_mex_order_free =
  QCheck.Test.make ~name:"mex ignores order and repeats"
    QCheck.(list small_nat)
    (fun s ->
      let m = Mex.of_list s in
      Mex.of_list (List.rev s) = m && Mex.of_list (List.sort_uniq compare s @ s) = m)

(* --- Mask ---------------------------------------------------------- *)

module Mask = Asyncolor_util.Mask

let test_mask_popcount () =
  check Alcotest.(list int) "popcounts" [ 0; 1; 5; 62 ]
    (List.map Mask.popcount [ 0; 0b1000; 0b1011_0101; max_int ])

let test_mask_lowest_bit () =
  for i = 0 to 61 do
    check Alcotest.int "bit alone" i (Mask.lowest_bit (1 lsl i));
    check Alcotest.int "bits above" i (Mask.lowest_bit (max_int land lnot ((1 lsl i) - 1)))
  done

let test_mask_nth_bit () =
  check Alcotest.(list int) "every k" [ 1; 2; 5; 7 ] (List.init 4 (Mask.nth_bit 0b1010_0110));
  check Alcotest.int "top bit" 61 (Mask.nth_bit max_int 61)

let prop_mask_bit_walk =
  QCheck.Test.make ~name:"Mask: popcount, lowest_bit, nth_bit = a bit scan" ~count:500
    QCheck.(map (fun x -> x land max_int) int)
    (fun m ->
      let bits = List.filter (fun i -> m land (1 lsl i) <> 0) (List.init 62 Fun.id) in
      List.init (Mask.popcount m) (Mask.nth_bit m) = bits
      && (m = 0 || Mask.lowest_bit m = List.hd bits))

(* --- Vec ----------------------------------------------------------- *)

module Vec = Asyncolor_util.Vec

let test_vec_push_get () =
  let v = Vec.create ~capacity:2 ~dummy:(-1) () in
  for i = 0 to 99 do
    Vec.push v (i * i)
  done;
  check Alcotest.int "length" 100 (Vec.length v);
  for i = 0 to 99 do
    check Alcotest.int "get" (i * i) (Vec.get v i)
  done

let test_vec_bounds () =
  let v = Vec.create ~dummy:0 () in
  Vec.push v 7;
  Alcotest.check_raises "get out of bounds"
    (Invalid_argument "Vec.get: index out of bounds") (fun () ->
      ignore (Vec.get v 1));
  Alcotest.check_raises "set out of bounds"
    (Invalid_argument "Vec.set: index out of bounds") (fun () -> Vec.set v 1 0)

let test_vec_to_array () =
  let v = Vec.create ~dummy:"" () in
  List.iter (Vec.push v) [ "a"; "b"; "c" ];
  Alcotest.(check (array string)) "to_array" [| "a"; "b"; "c" |] (Vec.to_array v)

let test_vec_pop () =
  let v = Vec.create ~capacity:1 ~dummy:0 () in
  List.iter (Vec.push v) [ 1; 2; 3 ];
  check Alcotest.int "last pushed first" 3 (Vec.pop v);
  Vec.push v 9;
  check Alcotest.(array int) "push after pop" [| 1; 2; 9 |] (Vec.to_array v);
  Alcotest.check_raises "pop on empty" (Invalid_argument "Vec.pop: empty") (fun () ->
      List.iter (fun _ -> ignore (Vec.pop v)) [ 1; 2; 3; 4 ])

(* Pushes (non-negative) and pops (-1) against a stack. *)
let prop_vec_oracle =
  QCheck.Test.make ~name:"Vec: pushes and pops match a stack" ~count:300
    QCheck.(list (int_range (-1) 50))
    (fun program ->
      let v = Vec.create ~capacity:1 ~dummy:(-99) () in
      let step stack op =
        match (op, stack) with
        | -1, [] -> Some []
        | -1, x :: rest -> if Vec.pop v = x then Some rest else None
        | x, _ -> Vec.push v x; Some (x :: stack)
      in
      match List.fold_left (fun s op -> Option.bind s (fun s -> step s op)) (Some []) program with
      | Some stack -> Vec.to_array v = Array.of_list (List.rev stack)
      | None -> false)

(* --- Batches on the Synchronous executor policy --------------------- *)

module Executor = Asyncolor_util.Executor

let with_pool ~jobs f =
  Executor.with_executor ~policy:Executor.Synchronous ~jobs f

let test_pool_map_ordering () =
  with_pool ~jobs:4 (fun pool ->
      let input = Array.init 1_000 Fun.id in
      let out = Executor.map pool (fun x -> x * x) input in
      Alcotest.(check (array int)) "squares in index order"
        (Array.map (fun x -> x * x) input)
        out)

let test_pool_sequential_matches_parallel () =
  let f x = (x * 7919) mod 104729 in
  let input = List.init 257 Fun.id in
  let seq = with_pool ~jobs:1 (fun p -> Executor.map_list p f input) in
  let par = with_pool ~jobs:4 (fun p -> Executor.map_list p f input) in
  Alcotest.(check (list int)) "jobs=1 and jobs=4 agree" seq par

let test_pool_reuse () =
  with_pool ~jobs:3 (fun pool ->
      for round = 1 to 5 do
        let out = Executor.map pool (fun x -> x + round) (Array.init 50 Fun.id) in
        Alcotest.(check (array int))
          (Printf.sprintf "round %d" round)
          (Array.init 50 (fun i -> i + round))
          out
      done)

exception Boom of int

let test_pool_exception_lowest_index () =
  (* Several items raise; the pool must deterministically rethrow the
     lowest-index failure, whatever domain hit it first. *)
  for _ = 1 to 10 do
    match
      with_pool ~jobs:4 (fun pool ->
          Executor.map pool
            (fun x -> if x mod 13 = 12 then raise (Boom x) else x)
            (Array.init 100 Fun.id))
    with
    | _ -> Alcotest.fail "expected Boom"
    | exception Boom x -> check Alcotest.int "lowest failing index" 12 x
  done

let test_pool_usable_after_exception () =
  with_pool ~jobs:4 (fun pool ->
      (try ignore (Executor.map pool (fun _ -> failwith "boom") [| 0; 1 |])
       with Failure _ -> ());
      let out = Executor.map pool Fun.id (Array.init 10 Fun.id) in
      Alcotest.(check (array int)) "pool survives a failed batch"
        (Array.init 10 Fun.id) out)

let test_pool_empty_and_jobs_clamp () =
  with_pool ~jobs:64 (fun pool ->
      Alcotest.(check (array int)) "empty input" [||] (Executor.map pool Fun.id [||]));
  check Alcotest.bool "default_jobs positive" true (Executor.default_jobs () >= 1)

let test_pool_fail_fast_sequential () =
  (* jobs = 1 drains strictly in index order, so fail-fast has a fully
     deterministic witness: items after the failing one never execute. *)
  let executed = Atomic.make 0 in
  with_pool ~jobs:1 (fun pool ->
      match
        Executor.map pool
          (fun x ->
            Atomic.incr executed;
            if x = 5 then raise (Boom x))
          (Array.init 100 Fun.id)
      with
      | _ -> Alcotest.fail "expected an error"
      | exception Boom i ->
          check Alcotest.int "the failing item's exception" 5 i;
          check Alcotest.int "items 0..5 executed, tail skipped" 6
            (Atomic.get executed))

let test_pool_fail_fast_parallel () =
  (* With several domains the skipped tail is not exact, but cancellation
     must still cut deep into a 200-item batch when item 10 dies at once
     while every other item takes ~2ms. *)
  let executed = Atomic.make 0 in
  with_pool ~jobs:4 (fun pool ->
      match
        Executor.map pool
          (fun x ->
            Atomic.incr executed;
            if x = 10 then raise (Boom x) else Unix.sleepf 0.002)
          (Array.init 200 Fun.id)
      with
      | _ -> Alcotest.fail "expected an error"
      | exception Boom i ->
          check Alcotest.int "failing index" 10 i;
          check Alcotest.bool "most of the batch was cancelled" true
            (Atomic.get executed < 100))

let test_pool_shutdown_after_failed_batch () =
  (* with_pool's Fun.protect shuts the pool down while the failed batch's
     error is propagating; this must terminate (no deadlocked worker
     waiting on work_available) and surface the original exception. *)
  for _ = 1 to 20 do
    match
      with_pool ~jobs:4 (fun pool ->
          Executor.map pool
            (fun x -> if x >= 2 then raise (Boom x) else x)
            (Array.init 64 Fun.id))
    with
    | _ -> Alcotest.fail "expected Boom"
    | exception Boom x -> check Alcotest.int "lowest index" 2 x
  done

(* --- Executor: the one queue ------------------------------------------ *)

module Obs = Asyncolor_obs.Obs

let metric obs name = Option.value ~default:0 (List.assoc_opt name (Obs.metrics obs))

let test_executor_reverse_await () =
  (* 20,000 tasks on four domains, awaited newest first: the caller's
     [await] helps from the oldest end while three workers drain the
     same queue, and each task still runs exactly once. *)
  let total = 20_000 in
  let runs = Array.init total (fun _ -> Atomic.make 0) in
  Executor.with_executor ~jobs:4 (fun exec ->
      let futs =
        Array.init total (fun i ->
            Executor.submit exec (fun () ->
                Atomic.incr runs.(i);
                i))
      in
      for i = total - 1 downto 0 do
        check Alcotest.int "result of its own task" i (Executor.await futs.(i))
      done);
  check Alcotest.bool "every task ran exactly once" true
    (Array.for_all (fun r -> Atomic.get r = 1) runs)

let test_executor_nested_await () =
  (* A task that submits a task of its own and awaits it completes: the
     awaiting domain, worker or caller, runs queued tasks while it
     waits. *)
  Executor.with_executor ~jobs:4 (fun exec ->
      let outer =
        Array.init 200 (fun i ->
            Executor.submit exec (fun () ->
                let inner = Executor.submit exec (fun () -> i * i) in
                Executor.await inner + 1))
      in
      Array.iteri
        (fun i fut -> check Alcotest.int "nested result" ((i * i) + 1) (Executor.await fut))
        outer)

let test_executor_idle_shutdown () =
  (* Workers asleep on an empty queue, with and without a task run first,
     are woken and joined by [shutdown] every time. *)
  for round = 1 to 200 do
    Executor.with_executor ~jobs:4 (fun exec ->
        if round mod 2 = 0 then
          check Alcotest.int "task result" round
            (Executor.await (Executor.submit exec (fun () -> round))))
  done

(* Spin until [flag] is set, failing after [seconds]: the caller never
   awaits, so only a spawned worker can set it. *)
let wait_for_worker ~seconds flag =
  let deadline = Unix.gettimeofday () +. seconds in
  while not (Atomic.get flag) do
    if Unix.gettimeofday () > deadline then
      Alcotest.fail "no worker took a task the caller left alone";
    Domain.cpu_relax ()
  done

let test_executor_workers_take_work () =
  (* A submitted task wakes a sleeping worker, and a worker woken while
     the caller emptied the queue goes back to sleep rather than
     leaving: after each helped batch, and a pause that lets the worker
     fall asleep, a task the caller does not await still runs. *)
  Executor.with_executor ~jobs:2 (fun exec ->
      for round = 1 to 50 do
        ignore (Executor.map exec (fun x -> x + round) (Array.init 8 Fun.id));
        Unix.sleepf 0.002;
        let ran = Atomic.make false in
        let fut = Executor.submit exec (fun () -> Atomic.set ran true) in
        wait_for_worker ~seconds:10.0 ran;
        Executor.await fut
      done)

let test_executor_steals_counted () =
  (* [exec.steals] counts tasks a spawned worker took: none without
     workers, and never more than the tasks run. *)
  List.iter
    (fun (policy, jobs) ->
      let obs = Obs.create () in
      Executor.with_executor ~obs ~policy ~jobs (fun exec ->
          ignore (Executor.map exec (fun x -> x * 2) (Array.init 500 Fun.id)));
      let tasks = metric obs "exec.tasks" and steals = metric obs "exec.steals" in
      check Alcotest.int (Executor.policy_name policy ^ " tasks") 500 tasks;
      if policy = Executor.Serial then
        check Alcotest.int "no steals without workers" 0 steals
      else
        check Alcotest.bool
          (Executor.policy_name policy ^ " steals <= tasks")
          true (steals <= tasks))
    [
      (Executor.Serial, 4);
      (Executor.Synchronous, 4);
      (Executor.asynchronous ~jobs:2 (), 2);
    ]

(* --- Executor: policies, clamping, windows --------------------------- *)

let test_executor_jobs_clamped () =
  (* Satellite guarantee: jobs <= 0 is sanitised once, at the executor
     boundary, for every client. *)
  List.iter
    (fun jobs ->
      Executor.with_executor ~jobs (fun exec ->
          check Alcotest.int
            (Printf.sprintf "jobs:%d clamps to 1" jobs)
            1 (Executor.jobs exec)))
    [ 0; -3 ];
  Executor.with_executor ~policy:Executor.Serial ~jobs:8 (fun exec ->
      check Alcotest.int "Serial forces jobs=1" 1 (Executor.jobs exec));
  with_pool ~jobs:0 (fun pool ->
      check Alcotest.int "Synchronous inherits the clamp" 1
        (Executor.jobs pool));
  with_pool ~jobs:(-7) (fun pool ->
      check Alcotest.int "negative jobs too" 1 (Executor.jobs pool))

let test_default_policy () =
  (* [create] is the one place a policy is chosen for a caller that
     gives none: Serial at one job, else Asynchronous at kappa 0.5. *)
  Executor.with_executor ~jobs:1 (fun exec ->
      check Alcotest.bool "jobs:1 runs Serial" true
        (Executor.policy exec = Executor.Serial));
  Executor.with_executor ~jobs:2 (fun exec ->
      match Executor.policy exec with
      | Executor.Asynchronous { kappa; max_active } ->
          check (Alcotest.float 0.0) "default kappa" 0.5 kappa;
          check Alcotest.int "window 4*jobs" 8 max_active
      | p -> Alcotest.fail ("jobs:2 runs " ^ Executor.policy_name p));
  (match Executor.asynchronous ~kappa:1.5 ~jobs:2 () with
  | Executor.Asynchronous { kappa; _ } ->
      check (Alcotest.float 0.0) "kappa clamped to 1" 1.0 kappa
  | _ -> Alcotest.fail "asynchronous must build Asynchronous");
  check (Alcotest.float 0.0) "Synchronous is a full barrier" 1.0
    (Executor.policy_kappa Executor.Synchronous);
  check (Alcotest.float 0.0) "kappa surfaces from Asynchronous" 0.25
    (Executor.policy_kappa (Executor.asynchronous ~kappa:0.25 ~jobs:2 ()))

let test_executor_policies_agree () =
  let input = Array.init 300 Fun.id in
  let expected = Array.map (fun x -> x * 3) input in
  List.iter
    (fun policy ->
      Executor.with_executor ~policy ~jobs:4 (fun exec ->
          Alcotest.(check (array int))
            (Executor.policy_name policy ^ " output")
            expected
            (Executor.map exec (fun x -> x * 3) input)))
    [
      Executor.Serial;
      Executor.Synchronous;
      Executor.asynchronous ~kappa:0.5 ~jobs:4 ();
      Executor.asynchronous ~jobs:1 ();
    ]

let test_executor_backpressure_bounded () =
  (* Slow producer feeding a fast consumer through a 4-task window (the
     4 * jobs window of [asynchronous ~jobs:1], run on two domains): the
     in-flight gauge must never exceed the window and the window must
     actually have stalled submissions (the exec.backpressure counter). *)
  let obs = Obs.create () in
  Executor.with_executor ~obs ~policy:(Executor.asynchronous ~jobs:1 ())
    ~jobs:2
    (fun exec ->
      check Alcotest.int "window" 4 (Executor.stream_window exec);
      let out =
        Executor.map exec
          (fun x ->
            Unix.sleepf 0.001;
            x + 1)
          (Array.init 50 Fun.id)
      in
      Alcotest.(check (array int))
        "results intact under the window"
        (Array.init 50 (fun i -> i + 1))
        out);
  check Alcotest.bool "inflight stayed within the window" true
    (metric obs "exec.inflight_max" <= 4);
  check Alcotest.bool "window produced backpressure" true
    (metric obs "exec.backpressure" > 0);
  check Alcotest.int "every task ran exactly once" 50 (metric obs "exec.tasks")

let test_executor_async_failure_isolation () =
  (* Under the Asynchronous policy a poisoned item must cancel the rest
     of the batch (skipped items never call f) and still report the
     lowest failing index, deterministically. *)
  let executed = Atomic.make 0 in
  Executor.with_executor ~policy:(Executor.asynchronous ~jobs:1 ()) ~jobs:4
    (fun exec ->
      match
        Executor.map exec
          (fun x ->
            Atomic.incr executed;
            if x = 3 then raise (Boom x) else Unix.sleepf 0.001)
          (Array.init 100 Fun.id)
      with
      | _ -> Alcotest.fail "expected an error"
      | exception Boom i ->
          check Alcotest.int "lowest failing index" 3 i;
          check Alcotest.bool "tail of the batch was cancelled" true
            (Atomic.get executed < 50);
          (* the executor survives the poisoned batch *)
          Alcotest.(check (array int))
            "usable after cancellation"
            [| 0; 10; 20 |]
            (Executor.map exec (fun x -> x * 10) [| 0; 1; 2 |]))

let test_executor_submit_await_stream () =
  (* The future layer under the explorer: a FIFO stream of submissions
     awaited in order, mixing immediate and computed results. *)
  Executor.with_executor ~jobs:2 (fun exec ->
      let futs = List.init 200 (fun i -> Executor.submit exec (fun () -> i * i)) in
      List.iteri
        (fun i fut -> check Alcotest.int "in-order await" (i * i) (Executor.await fut))
        futs);
  Executor.with_executor ~jobs:2 (fun exec ->
      let fut = Executor.submit exec (fun () -> raise (Boom 7)) in
      match Executor.await fut with
      | exception Boom 7 -> ()
      | exception _ -> Alcotest.fail "wrong exception"
      | _ -> Alcotest.fail "expected the task's exception")

let test_executor_submit_after_shutdown () =
  let exec = Executor.with_executor ~jobs:2 Fun.id in
  match Executor.submit exec (fun () -> ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument after shutdown"

(* --- Executor: raising tasks never reach the worker loop ------------- *)

(* Spin enough that spawned workers get scheduled and take tasks before
   the caller drains the whole queue itself. *)
let slow f x =
  for _ = 1 to 10_000 do
    ignore (Sys.opaque_identity x)
  done;
  f x

let test_executor_raising_batches () =
  (* Every item of several batches raises inside an enabled [Obs.span] on
     whichever lane runs it.  [submit]'s wrapper must turn each exception
     into the future's result, so the pool still computes a clean batch
     exactly, and [with_executor] returning normally shows [shutdown]
     joined every worker domain without one re-raising. *)
  let obs = Obs.create () in
  let input = Array.init 400 Fun.id in
  let rounds = 5 in
  let out =
    Executor.with_executor ~obs ~policy:Executor.Synchronous ~jobs:4
      (fun exec ->
        for _ = 1 to rounds do
          let raise_boom i = raise (Boom i) in
          let futs =
            Array.map
              (fun i -> Executor.submit exec (fun () -> slow raise_boom i))
              input
          in
          Array.iteri
            (fun i fut ->
              match Executor.await fut with
              | exception Boom j when i = j -> ()
              | exception e -> Alcotest.fail (Printexc.to_string e)
              | () -> Alcotest.fail "a raising task returned")
            futs
        done;
        Executor.map exec (slow (fun x -> x * x)) input)
  in
  check (Alcotest.array Alcotest.int) "clean batch after raising ones"
    (Array.map (fun x -> x * x) input)
    out;
  let task_spans =
    List.filter (fun (r : Obs.span_record) -> r.r_name = "exec.task") (Obs.spans obs)
  in
  check Alcotest.int "every task ran under a span"
    ((rounds + 1) * Array.length input)
    (List.length task_spans)

(* --- Sharded_tbl ----------------------------------------------------- *)

module Int_tbl = Asyncolor_util.Sharded_tbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

let test_sharded_tbl_basics () =
  let t = Int_tbl.create ~shards:3 16 in
  for k = 0 to 999 do
    Int_tbl.add t k (k * 7)
  done;
  check Alcotest.(option int) "find_opt routes to the owner" (Some 4_900)
    (Int_tbl.find_opt t 700);
  check Alcotest.(option int) "absent key" None (Int_tbl.find_opt t 1_000)

let prop_sharded_tbl_oracle =
  QCheck.Test.make ~name:"Sharded_tbl: adds and lookups match a Hashtbl" ~count:200
    QCheck.(pair (int_range 1 9) (list (pair (int_range (-50) 50) small_nat)))
    (fun (shards, adds) ->
      let t = Int_tbl.create ~shards 4 and oracle = Hashtbl.create 16 in
      List.iter (fun (k, v) -> Int_tbl.add t k v; Hashtbl.add oracle k v) adds;
      List.for_all (fun k -> Int_tbl.find_opt t k = Hashtbl.find_opt oracle k)
        (List.init 101 (fun i -> i - 50)))

(* Every hash [16 * k] has the same low 4 bits, which the shards'
   [Hashtbl]s bucket on; the shard comes from the high bits. *)
module Aliased_tbl = Asyncolor_util.Sharded_tbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = 16 * k
end)

let test_sharded_tbl_high_bits () =
  let t = Aliased_tbl.create ~shards:16 16 in
  for k = 0 to 4_095 do Aliased_tbl.add t k (k + 1) done;
  check Alcotest.bool "every key found" true
    (List.for_all (fun k -> Aliased_tbl.find_opt t k = Some (k + 1)) (List.init 4_096 Fun.id));
  check Alcotest.(option int) "absent key" None (Aliased_tbl.find_opt t 4_096)

(* --- Intern ------------------------------------------------------------- *)

module Intern = Asyncolor_util.Intern

(* Interning and decoding whole int sequences through the store's byte
   encoding, [Varint.put_seq]: what the explorer does with its keys. *)
let intern t ~hash a =
  let module V = Asyncolor_util.Level_log.Varint in
  let b = Bytes.create (V.seq_size a) in
  Intern.intern_encoded t ~hash b ~pos:0 ~len:(V.put_seq b 0 a)

let get t id =
  let a = Array.make (Intern.seq_length t id) 0 in
  Intern.blit t id a;
  a

(* Elements that stress the varint coding: 0, both signs, one- and
   multi-byte values and the extremes whose zigzag uses bit 62. *)
let intern_elt =
  QCheck.Gen.(
    frequency
      [
        (4, int_range (-3) 3);
        (2, int_range (-70_000) 70_000);
        (1, oneofl [ 0; max_int; min_int; max_int - 1; min_int + 1; 63; 64; -64; -65 ]);
        (1, int);
      ])

(* A small pool drawn from many times, so sequences repeat, share
   prefixes, and include the empty one. *)
let intern_ops =
  QCheck.make
    ~print:QCheck.Print.(list (array int))
    QCheck.Gen.(
      list_size (int_range 1 12) (array_size (int_range 0 6) intern_elt)
      >>= fun pool ->
      let pool = Array.of_list ([||] :: pool) in
      list_size (int_range 0 200) (oneofa pool))

(* Interns every sequence and checks it against a [Hashtbl] oracle: a
   known sequence gets its first id back, a new one the next dense id,
   and [get] decodes every id. *)
let intern_matches_oracle ~hash ops =
  let t = Intern.create ~capacity:1 () in
  let oracle = Hashtbl.create 16 in
  let ok =
    List.for_all
      (fun a ->
        let expected =
          match Hashtbl.find_opt oracle a with
          | Some id -> id
          | None ->
              let id = Hashtbl.length oracle in
              Hashtbl.add oracle a id;
              id
        in
        intern t ~hash:(hash a) a = expected)
      ops
  in
  ok
  && Intern.length t = Hashtbl.length oracle
  && Hashtbl.fold (fun a id acc -> acc && get t id = a) oracle true

let prop_intern_oracle =
  QCheck.Test.make ~name:"Intern: ids and payloads match a Hashtbl oracle"
    ~count:300 intern_ops
    (intern_matches_oracle ~hash:Hashtbl.hash)

let prop_intern_constant_hash =
  QCheck.Test.make
    ~name:"Intern: constant hash, tag and bytes alone decide" ~count:300
    intern_ops
    (intern_matches_oracle ~hash:(fun _ -> 42))

(* [intern_encoded] against [intern] over one stream of sequences: each
   encoded where the last one ended (after a junk byte, so slices do not
   start at 0), and interned as slices of the stream into one store and
   as arrays into another.  Same ids, same images. *)
let encoded_matches_intern ~hash ops =
  let module V = Asyncolor_util.Level_log.Varint in
  let by_array = Intern.create ~capacity:1 () in
  let by_bytes = Intern.create ~capacity:1 () in
  let stream =
    Bytes.create
      (List.fold_left (fun acc a -> acc + 1 + V.seq_size a) 0 ops)
  in
  let pos = ref 0 in
  List.for_all
    (fun a ->
      Bytes.set stream !pos '\255';
      let at = !pos + 1 in
      pos := V.put_seq stream at a;
      Intern.intern_encoded by_bytes ~hash:(hash a) stream ~pos:at
        ~len:(!pos - at)
      = intern by_array ~hash:(hash a) a)
    ops
  && Intern.image by_bytes = Intern.image by_array

let prop_intern_encoded =
  QCheck.Test.make ~name:"Intern: encoded slices intern as their arrays"
    ~count:300 intern_ops
    (encoded_matches_intern ~hash:Hashtbl.hash)

let prop_intern_encoded_constant_hash =
  QCheck.Test.make
    ~name:"Intern: encoded slices, constant hash" ~count:300 intern_ops
    (encoded_matches_intern ~hash:(fun _ -> 42))

(* Enough sequences to fill several arena chunks and grow the slots. *)
let test_intern_encoded_chunks () =
  let seqs =
    List.init 30_000 (fun i -> Array.init (1 + (i mod 7)) (fun j -> (i * 131) - j))
  in
  check Alcotest.bool "ids and image across chunks" true
    (encoded_matches_intern ~hash:Hashtbl.hash (seqs @ List.rev seqs))

let test_intern_dense_ids () =
  let t = Intern.create () in
  let seqs =
    [| [| 1; 2; 3 |]; [||]; [| min_int; max_int; 0; -1 |]; [| 1; 2 |] |]
  in
  Array.iteri
    (fun i a ->
      check Alcotest.int "next dense id" i (intern t ~hash:7 a))
    seqs;
  check Alcotest.int "length" 4 (Intern.length t);
  Array.iteri
    (fun i a -> check Alcotest.(array int) "get (intern s) = s" a (get t i))
    seqs;
  check Alcotest.int "re-interning returns the first id" 2
    (intern t ~hash:7 [| min_int; max_int; 0; -1 |]);
  (* Same hash, one sequence a prefix of another: only the stored length
     tells them apart. *)
  check Alcotest.int "proper prefix is new" 4 (intern t ~hash:7 [| 1 |]);
  check Alcotest.int "proper extension is new" 5
    (intern t ~hash:7 [| 1; 2; 3; 4 |]);
  Alcotest.check_raises "get out of range"
    (Invalid_argument "Intern.seq_length: id out of range") (fun () ->
      ignore (get t 6));
  Alcotest.check_raises "slice past its bytes"
    (Invalid_argument "Intern.intern_encoded: slice outside its bytes") (fun () ->
      ignore (Intern.intern_encoded t ~hash:7 (Bytes.make 3 '\000') ~pos:2 ~len:2))

(* From the smallest table, through many slot-array doublings, offset
   growths and arena chunks, plus one sequence larger than a chunk. *)
let test_intern_growth () =
  let t = Intern.create ~capacity:1 () in
  let n = 50_000 in
  let seq i = [| i; -i; i * 1_000_003; i land 7 |] in
  let hash a = Hashtbl.hash a in
  for i = 0 to n - 1 do
    if intern t ~hash:(hash (seq i)) (seq i) <> i then
      Alcotest.failf "sequence %d got another id" i
  done;
  let big = Array.init 20_000 (fun i -> if i land 1 = 0 then max_int else i) in
  check Alcotest.int "oversized sequence interned" n
    (intern t ~hash:1 big);
  check Alcotest.(array int) "oversized sequence decodes" big (get t n);
  for i = 0 to n - 1 do
    let a = seq i in
    if intern t ~hash:(hash a) a <> i || get t i <> a then
      Alcotest.failf "sequence %d lost across growth" i
  done;
  check Alcotest.int "new after growth" (n + 1)
    (intern t ~hash:(hash (seq n)) (seq n));
  check Alcotest.bool
    (Printf.sprintf "compact: %d bytes for %d sequences" (Intern.bytes t) n)
    true
    (Intern.bytes t < 80 * n)

(* Distinct, well-spread hashes: a lookup compares bytes only where a
   slot's tag matches, so misses compare nothing and each hit once. *)
let test_intern_tag_filters () =
  let t = Intern.create ~capacity:1 () in
  let hash i = i * 0x2545F4914F6CDD1D in
  let n = 2_000 in
  for i = 0 to n - 1 do
    ignore (intern t ~hash:(hash i) [| i |])
  done;
  check Alcotest.int "misses compare no bytes" 0 (Intern.compares t);
  for i = 0 to n - 1 do
    ignore (intern t ~hash:(hash i) [| i |])
  done;
  check Alcotest.int "each hit compares once" n (Intern.compares t)

(* A store rebuilt from its image (marshalled, as a checkpoint does) has
   the same ids and sequences, finds every old sequence, and gives new
   ones the next ids; [blit] decodes like [get]. *)
let prop_intern_image =
  QCheck.Test.make ~name:"Intern: of_image (image t) is t" ~count:200
    (QCheck.pair intern_ops intern_ops) (fun (before, after) ->
      let t = Intern.create ~capacity:1 () in
      List.iter (fun a -> ignore (intern t ~hash:(Hashtbl.hash a) a)) before;
      let (image : Intern.image) =
        Marshal.from_string (Marshal.to_string (Intern.image t) []) 0
      in
      let u = Intern.of_image image ~hash:Hashtbl.hash in
      let same_ids =
        Intern.length u = Intern.length t
        && List.for_all
             (fun id ->
               let buf = Array.make (Intern.seq_length t id + 1) 7 in
               Intern.blit u id buf;
               get u id = get t id
               && Array.sub buf 0 (Intern.seq_length u id) = get t id)
             (List.init (Intern.length t) Fun.id)
      in
      (* both stores take the same further operations to the same ids *)
      same_ids
      && List.for_all
           (fun a ->
             intern u ~hash:(Hashtbl.hash a) a
             = intern t ~hash:(Hashtbl.hash a) a)
           (before @ after))

(* [seq]'s encoding at offset 5 of a buffer with junk bytes before it
   and zero bytes after it, interned from there.  A compare that reads
   before the slice meets the junk; one that reads past it meets the
   zeros that also follow the arena's last sequence, and so takes a
   longer match for a different one. *)
let intern_slice t ~hash seq =
  let module V = Asyncolor_util.Level_log.Varint in
  let len = V.seq_size seq in
  let b = Bytes.make (len + 10) '\000' in
  Bytes.fill b 0 5 '\255';
  ignore (V.put_seq b 5 seq : int);
  Intern.intern_encoded t ~hash b ~pos:5 ~len

(* The hit compare reads eight bytes at a time, then the tail.  For
   every byte length 1..40, a stored sequence of one-byte varints and
   one variant per position that differs from it at that byte alone (at
   byte 0, the length, a variant of the same byte length whose first
   difference is there), all under one hash, so the compare alone tells
   them apart: each variant is new, and both are found again. *)
let test_intern_compare_edges () =
  for len = 1 to 40 do
    let t = Intern.create () in
    let base = Array.init (len - 1) (fun j -> ((7 * j) + len) mod 50) in
    check Alcotest.int "base" 0 (intern_slice t ~hash:42 base);
    let variants =
      List.init (len - 1) (fun i ->
          Array.mapi (fun j v -> if j = i then (v + 1) mod 50 else v) base)
      @
      if len >= 3 then [ Array.append (Array.sub base 0 (len - 3)) [| 100 |] ]
      else []
    in
    List.iteri
      (fun k v ->
        let id = intern_slice t ~hash:42 v in
        if id <> k + 1 then
          Alcotest.failf "length %d, variant %d: id %d, expected a new one" len k id;
        if intern_slice t ~hash:42 base <> 0 || intern_slice t ~hash:42 v <> id
        then Alcotest.failf "length %d, variant %d: not found again" len k)
      variants
  done

(* A sequence whose bytes end on the last byte of an arena chunk, hit by
   a slice that ends on the last byte of its own buffer, and missed by
   one that differs in that byte; then a store rebuilt from the image
   keeps every id. *)
let test_intern_chunk_end () =
  let t = Intern.create () in
  (* 648 sequences of 101 bytes and one of 88 fill the 65,536-byte
     chunk exactly. *)
  let seqs =
    Array.init 649 (fun i ->
        if i = 648 then Array.make 87 1
        else Array.init 100 (function 0 -> i mod 60 | 1 -> i / 60 | _ -> 0))
  in
  let hash = Hashtbl.hash in
  Array.iteri
    (fun i a ->
      check Alcotest.int "fresh id" i (intern t ~hash:(hash a) a))
    seqs;
  let image = Intern.image t in
  check Alcotest.int "one full chunk" 65_536 (Bytes.length image.im_chunks.(0));
  check Alcotest.int "the last sequence ends it" (65_536 - 88) image.im_starts.(648);
  let last = seqs.(648) in
  check Alcotest.int "hit at the chunk's end" 648
    (intern t ~hash:(hash last) last);
  let other = Array.copy last in
  other.(86) <- 2;
  check Alcotest.int "a different last byte is new" 649
    (intern t ~hash:(hash other) other);
  let u = Intern.of_image (Intern.image t) ~hash in
  check Alcotest.int "same length" (Intern.length t) (Intern.length u);
  Array.iteri
    (fun i a ->
      if get u i <> a || intern u ~hash:(hash a) a <> i then
        Alcotest.failf "id %d lost across of_image" i)
    (Array.append seqs [| other |]);
  check Alcotest.int "new after of_image" 650 (intern u ~hash:7 [| 5 |])

let test_intern_image_rejects () =
  let t = Intern.create () in
  List.iter
    (fun a -> ignore (intern t ~hash:(Hashtbl.hash a) a))
    [ [| 1; 2 |]; [| 3 |]; [||]; [| -5; 70_000 |] ];
  let image = Intern.image t in
  let rejects what image =
    match Intern.of_image image ~hash:Hashtbl.hash with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ -> ()
  in
  rejects "duplicate ids"
    { image with Intern.im_starts = [| image.im_starts.(0); image.im_starts.(0) |] };
  rejects "offset past the arena"
    { image with Intern.im_starts = [| 1_000_000 |] };
  rejects "chunk out of range" { image with Intern.im_starts = [| 5 lsl 32 |] };
  rejects "length past the chunk"
    { Intern.im_chunks = [| Bytes.of_string "\x7f\x02" |]; im_starts = [| 0 |] };
  check Alcotest.int "the image itself loads" 4
    (Intern.length (Intern.of_image image ~hash:Hashtbl.hash))

(* --- Level_log -------------------------------------------------------- *)

module Level_log = Asyncolor_util.Level_log
module Varint = Level_log.Varint

let no_fetch ~level = Alcotest.failf "unexpected fetch of level %d" level

(* One row through a cursor, as (mask, target, perm) triples. *)
let read_row c ~uid start stop =
  Level_log.seek c ~uid start stop;
  let acc = ref [] in
  while Level_log.next c do
    acc := (c.mask, c.target, c.perm) :: !acc
  done;
  Array.of_list (List.rev !acc)

let edges = Alcotest.(array (triple int int int))

(* Rows [0 .. k - 1] of [k] edges each, targets on both sides of the row. *)
let push_rows l ~stride ~rows ~per_row ~offs =
  for u = 0 to rows - 1 do
    for e = 0 to per_row - 1 do
      Level_log.push l ~uid:u ~mask:(e + 1) ~target:(u + e - 2)
        ~perm:(if stride = 3 then e else 0)
    done;
    offs.(u + 1) <- Level_log.offset l
  done

let row_model ~stride ~per_row u =
  Array.init per_row (fun e -> (e + 1, u + e - 2, if stride = 3 then e else 0))

let test_level_log_plain_vector () =
  (* without a threshold seal never closes anything, a cursor reads the
     stream in place and reassembly needs no fetch *)
  let l = Level_log.create ~stride:2 () in
  let offs = Array.make 101 0 in
  push_rows l ~stride:2 ~rows:100 ~per_row:3 ~offs;
  check Alcotest.int "one byte a field" 600 (Level_log.offset l);
  check Alcotest.int "nothing spilled" 0 (Level_log.spilled_levels l);
  check Alcotest.bool "seal is a no-op" true (Level_log.seal l = None);
  let c = Level_log.cursor l in
  check edges "row 99 in place" (row_model ~stride:2 ~per_row:3 99)
    (read_row c ~uid:99 offs.(99) offs.(100));
  let flat = Level_log.reassemble ~fetch:no_fetch l in
  check edges "row 0 reassembled" (row_model ~stride:2 ~per_row:3 0)
    (read_row (Level_log.flat_cursor ~stride:2 flat) ~uid:0 0 offs.(1))

let test_level_log_seal_threshold () =
  (* 4 words a row: a 10-word threshold closes every third row *)
  let l = Level_log.create ~threshold_words:10 ~stride:2 () in
  let store = Hashtbl.create 8 in
  let offs = Array.make 8 0 in
  for u = 0 to 6 do
    for e = 0 to 1 do
      Level_log.push l ~uid:u ~mask:(e + 1) ~target:(u + e - 2) ~perm:0
    done;
    offs.(u + 1) <- Level_log.offset l;
    match Level_log.seal l with
    | None -> check Alcotest.bool "below threshold" true ((u + 1) mod 3 <> 0)
    | Some (level, data) ->
        check Alcotest.int "at or above threshold" 2 (u mod 3);
        check Alcotest.bool "level indices sequential" false
          (Hashtbl.mem store level);
        Hashtbl.add store level data
  done;
  check Alcotest.int "two levels closed" 2 (Level_log.spilled_levels l);
  check Alcotest.int "spilled bytes" offs.(6)
    (Hashtbl.fold (fun _ b a -> a + Bytes.length b) store 0);
  check Alcotest.int "offset counts closed levels" 28 (Level_log.offset l);
  let c = Level_log.cursor l in
  check edges "the resident tail reads in place" (row_model ~stride:2 ~per_row:2 6)
    (read_row c ~uid:6 offs.(6) offs.(7));
  Alcotest.check_raises "a spilled row"
    (Invalid_argument "Level_log.seek: offset is spilled") (fun () ->
      ignore (read_row c ~uid:5 offs.(5) offs.(6)));
  let fetch ~level = Hashtbl.find store level in
  let fc = Level_log.flat_cursor ~stride:2 (Level_log.reassemble ~fetch l) in
  for u = 0 to 6 do
    check edges (Printf.sprintf "row %d reassembled" u)
      (row_model ~stride:2 ~per_row:2 u)
      (read_row fc ~uid:u offs.(u) offs.(u + 1))
  done

let test_level_log_fetch_length_mismatch () =
  let l = Level_log.create ~threshold_words:1 ~stride:2 () in
  Level_log.push l ~uid:0 ~mask:1 ~target:1 ~perm:0;
  (match Level_log.seal l with
  | Some _ -> ()
  | None -> Alcotest.fail "seal expected");
  (* the cheap second line of defence behind the spill checksum *)
  match Level_log.reassemble ~fetch:(fun ~level:_ -> Bytes.make 1 '\001') l with
  | _ -> Alcotest.fail "length mismatch must be rejected"
  | exception Invalid_argument _ -> ()

let test_level_log_negative_threshold () =
  (match Level_log.create ~threshold_words:(-1) ~stride:2 () with
  | _ -> Alcotest.fail "negative threshold must be rejected"
  | exception Invalid_argument _ -> ());
  (match Level_log.create ~stride:4 () with
  | _ -> Alcotest.fail "stride 4 must be rejected"
  | exception Invalid_argument _ -> ());
  (* a zero mask would read as padding *)
  match Level_log.push (Level_log.create ~stride:2 ()) ~uid:0 ~mask:0 ~target:0 ~perm:0 with
  | () -> Alcotest.fail "a zero mask must be rejected"
  | exception Invalid_argument _ -> ()

let test_level_log_empty_tail_never_seals () =
  let l = Level_log.create ~threshold_words:0 ~stride:3 () in
  check Alcotest.bool "empty tail" true (Level_log.seal l = None);
  Level_log.push l ~uid:5 ~mask:3 ~target:4 ~perm:2;
  (match Level_log.seal l with
  | Some (0, b) -> check Alcotest.string "mask, zigzag(-1), perm" "\003\001\002" (Bytes.to_string b)
  | _ -> Alcotest.fail "threshold 0 seals any non-empty tail");
  check Alcotest.bool "tail empty again" true (Level_log.seal l = None)

let test_level_log_bytes_at_capacity () =
  (* 9-byte fields, 27 bytes an edge: 5,000 edges fill two 64 KiB chunks
     and start a third *)
  let l = Level_log.create ~stride:3 () in
  check Alcotest.int "an empty log holds nothing" 0 (Level_log.bytes l);
  let big = (1 lsl 62) - 1 in
  for u = 0 to 4_999 do
    Level_log.push l ~uid:u ~mask:big ~target:(u - (1 lsl 61)) ~perm:big
  done;
  check Alcotest.int "three chunks at capacity, and the chunk table"
    ((3 * 65_536) + (4 * 8)) (Level_log.bytes l);
  check Alcotest.int "padding at each full chunk's end"
    ((2 * 65_536) + ((5_000 - (2 * (65_536 / 27))) * 27))
    (Level_log.offset l)

(* The zigzag map the codec applies to signed ints, restated: small
   magnitudes of either sign become small unsigned numbers. *)
let zigzag x = (x lsl 1) lxor (x asr (Sys.int_size - 1))

let test_varint_codec () =
  let values =
    [ 0; 1; -1; 63; -64; 64; 127; 128; 16_383; 16_384; max_int; min_int;
      (1 lsl 62) - 1; -(1 lsl 61); 1 lsl 61; -(1 lsl 61) - 1 ]
  in
  List.iter
    (fun x ->
      let z = zigzag x in
      let b = Bytes.make 12 '\255' in
      let stop = Varint.put b 1 z in
      let p = ref 1 in
      check Alcotest.int (Printf.sprintf "read %d" x) z (Varint.read b p);
      check Alcotest.int "read stops after it" stop !p;
      (* put_ints writes what put writes for the zigzag, one byte or
         nine; beyond +-2^61 the zigzag is negative. *)
      let c = Bytes.make 12 '\255' in
      let stop' = Varint.put_ints c 1 [| x; 0 |] 1 in
      check Alcotest.int (Printf.sprintf "put_ints %d ends" x) stop stop';
      check Alcotest.string (Printf.sprintf "put_ints %d bytes" x)
        (Bytes.sub_string b 0 stop) (Bytes.sub_string c 0 stop');
      let dst = [| 0 |] in
      let s = Bytes.create (Varint.seq_size [| x |]) in
      ignore (Varint.put_seq s 0 [| x |] : int);
      ignore (Varint.read_seq s 0 dst : int);
      check Alcotest.int (Printf.sprintf "put_seq/read_seq %d" x) x dst.(0))
    values;
  check Alcotest.bool "put_ints rejects a length beyond its array" true
    (match Varint.put_ints (Bytes.create 32) 0 [| 1; 2 |] 3 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check Alcotest.(list int) "sizes" [ 1; 1; 2; 2; 3; 9; 9 ]
    (List.map (Varint.put (Bytes.create 9) 0) [ 0; 127; 128; 16_383; 16_384; max_int; -1 ]);
  let seq = [| 3; -7; 1 lsl 40 |] in
  let b = Bytes.make (Varint.seq_size seq) '\000' in
  check Alcotest.int "put_seq fills seq_size" (Bytes.length b) (Varint.put_seq b 0 seq);
  check Alcotest.int "seq_length" 3 (Varint.seq_length b 0);
  let dst = Array.make 4 0 in
  check Alcotest.int "read_seq ends where put_seq did" (Bytes.length b)
    (Varint.read_seq b 0 dst);
  check Alcotest.(array int) "decoded" seq (Array.sub dst 0 3)

(* The engine writes key segments with [put_ints]; the store reads whole
   sequences: a sequence is its length prefix, then [put_ints]'s bytes. *)
let prop_varint_seq_layout =
  QCheck.Test.make ~name:"Varint: put_seq = length ^ put_ints, read_seq inverts" ~count:300
    (QCheck.make QCheck.Gen.(array_size (int_range 0 40) intern_elt))
    (fun a ->
      let n = Array.length a and b = Bytes.make (Varint.seq_size a) '\000' in
      let stop = Varint.put_seq b 0 a and p = ref 0 in
      let elems = Bytes.make (9 * n) '\000' and dst = Array.make n 0 in
      let elems_stop = Varint.put_ints elems 0 a n in
      stop = Bytes.length b && Varint.read b p = n && Varint.seq_length b 0 = n
      && Bytes.sub b !p (stop - !p) = Bytes.sub elems 0 elems_stop
      && Varint.read_seq b 0 dst = stop && dst = a)

(* --- Int_log and Level_log against plain-array models ----------------- *)

module Int_log = Asyncolor_util.Int_log

(* Every observable of an [Int_log] of [chunk_words]-word chunks against
   the oracle array of the words pushed: length, each word, out-of-range
   reads and the chunk walk. *)
let int_log_agrees ~chunk_words l oracle =
  let n = Array.length oracle in
  let chunks = ref [] and chunk_ok = ref true in
  Int_log.iter_chunks l (fun chunk k ->
      if k < 1 || k > chunk_words then chunk_ok := false;
      chunks := Array.sub chunk 0 k :: !chunks);
  let raises i =
    match Int_log.get l i with _ -> false | exception Invalid_argument _ -> true
  in
  Int_log.length l = n
  && Array.for_all Fun.id (Array.init n (fun i -> Int_log.get l i = oracle.(i)))
  && raises n && raises (-1)
  && !chunk_ok
  && Array.concat (List.rev !chunks) = oracle

(* A chunk size of 1 to 4096 words and a program of pushes (small
   counts), so lengths cross first-chunk growth and many chunk
   boundaries. *)
let int_log_program =
  QCheck.make
    ~print:QCheck.Print.(pair int (list int))
    QCheck.Gen.(pair (int_range 0 12) (list_size (int_range 0 12) (int_range 1 1500)))

let prop_int_log_oracle =
  QCheck.Test.make ~name:"Int_log: pushes match an array"
    ~count:200 int_log_program (fun (shift, program) ->
      let chunk_words = 1 lsl shift in
      let l = Int_log.create ~chunk_words () in
      let oracle = ref [||] and next = ref (-7) in
      List.for_all
        (fun op ->
          let words = Array.init op (fun i -> (!next + i) * 0x9E37) in
          next := !next + op;
          Array.iter (Int_log.push l) words;
          oracle := Array.append !oracle words;
          int_log_agrees ~chunk_words l !oracle)
        program)

let test_int_log_full_chunks () =
  (* the default chunk, crossed twice; and a log that allocates nothing
     until its first push *)
  let l = Int_log.create () in
  check Alcotest.int "empty log holds nothing" 0 (Int_log.bytes l);
  let n = (2 * 65_536) + 3 in
  for i = 0 to n - 1 do
    Int_log.push l (n - i)
  done;
  List.iter
    (fun i -> check Alcotest.int (Printf.sprintf "word %d" i) (n - i) (Int_log.get l i))
    [ 0; 65_535; 65_536; 131_071; 131_072; n - 1 ];
  check Alcotest.bool "agrees with the pushed words" true
    (int_log_agrees ~chunk_words:65_536 l (Array.init n (fun i -> n - i)));
  check Alcotest.bool "three chunks at capacity" true
    (Int_log.bytes l >= 3 * 65_536 * 8 && Int_log.bytes l < (3 * 65_536 * 8) + 1024)

let test_int_log_chunk_sizes () =
  let f t = Int_log.chunk_words_for ?threshold_words:t () in
  check Alcotest.(list int) "threshold rounded up, clamped"
    [ 65_536; 1_024; 1_024; 1_024; 1_024; 2_048; 8_192; 65_536; 65_536 ]
    [ f None; f (Some 0); f (Some 1); f (Some 1_023); f (Some 1_024);
      f (Some 1_025); f (Some 8_192); f (Some 65_536); f (Some 1_000_000) ];
  match Int_log.create ~chunk_words:3 () with
  | _ -> Alcotest.fail "a chunk size that is not a power of two"
  | exception Invalid_argument _ -> ()

(* A [Level_log] driven like the explorer drives it — rows of edges, the
   row's end offset recorded and a seal attempted after each — against
   a model that keeps every row as an array of (mask, target, perm)
   triples and counts the open level's words.  Every row is read back:
   in place when it is resident (and rejected when it is spilled), and
   through the reassembly of the sealed levels. *)
let level_log_agrees ~stride ~threshold rows =
  let l = Level_log.create ?threshold_words:threshold ~stride () in
  let n = Array.length rows in
  let offs = Array.make (n + 1) 0 in
  let levels = ref [] and tail_words = ref 0 in
  let ok = ref true in
  let expect b = if not b then ok := false in
  Array.iteri
    (fun u row ->
      Array.iter
        (fun (mask, target, perm) -> Level_log.push l ~uid:u ~mask ~target ~perm)
        row;
      tail_words := !tail_words + (stride * Array.length row);
      offs.(u + 1) <- Level_log.offset l;
      let should =
        match threshold with
        | Some w -> !tail_words >= w && !tail_words > 0
        | None -> false
      in
      match Level_log.seal l with
      | Some (level, data) ->
          expect should;
          expect (level = List.length !levels);
          levels := data :: !levels;
          tail_words := 0
      | None -> expect (not should))
    rows;
  let levels = Array.of_list (List.rev !levels) in
  let spilled = Array.fold_left (fun a b -> a + Bytes.length b) 0 levels in
  expect (Level_log.spilled_levels l = Array.length levels);
  expect (Level_log.offset l = offs.(n));
  let c = Level_log.cursor l in
  Array.iteri
    (fun u row ->
      if offs.(u) >= spilled then expect (read_row c ~uid:u offs.(u) offs.(u + 1) = row)
      else
        expect
          (match read_row c ~uid:u offs.(u) offs.(u + 1) with
          | _ -> false
          | exception Invalid_argument _ -> true))
    rows;
  let fetch ~level = levels.(level) in
  let flat = Level_log.reassemble ~fetch l in
  expect (Bigarray.Array1.dim flat = offs.(n));
  let segs = ref [] in
  Level_log.iter_segments ~fetch l (fun b k -> segs := Bytes.sub b 0 k :: !segs);
  expect (Level_log.flat_of_segments (Array.of_list (List.rev !segs)) = flat);
  let fc = Level_log.flat_cursor ~stride flat in
  Array.iteri
    (fun u row -> expect (read_row fc ~uid:u offs.(u) offs.(u + 1) = row))
    rows;
  !ok

(* Rows of up to [width] edges.  A value is small, or anywhere up to 62
   bits; a target is near its row on either side, or anywhere up to 62
   bits, so [target - uid] spans both signs and every varint length. *)
let level_log_rows ~stride ~seed ~n ~width =
  let st = Random.State.make [| seed |] in
  let big () = Random.State.bits st lor (Random.State.bits st lsl 30) lor (Random.State.int st 4 lsl 60) in
  let value () =
    match Random.State.int st 4 with
    | 0 -> big ()
    | 1 -> Random.State.int st 1_000
    | _ -> Random.State.int st 64
  in
  Array.init n (fun u ->
      Array.init (Random.State.int st (width + 1)) (fun _ ->
          let mask = max 1 (value ()) in
          let target =
            match Random.State.int st 3 with
            | 0 -> big ()
            | _ -> max 0 (u + Random.State.int st 200 - 100)
          in
          (mask, target, if stride = 3 then value () else 0)))

let level_log_program =
  QCheck.make
    ~print:QCheck.Print.(quad int (option int) int (pair int int))
    QCheck.Gen.(
      quad (oneofl [ 2; 3 ])
        (opt (oneofl [ 0; 1; 2; 7; 1_023; 1_024; 1_025 ]))
        (int_bound 1_000_000)
        (pair (int_range 0 400) (oneofl [ 0; 1; 4; 12; 40 ])))

let prop_level_log_oracle =
  QCheck.Test.make
    ~name:"Level_log: seals, reads and reassembly match an array model"
    ~count:200 level_log_program (fun (stride, threshold, seed, (n, width)) ->
      level_log_agrees ~stride ~threshold
        (level_log_rows ~stride ~seed ~n ~width))

let test_level_log_large_thresholds () =
  (* thresholds either side of the largest chunk, over 200k words in
     three-word entries of every varint length *)
  List.iter
    (fun w ->
      check Alcotest.bool
        (Printf.sprintf "threshold %d" w)
        true
        (level_log_agrees ~stride:3 ~threshold:(Some w)
           (level_log_rows ~stride:3 ~seed:w ~n:7_000 ~width:20)))
    [ 65_535; 65_536; 65_537 ]

(* --- test helpers ---------------------------------------------------- *)

(* [Bounded.int_range]'s shrinker, which the suites' qchecks draw sizes
   with: every candidate of [x] lies in [lo, x), and every [x > lo] has
   one, so shrinking reaches [lo] and never leaves the range. *)
let test_bounded_shrink_in_range () =
  List.iter
    (fun (lo, hi) ->
      let shrink = Option.get (Bounded.int_range lo hi).QCheck.shrink in
      let xs =
        List.init (min (hi - lo + 1) 2000) (fun i -> lo + i)
        @ [ (lo + hi) / 2; hi - 1; hi ]
      in
      List.iter
        (fun x ->
          let cands = ref [] in
          shrink x (fun y -> cands := y :: !cands);
          List.iter
            (fun y ->
              if y < lo || y >= x then
                Alcotest.failf "int_range %d %d: candidate %d of %d outside [%d, %d)"
                  lo hi y x lo x)
            !cands;
          if x > lo && !cands = [] then
            Alcotest.failf "int_range %d %d: no candidate for %d" lo hi x)
        xs)
    [ (0, 100); (1, 4); (3, 8); (3, 3000); (10, 1 lsl 50); (64, 4096) ]

let () =
  Alcotest.run "util"
    [
      ( "test helpers",
        [
          Alcotest.test_case "bounded shrink stays in range" `Quick
            test_bounded_shrink_in_range;
        ] );
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "split" `Quick test_split_independent;
          Alcotest.test_case "known bits64" `Quick test_known_bits64;
          Alcotest.test_case "known split" `Quick test_known_split;
          Alcotest.test_case "known draws" `Quick test_known_draws;
          qtest prop_bool_mask_matches_bool;
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "int invalid" `Quick test_int_invalid;
          Alcotest.test_case "int covers range" `Quick test_int_covers_range;
          Alcotest.test_case "int_in" `Quick test_int_in;
          Alcotest.test_case "float bounds" `Quick test_float_bounds;
          Alcotest.test_case "float mean" `Quick test_float_mean;
          Alcotest.test_case "bool balance" `Quick test_bool_balance;
          Alcotest.test_case "shuffle permutes" `Quick test_shuffle_is_permutation;
          Alcotest.test_case "shuffle moves" `Quick test_shuffle_actually_moves;
          Alcotest.test_case "sample w/o replacement" `Quick
            test_sample_without_replacement;
          qtest prop_sample_distinct;
        ] );
      ( "mex",
        [
          Alcotest.test_case "cases" `Quick test_mex_cases;
          qtest prop_mex_not_member;
          qtest prop_mex_minimal;
          Alcotest.test_case "sorted" `Quick test_mex_sorted;
          qtest prop_mex_order_free;
        ] );
      ( "mask",
        [
          Alcotest.test_case "popcount" `Quick test_mask_popcount;
          Alcotest.test_case "lowest_bit" `Quick test_mask_lowest_bit;
          Alcotest.test_case "nth_bit" `Quick test_mask_nth_bit;
          qtest prop_mask_bit_walk;
        ] );
      ( "vec",
        [
          Alcotest.test_case "push/get" `Quick test_vec_push_get;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "to_array" `Quick test_vec_to_array;
          Alcotest.test_case "pop" `Quick test_vec_pop;
          qtest prop_vec_oracle;
        ] );
      ( "domain_pool",
        [
          Alcotest.test_case "map ordering" `Quick test_pool_map_ordering;
          Alcotest.test_case "jobs=1 vs jobs=4" `Quick
            test_pool_sequential_matches_parallel;
          Alcotest.test_case "pool reuse" `Quick test_pool_reuse;
          Alcotest.test_case "exception: lowest index" `Quick
            test_pool_exception_lowest_index;
          Alcotest.test_case "usable after exception" `Quick
            test_pool_usable_after_exception;
          Alcotest.test_case "empty input, many jobs" `Quick
            test_pool_empty_and_jobs_clamp;
          Alcotest.test_case "fail-fast: sequential tail skipped" `Quick
            test_pool_fail_fast_sequential;
          Alcotest.test_case "fail-fast: parallel batch cancelled" `Quick
            test_pool_fail_fast_parallel;
          Alcotest.test_case "shutdown after failed batch" `Quick
            test_pool_shutdown_after_failed_batch;
        ] );
      ( "executor",
        [
          Alcotest.test_case "jobs <= 0 clamped at the boundary" `Quick
            test_executor_jobs_clamped;
          Alcotest.test_case "default policy and clamping" `Quick
            test_default_policy;
          Alcotest.test_case "policies agree on outputs" `Quick
            test_executor_policies_agree;
          Alcotest.test_case "backpressure bounds in-flight work" `Quick
            test_executor_backpressure_bounded;
          Alcotest.test_case "async failure isolation" `Quick
            test_executor_async_failure_isolation;
          Alcotest.test_case "submit/await FIFO stream" `Quick
            test_executor_submit_await_stream;
          Alcotest.test_case "submit after shutdown" `Quick
            test_executor_submit_after_shutdown;
          Alcotest.test_case "raising tasks leave every worker alive" `Quick
            test_executor_raising_batches;
          Alcotest.test_case "20k tasks awaited in reverse run once" `Quick
            test_executor_reverse_await;
          Alcotest.test_case "a task awaits its nested task" `Quick
            test_executor_nested_await;
          Alcotest.test_case "idle workers shut down, 200 times" `Quick
            test_executor_idle_shutdown;
          Alcotest.test_case "workers take work the caller leaves" `Quick
            test_executor_workers_take_work;
          Alcotest.test_case "exec.steals: 0 on Serial, <= exec.tasks" `Quick
            test_executor_steals_counted;
        ] );
      ( "sharded_tbl",
        [
          Alcotest.test_case "basics" `Quick test_sharded_tbl_basics;
          qtest prop_sharded_tbl_oracle;
          Alcotest.test_case "shard from high hash bits" `Quick test_sharded_tbl_high_bits;
        ] );
      ( "intern",
        [
          qtest prop_intern_oracle;
          qtest prop_intern_constant_hash;
          qtest prop_intern_encoded;
          qtest prop_intern_encoded_constant_hash;
          Alcotest.test_case "encoded slices across chunks" `Quick
            test_intern_encoded_chunks;
          Alcotest.test_case "dense ids, round trip, prefixes" `Quick
            test_intern_dense_ids;
          Alcotest.test_case "growth through rehashes and chunks" `Quick
            test_intern_growth;
          Alcotest.test_case "tags filter byte compares" `Quick
            test_intern_tag_filters;
          Alcotest.test_case "compare: one differing byte, lengths 1..40"
            `Quick test_intern_compare_edges;
          Alcotest.test_case "compare at a chunk's last byte, of_image" `Quick
            test_intern_chunk_end;
          qtest prop_intern_image;
          Alcotest.test_case "of_image rejects damage" `Quick
            test_intern_image_rejects;
        ] );
      ( "level_log",
        [
          Alcotest.test_case "plain vector without threshold" `Quick
            test_level_log_plain_vector;
          Alcotest.test_case "seal threshold semantics" `Quick
            test_level_log_seal_threshold;
          Alcotest.test_case "fetch length mismatch rejected" `Quick
            test_level_log_fetch_length_mismatch;
          Alcotest.test_case "negative threshold rejected" `Quick
            test_level_log_negative_threshold;
          Alcotest.test_case "empty tail never seals" `Quick
            test_level_log_empty_tail_never_seals;
          qtest prop_level_log_oracle;
          qtest prop_varint_seq_layout;
          Alcotest.test_case "thresholds around the largest chunk" `Quick
            test_level_log_large_thresholds;
          Alcotest.test_case "bytes counts chunks at capacity" `Quick
            test_level_log_bytes_at_capacity;
          Alcotest.test_case "varint codec" `Quick test_varint_codec;
        ] );
      ( "int_log",
        [
          qtest prop_int_log_oracle;
          Alcotest.test_case "full chunks crossed" `Quick
            test_int_log_full_chunks;
          Alcotest.test_case "chunk sizes" `Quick test_int_log_chunk_sizes;
        ] );
    ]
