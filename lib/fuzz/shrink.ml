(* Delta-debugging minimisation of a failing scenario.

   Greedy descent over the structural shrinking primitives of {!Scenario},
   re-running the scenario after every candidate edit and keeping it only
   if the *same invariant* still fails.  Each accepted edit lowers at
   least one of node count, churn events, steps and activation-set
   occupancy and raises none of them (test_fuzz checks this of every
   primitive), so the loop terminates; an exec budget additionally caps
   pathological searches.  Everything is deterministic: same input, same
   minimum. *)

type stats = { execs : int; kept : int }

let minimize ?(max_execs = 4_000) (sc : Scenario.t) ~invariant =
  let execs = ref 0 and kept = ref 0 in
  let budget_left () = !execs < max_execs in
  let still_fails candidate =
    budget_left ()
    &&
    (incr execs;
     match Exec.fails_invariant candidate ~invariant with
     | ok ->
         if ok then incr kept;
         ok
     | exception Invalid_argument _ -> false)
  in
  let current = ref sc in
  (* Pass 1 — drop whole schedule chunks, halving granularity (ddmin). *)
  let drop_step_chunks () =
    let progress = ref false in
    let chunk = ref (max 1 (Scenario.steps !current / 2)) in
    while !chunk >= 1 && budget_left () do
      let lo = ref 0 in
      while !lo < Scenario.steps !current && budget_left () do
        let len = min !chunk (Scenario.steps !current - !lo) in
        let candidate = Scenario.drop_steps !current ~lo:!lo ~len in
        if still_fails candidate then begin
          current := candidate;
          progress := true
          (* same [lo] now names the next chunk *)
        end
        else lo := !lo + len
      done;
      chunk := if !chunk = 1 then 0 else !chunk / 2
    done;
    !progress
  in
  (* Pass 2 — thin individual activation sets, one process at a time. *)
  let thin_sets () =
    let progress = ref false in
    let step = ref 0 in
    while !step < Scenario.steps !current && budget_left () do
      let set_len = List.length (List.nth (!current).Scenario.schedule !step) in
      let drop = ref (set_len - 1) in
      while !drop >= 0 && budget_left () do
        let candidate = Scenario.thin_step !current ~step:!step ~drop:!drop in
        if still_fails candidate then begin
          current := candidate;
          progress := true
        end;
        decr drop
      done;
      incr step
    done;
    !progress
  in
  (* Pass 1b — drop churn events, one at a time (each event is an atomic
     crash-recovery pair, so the two can never be separated). *)
  let drop_churn_events () =
    let progress = ref false in
    let i = ref (List.length (!current).Scenario.churn - 1) in
    while !i >= 0 && budget_left () do
      (match Scenario.drop_churn_event !current !i with
      | Some candidate when still_fails candidate ->
          current := candidate;
          progress := true
      | _ -> ());
      decr i
    done;
    !progress
  in
  (* Pass 3 — shrink the instance itself (cycle topologies). *)
  let drop_nodes () =
    let progress = ref false in
    let continue_ = ref true in
    while !continue_ && budget_left () do
      continue_ := false;
      let n = Scenario.graph_n (!current).Scenario.graph in
      let victim = ref (n - 1) in
      while !victim >= 0 && not !continue_ && budget_left () do
        (match Scenario.drop_node !current !victim with
        | Some candidate when still_fails candidate ->
            current := candidate;
            progress := true;
            continue_ := true
        | _ -> ());
        decr victim
      done
    done;
    !progress
  in
  let rec fixpoint () =
    let p1 = drop_step_chunks () in
    let p1b = drop_churn_events () in
    let p2 = thin_sets () in
    let p3 = drop_nodes () in
    if (p1 || p1b || p2 || p3) && budget_left () then fixpoint ()
  in
  fixpoint ();
  (!current, { execs = !execs; kept = !kept })
