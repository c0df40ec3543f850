module Prng = Asyncolor_util.Prng
module Builders = Asyncolor_topology.Builders
module Idents = Asyncolor_workload.Idents
module Adversary = Asyncolor_kernel.Adversary

type algo = A1 | A2 | A2s | A3

type graph_spec = Cycle of int | Path of int | Complete of int | Star of int

(* One crash-recovery pair, kept atomic so shrinking can never separate a
   recovery from its crash: the node is unschedulable during
   [crash_at, recover_at) and is reset with [fresh_ident] just before the
   step at time [recover_at]. *)
type churn_event = {
  node : int;
  crash_at : int;
  recover_at : int;
  fresh_ident : int;
}

type t = {
  algo : algo;
  mutation : string option;
  graph : graph_spec;
  idents : int array;
  schedule : int list list;
  churn : churn_event list;
}

let algo_name = function A1 -> "1" | A2 -> "2" | A2s -> "2s" | A3 -> "3"

let graph_n = function Cycle n | Path n | Complete n | Star n -> n

let graph_name = function
  | Cycle n -> Printf.sprintf "cycle:%d" n
  | Path n -> Printf.sprintf "path:%d" n
  | Complete n -> Printf.sprintf "complete:%d" n
  | Star n -> Printf.sprintf "star:%d" n

let build_graph = function
  | Cycle n -> Builders.cycle n
  | Path n -> Builders.path n
  | Complete n -> Builders.complete n
  | Star n -> Builders.star n

let steps t = List.length t.schedule

let pp_churn ppf churn =
  Format.fprintf ppf "%s"
    (String.concat ","
       (List.map
          (fun ev ->
            Printf.sprintf "n%d@%d-%d>%d" ev.node ev.crash_at ev.recover_at
              ev.fresh_ident)
          churn))

let pp ppf t =
  Format.fprintf ppf "@[<v>algo=%s%s graph=%s@,idents=%s@,schedule=%s%a@]"
    (algo_name t.algo)
    (match t.mutation with None -> "" | Some m -> "!" ^ m)
    (graph_name t.graph)
    (String.concat "," (Array.to_list (Array.map string_of_int t.idents)))
    (Adversary.to_string t.schedule)
    (fun ppf -> function
      | [] -> ()
      | churn -> Format.fprintf ppf "@,churn=%a" pp_churn churn)
    t.churn

let validate t =
  let n = graph_n t.graph in
  if Array.length t.idents <> n then
    invalid_arg "Scenario.validate: idents length must match node count";
  if not (Idents.is_injective t.idents) then
    invalid_arg "Scenario.validate: identifiers must be pairwise distinct";
  List.iter
    (List.iter (fun p ->
         if p < 0 || p >= n then
           invalid_arg
             (Printf.sprintf
                "Scenario.validate: schedule names process %d outside [0, %d)" p
                n)))
    t.schedule;
  let horizon = steps t in
  let seen_nodes = Hashtbl.create 8 and seen_fresh = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      if ev.node < 0 || ev.node >= n then
        invalid_arg
          (Printf.sprintf
             "Scenario.validate: churn names process %d outside [0, %d)"
             ev.node n);
      if Hashtbl.mem seen_nodes ev.node then
        invalid_arg
          (Printf.sprintf "Scenario.validate: process %d churns twice" ev.node);
      Hashtbl.add seen_nodes ev.node ();
      if not (1 <= ev.crash_at && ev.crash_at <= ev.recover_at && ev.recover_at <= horizon)
      then
        invalid_arg
          (Printf.sprintf
             "Scenario.validate: churn times %d-%d outside 1 <= crash <= \
              recover <= %d"
             ev.crash_at ev.recover_at horizon);
      if Array.exists (fun x -> x = ev.fresh_ident) t.idents then
        invalid_arg
          (Printf.sprintf
             "Scenario.validate: fresh identifier %d collides with an initial \
              identifier"
             ev.fresh_ident);
      if Hashtbl.mem seen_fresh ev.fresh_ident then
        invalid_arg
          (Printf.sprintf
             "Scenario.validate: fresh identifier %d used by two churn events"
             ev.fresh_ident);
      Hashtbl.add seen_fresh ev.fresh_ident ())
    t.churn

(* --- generation ------------------------------------------------------ *)

(* All draws happen in a fixed, explicit order (no [Array.init] /
   [List.init], whose evaluation order is unspecified), so a scenario is a
   pure function of the generator's state: equal seeds give equal
   scenarios, which is what makes campaigns replayable. *)

let gen_idents prng n =
  match Prng.int prng 5 with
  | 0 -> Idents.increasing n
  | 1 -> Idents.decreasing n
  | 2 -> Idents.zigzag n
  | 3 -> Idents.random_permutation prng n
  | _ -> Idents.random_sparse prng ~n ~universe:(max 64 (n * n))

let gen_graph prng algo n =
  match algo with
  | A2s | A3 -> Cycle n
  (* Algorithms 1 and 2 run unchanged on general graphs (paper §5 /
     Appendix A); mix other topologies in. *)
  | A1 | A2 -> (
      match Prng.int prng 10 with
      | 0 | 1 -> Path n
      | 2 -> Complete (min n 6)
      | 3 -> Star (max 3 (min n 6))
      | _ -> Cycle n)

let generate ?(algos = [ A1; A2; A2s; A3 ]) ?mutation ?(max_n = 10) prng =
  if algos = [] then invalid_arg "Scenario.generate: empty algorithm list";
  let algo = List.nth algos (Prng.int prng (List.length algos)) in
  let n0 = Prng.int_in prng 3 (max 3 max_n) in
  let graph = gen_graph prng algo n0 in
  let n = graph_n graph in
  let idents = gen_idents prng n in
  (* Schedule shape: per-process wake-up delays, independent crash times,
     a per-scenario activation density, and a random truncation horizon.
     The horizon sometimes exceeds the wait-freedom bounds by a wide
     margin so the activation-bound detector has room to fire. *)
  let bound_estimate = (3 * n) + 10 in
  let horizon = Prng.int_in prng 1 (4 * bound_estimate) in
  let p_act = 0.15 +. Prng.float prng 0.85 in
  let wake = Array.make n 0 in
  for p = 0 to n - 1 do
    wake.(p) <- (if Prng.bool prng then 0 else Prng.int prng (n + 3))
  done;
  let crash_rate = Prng.float prng 0.4 in
  let crash = Array.make n max_int in
  for p = 0 to n - 1 do
    if Prng.float prng 1.0 < crash_rate then
      crash.(p) <- Prng.int_in prng 1 horizon
  done;
  let schedule = ref [] in
  for time = 1 to horizon do
    let eligible = ref [] in
    for p = n - 1 downto 0 do
      if time > wake.(p) && time < crash.(p) then eligible := p :: !eligible
    done;
    let set = List.filter (fun _ -> Prng.float prng 1.0 < p_act) !eligible in
    let set =
      match (set, !eligible) with
      | [], _ :: _ ->
          [ List.nth !eligible (Prng.int prng (List.length !eligible)) ]
      | s, _ -> s
    in
    schedule := set :: !schedule
  done;
  (* Churn (crash-recovery pairs): always at least one for the churn-*
     mutants, whose planted bugs live in the recovery machinery; a
     minority of clean scenarios; never for protocol mutants, whose
     catch-rate calibration predates churn. *)
  let churn_mutant =
    match mutation with
    | Some m -> String.length m >= 6 && String.sub m 0 6 = "churn-"
    | None -> false
  in
  let with_churn =
    churn_mutant || (mutation = None && Prng.float prng 1.0 < 0.35)
  in
  let churn =
    if not with_churn then []
    else begin
      let count = 1 + Prng.int prng (min 3 n) in
      let taken = Hashtbl.create 8 in
      Array.iter (fun x -> Hashtbl.replace taken x ()) idents;
      let events = ref [] in
      for _ = 1 to count do
        let node = Prng.int prng n in
        if not (List.exists (fun ev -> ev.node = node) !events) then begin
          let crash_at = Prng.int_in prng 1 horizon in
          let recover_at = Prng.int_in prng crash_at horizon in
          (* fresh identifier: sometimes the smallest unused (recycling
             pressure on ident-sensitive logic), sometimes past the top *)
          let fresh_ident =
            if Prng.bool prng then begin
              let c = ref 0 in
              while Hashtbl.mem taken !c do
                incr c
              done;
              !c
            end
            else begin
              let top = ref 0 in
              Hashtbl.iter (fun x () -> if x > !top then top := x) taken;
              !top + 1
            end
          in
          Hashtbl.replace taken fresh_ident ();
          events := { node; crash_at; recover_at; fresh_ident } :: !events
        end
      done;
      List.rev !events
    end
  in
  { algo; mutation; graph; idents; schedule = List.rev !schedule; churn }

(* --- shrinking primitives -------------------------------------------- *)

let drop_steps t ~lo ~len =
  let schedule =
    List.filteri (fun i _ -> i < lo || i >= lo + len) t.schedule
  in
  (* Remap churn times (1-based) across the removed window [lo, lo+len)
     (0-based): a time inside the hole snaps to the first surviving step
     after it.  A pair whose recovery no longer fits the shorter schedule
     is dropped whole — crash and recovery always travel together. *)
  let remap time = if time <= lo then time else max (lo + 1) (time - len) in
  let horizon = List.length schedule in
  let churn =
    List.filter_map
      (fun ev ->
        let crash_at = remap ev.crash_at and recover_at = remap ev.recover_at in
        if recover_at <= horizon then Some { ev with crash_at; recover_at }
        else None)
      t.churn
  in
  { t with schedule; churn }

let thin_step t ~step ~drop =
  let schedule =
    List.mapi
      (fun i set ->
        if i <> step then set else List.filteri (fun j _ -> j <> drop) set)
      t.schedule
  in
  { t with schedule }

let drop_node t victim =
  match t.graph with
  | Cycle n when n > 3 ->
      let idents =
        Array.init (n - 1) (fun p ->
            if p < victim then t.idents.(p) else t.idents.(p + 1))
      in
      let remap p = if p < victim then Some p else if p = victim then None else Some (p - 1) in
      let schedule =
        List.map (fun set -> List.filter_map remap set) t.schedule
      in
      let churn =
        List.filter_map
          (fun ev ->
            match remap ev.node with
            | None -> None
            | Some node -> Some { ev with node })
          t.churn
      in
      Some { t with graph = Cycle (n - 1); idents; schedule; churn }
  | _ -> None

let drop_churn_event t i =
  if i < 0 || i >= List.length t.churn then None
  else Some { t with churn = List.filteri (fun j _ -> j <> i) t.churn }
