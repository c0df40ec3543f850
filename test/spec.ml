(* The paper's state model (§2.1–2.2) executed literally, and a
   breadth-first oracle for the explorer built on it.

   Processes sit on the nodes of a graph, each with one single-writer
   register that its neighbours read; a register reads ⊥ ([None]) until
   its owner first writes.  A step is a set of processes: all of them
   write, then all of them read, then all of them update.  An asleep
   process runs [init ~ident] at its first activation and takes its round
   in that same step; a returned process ignores activations.

   Configurations are immutable arrays, identified by the protocol's own
   encoders.  The module calls nothing of the library but [Protocol.S]
   and the graph's neighbour lists: no engine, no key packing, no intern
   store, no adjacency log, no mask walk.  So a bug in the explorer's
   step core, keys or enumeration cannot sit on both sides of a
   differential against it. *)

module Graph = Asyncolor_topology.Graph
module Step = Asyncolor_kernel.Step

(* The activation sets of [procs]: every nonempty subset ([2^k - 1] of
   them) or the singletons, in increasing order as masks — bit [i] of
   [m] picks the [i]-th process of [procs]. *)
let subsets mode procs =
  let procs = Array.of_list procs in
  let k = Array.length procs in
  let picks m = List.filter (fun i -> m land (1 lsl i) <> 0) (List.init k Fun.id) in
  List.init ((1 lsl k) - 1) (fun m -> List.map (Array.get procs) (picks (m + 1)))
  |> List.filter (fun set -> mode = `All_subsets || List.length set = 1)

module Make (P : Asyncolor_kernel.Protocol.S) = struct
  type status = Asleep | Working | Returned of P.output

  type config = {
    status : status array;
    state : P.state option array;  (* [None] until the first activation *)
    register : P.register option array;  (* [None] is ⊥ *)
  }

  let initial n =
    {
      status = Array.make n Asleep;
      state = Array.make n None;
      register = Array.make n None;
    }

  let returned c p = match c.status.(p) with Returned _ -> true | _ -> false
  let outputs c = Array.map (function Returned o -> Some o | _ -> None) c.status

  let unfinished c =
    List.filter (fun p -> not (returned c p)) (List.init (Array.length c.status) Fun.id)

  (* The processes of [set] that take a round: each once, returned ones
     dropped. *)
  let live c set = List.filter (fun p -> not (returned c p)) (List.sort_uniq compare set)

  let step graph ~idents c set =
    let set = live c set in
    let status = Array.copy c.status
    and state = Array.copy c.state
    and register = Array.copy c.register in
    (* write: an asleep process wakes with its initial state first *)
    List.iter
      (fun p ->
        let s = match state.(p) with Some s -> s | None -> P.init ~ident:idents.(p) in
        state.(p) <- Some s;
        status.(p) <- Working;
        register.(p) <- Some (P.publish s))
      set;
    (* read: every view is taken after every write of the step *)
    let views =
      List.map
        (fun p -> (p, Array.map (Array.get register) (Graph.neighbours graph p)))
        set
    in
    (* update: a returning process keeps its last state *)
    List.iter
      (fun (p, view) ->
        match P.transition (Option.get state.(p)) ~view with
        | Step.Continue s -> state.(p) <- Some s
        | Step.Return o -> status.(p) <- Returned o)
      views;
    { status; state; register }

  (* The configurations a schedule passes through, the initial one first. *)
  let trace graph ~idents schedule =
    let rec go c acc = function
      | [] -> List.rev (c :: acc)
      | set :: rest -> go (step graph ~idents c set) (c :: acc) rest
    in
    go (initial (Graph.n graph)) [] schedule

  (* Configuration identity: each process's status, state and register
     through the protocol's encoders, each int as 8 bytes, every field
     length-prefixed and ⊥ as length -1. *)
  let key c =
    let b = Buffer.create 256 in
    let int i = Buffer.add_int64_le b (Int64.of_int i) in
    let field encode x =
      let xs = ref [] in
      encode (fun i -> xs := i :: !xs) x;
      int (List.length !xs);
      List.iter int (List.rev !xs)
    in
    let opt encode = function None -> int (-1) | Some x -> field encode x in
    Array.iteri
      (fun p st ->
        (match st with
        | Asleep -> int 0
        | Working -> int 1
        | Returned o ->
            int 2;
            field P.encode_output o);
        opt P.encode_state c.state.(p);
        opt P.encode_register c.register.(p))
      c.status;
    Buffer.contents b

  type node = {
    config : config;
    mutable succ : (int list * int) list;  (* discovery order, reversed *)
  }

  type report = {
    nodes : node array;  (* by BFS id *)
    index : (string, int) Hashtbl.t;  (* key -> id *)
    transitions : int;
    terminal : int;
    complete : bool;
    wait_free : bool;
    worst : int;  (* -1 when cyclic or truncated *)
    safety : string list;  (* messages, discovery order *)
  }

  let find r c = Hashtbl.find_opt r.index (key c)

  (* Longest path by depth-first search over the successor lists:
     [best.(u).(q)] is the most activations of process [q] on a path from
     [u].  A successor still on the search path is a cycle. *)
  let analyse ~n nodes =
    let total = Array.length nodes in
    let colour = Array.make total `White and best = Array.make total [||] in
    let cyclic = ref false in
    let rec visit u =
      colour.(u) <- `Grey;
      let acc = Array.make n 0 in
      List.iter
        (fun (set, v) ->
          if colour.(v) = `Grey then cyclic := true
          else begin
            if colour.(v) = `White then visit v;
            Array.iteri
              (fun q x ->
                let x = if List.mem q set then x + 1 else x in
                if x > acc.(q) then acc.(q) <- x)
              best.(v)
          end)
        (List.rev nodes.(u).succ);
      colour.(u) <- `Black;
      best.(u) <- acc
    in
    visit 0;
    (not !cyclic, Array.fold_left max 0 best.(0))

  (* FIFO BFS from the all-asleep configuration: ids in discovery order,
     each configuration's activation sets in [subsets] order.  Once
     [max_configs] configurations are known no further successor is
     taken, and each one skipped marks the run incomplete.  The safety
     predicate runs on every new configuration while fewer than
     [max_violations] violations are recorded. *)
  let explore ?(max_configs = 500_000) ?(max_violations = 5) ?check_outputs ~mode
      graph ~idents =
    let n = Graph.n graph in
    let index = Hashtbl.create 1024 and nodes = ref [] and count = ref 0 in
    let queue = Queue.create () in
    let transitions = ref 0 and terminal = ref 0 and complete = ref true in
    let safety = ref [] in
    let add config =
      let id = !count in
      incr count;
      Hashtbl.add index (key config) id;
      let node = { config; succ = [] } in
      nodes := node :: !nodes;
      if unfinished config = [] then incr terminal;
      (match check_outputs with
      | Some f when List.length !safety < max_violations ->
          Option.iter (fun m -> safety := m :: !safety) (f (outputs config))
      | _ -> ());
      Queue.add node queue;
      id
    in
    ignore (add (initial n) : int);
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      List.iter
        (fun set ->
          if !count < max_configs then begin
            let c = step graph ~idents u.config set in
            let v =
              match Hashtbl.find_opt index (key c) with Some v -> v | None -> add c
            in
            incr transitions;
            u.succ <- (set, v) :: u.succ
          end
          else complete := false)
        (subsets mode (unfinished u.config))
    done;
    let nodes = Array.of_list (List.rev !nodes) in
    let wait_free, longest = analyse ~n nodes in
    {
      nodes;
      index;
      transitions = !transitions;
      terminal = !terminal;
      complete = !complete;
      wait_free;
      worst = (if wait_free && !complete then longest else -1);
      safety = List.rev !safety;
    }
end
