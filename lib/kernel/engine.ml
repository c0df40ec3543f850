module Graph = Asyncolor_topology.Graph
module Mask = Asyncolor_util.Mask

(* A growable int buffer that the key encoder writes through one
   preallocated [emit] closure.  The engine owns one, so [key] on the
   live engine allocates nothing but the key itself.  Unlike the
   polymorphic [Vec], its stores are plain int writes, with no write
   barrier. *)
type kbuf = { mutable data : int array; mutable len : int; emit : int -> unit }

let kbuf_push b x =
  if b.len = Array.length b.data then begin
    let data = Array.make (2 * b.len) 0 in
    Array.blit b.data 0 data 0 b.len;
    b.data <- data
  end;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

(* A framed field: [kbuf_open] writes a length placeholder, the payload
   encoder runs, and [kbuf_close] patches the placeholder with the
   payload's length. *)
let kbuf_open b =
  let at = b.len in
  kbuf_push b 0;
  at

let kbuf_close b at = b.data.(at) <- b.len - at - 1

let kbuf_create () =
  let rec b = { data = Array.make 64 0; len = 0; emit = (fun x -> kbuf_push b x) } in
  b

module Make (P : Protocol.S) = struct
  type event = {
    time : int;
    activated : int list;
    returned : (int * P.output) list;
    resets : (int * int) list;
  }

  type t = {
    graph : Graph.t;
    idents : int array;
    mutable states : P.state option array;  (* None while asleep *)
    status : P.output Status.t array;
    public : P.register option array;
    activations : int array;
    mutable time : int;
    mutable monitor : (t -> unit) option;
    mutable trace : event list;  (* reverse chronological *)
    record_trace : bool;
    mutable unfinished_cache : int list option;
        (* memoised [unfinished]; invalidated whenever a process returns or
           a snapshot is restored *)
    masked : bool;  (* [n <= Sys.int_size - 1]: [umask] is maintained *)
    mutable umask : int;
        (* when [masked], bit [p] is set iff process [p] has not returned:
           set by [create] and [reset], cleared by [read_and_update] when
           [p] returns, recomputed by [restore] *)
    views : P.register option array array;
        (* one view buffer per node, sized by its degree and refilled at
           each of its rounds (the [Protocol.S.transition] lifetime rule) *)
    mutable step_returned : (int * P.output) list;
        (* the current step's returns, newest first; traced runs only *)
    kbuf : kbuf;  (* scratch for [key] *)
  }

  (* Bit [p] set iff [status.(p)] has not returned (for at most
     [Sys.int_size - 1] processes). *)
  let unfinished_bits status =
    let m = ref 0 in
    for p = 0 to Array.length status - 1 do
      if not (Status.is_returned status.(p)) then m := !m lor (1 lsl p)
    done;
    !m

  let create ?(record_trace = false) graph ~idents =
    let n = Graph.n graph in
    if Array.length idents <> n then
      invalid_arg "Engine.create: idents length must match node count";
    let masked = n <= Sys.int_size - 1 in
    {
      graph;
      idents = Array.copy idents;
      states = Array.make n None;
      status = Array.make n Status.Asleep;
      public = Array.make n None;
      activations = Array.make n 0;
      time = 0;
      monitor = None;
      trace = [];
      record_trace;
      unfinished_cache = None;
      masked;
      umask = (if masked then (1 lsl n) - 1 else 0);
      views = Array.init n (fun p -> Array.make (Graph.degree graph p) None);
      step_returned = [];
      kbuf = kbuf_create ();
    }

  let graph t = t.graph
  let n t = Graph.n t.graph
  let time t = t.time
  let ident t p = t.idents.(p)
  let status t p = t.status.(p)

  let state t p =
    match t.states.(p) with
    | Some s -> s
    | None -> invalid_arg "Engine.state: process still asleep"

  let public t p = t.public.(p)
  let activations t p = t.activations.(p)
  let max_activations t = Array.fold_left max 0 t.activations

  let unfinished t =
    match t.unfinished_cache with
    | Some l -> l
    | None ->
        let acc = ref [] in
        for p = n t - 1 downto 0 do
          if not (Status.is_returned t.status.(p)) then acc := p :: !acc
        done;
        t.unfinished_cache <- Some !acc;
        !acc

  let all_returned t =
    if t.masked then t.umask = 0 else Array.for_all Status.is_returned t.status

  let outputs t = Array.map Status.output t.status

  let check_mask_width t what =
    if not t.masked then
      invalid_arg
        (Printf.sprintf "Engine.%s: bitmask activation needs n <= %d" what
           (Sys.int_size - 1))

  let unfinished_mask t =
    check_mask_width t "unfinished_mask";
    t.umask

  let set_monitor t f = t.monitor <- Some f
  let trace t = List.rev t.trace

  (* One time step.  Phase 1: all activated processes wake (if needed) and
     write; phase 2: all of them read and update.  This matches the paper's
     simultaneous-round semantics. *)

  let wake_and_write t p =
    (match t.states.(p) with
    | None ->
        t.states.(p) <- Some (P.init ~ident:t.idents.(p));
        t.status.(p) <- Status.Working
    | Some _ -> ());
    t.public.(p) <- Some (P.publish (Option.get t.states.(p)))

  let read_and_update t p =
    t.activations.(p) <- t.activations.(p) + 1;
    let nbrs = Graph.neighbours t.graph p in
    let view = t.views.(p) in
    for i = 0 to Array.length nbrs - 1 do
      view.(i) <- t.public.(nbrs.(i))
    done;
    match P.transition (Option.get t.states.(p)) ~view with
    | Step.Continue s -> t.states.(p) <- Some s
    | Step.Return o ->
        t.status.(p) <- Status.Returned o;
        t.unfinished_cache <- None;
        if t.masked then t.umask <- t.umask land lnot (1 lsl p);
        if t.record_trace then t.step_returned <- (p, o) :: t.step_returned

  let finish_step t set =
    if t.record_trace then begin
      t.trace <-
        {
          time = t.time;
          activated = set;
          returned = List.rev t.step_returned;
          resets = [];
        }
        :: t.trace;
      t.step_returned <- []
    end;
    match t.monitor with None -> () | Some f -> f t

  (* Recovery event (the dynamic-model extension): the process on node [p]
     leaves the execution and a brand-new one takes its place — asleep,
     holding input identifier [ident], its register back to [⊥].  Freshness
     of [ident] with respect to the live identifiers is the caller's
     contract (see [Asyncolor_workload.Idents.fresh]); the engine only
     installs it.  Neighbours observe the change through their next
     register read, exactly as they observe a first write.  The activation
     counter restarts, so wait-freedom bounds are per incarnation. *)
  let reset t p ~ident =
    let n = n t in
    if p < 0 || p >= n then
      invalid_arg
        (Printf.sprintf "Engine.reset: process index %d out of range [0, %d)" p
           n);
    t.idents.(p) <- ident;
    t.states.(p) <- None;
    t.status.(p) <- Status.Asleep;
    t.public.(p) <- None;
    t.activations.(p) <- 0;
    t.unfinished_cache <- None;
    if t.masked then t.umask <- t.umask lor (1 lsl p);
    if t.record_trace then
      t.trace <-
        { time = t.time; activated = []; returned = []; resets = [ (p, ident) ] }
        :: t.trace

  let activate t set =
    (* Validate before any mutation: a bad index must leave the engine
       untouched (time not advanced, nobody woken). *)
    let n = n t in
    List.iter
      (fun p ->
        if p < 0 || p >= n then
          invalid_arg
            (Printf.sprintf
               "Engine.activate: process index %d out of range [0, %d)" p n))
      set;
    t.time <- t.time + 1;
    let set = List.sort_uniq compare set in
    let set = List.filter (fun p -> not (Status.is_returned t.status.(p))) set in
    List.iter (fun p -> wake_and_write t p) set;
    t.step_returned <- [];
    List.iter (fun p -> read_and_update t p) set;
    finish_step t set

  (* Same step, set given as a bitmask over process indices.  Returned
     processes drop out exactly as in [activate] (the [umask] filter);
     bits are visited in ascending index order, matching the sorted lists
     [activate] builds — the two entry points are observably identical on
     equal sets.  The walk costs O(popcount live), and the mask path
     allocates nothing per step unless a trace is recorded. *)
  let activate_mask t mask =
    check_mask_width t "activate_mask";
    let n = n t in
    if mask < 0 || mask lsr n <> 0 then
      invalid_arg
        (Printf.sprintf
           "Engine.activate_mask: mask %#x names processes outside [0, %d)" mask
           n);
    t.time <- t.time + 1;
    let live = mask land t.umask in
    let m = ref live in
    while !m <> 0 do
      wake_and_write t (Mask.lowest_bit !m);
      m := !m land (!m - 1)
    done;
    t.step_returned <- [];
    m := live;
    while !m <> 0 do
      read_and_update t (Mask.lowest_bit !m);
      m := !m land (!m - 1)
    done;
    if t.record_trace || Option.is_some t.monitor then begin
      let set = ref [] in
      for p = n - 1 downto 0 do
        if live land (1 lsl p) <> 0 then set := p :: !set
      done;
      finish_step t !set
    end

  let pp_spacetime ppf t =
    let n = n t in
    let events = List.rev t.trace in
    (* Walked chronologically so recovery is renderable: a process can
       return, be reset ([+]) and work again — a static "returned at"
       table cannot express that. *)
    let done_ = Array.make n false in
    Format.fprintf ppf "@[<v> t\\p ";
    for p = 0 to n - 1 do
      Format.fprintf ppf "%d" (p mod 10)
    done;
    List.iter
      (fun (e : event) ->
        Format.fprintf ppf "@,%4d " e.time;
        for p = 0 to n - 1 do
          let c =
            if List.mem_assoc p e.resets then '+'
            else if List.mem_assoc p e.returned then 'R'
            else if done_.(p) then '_'
            else if List.mem p e.activated then '#'
            else '.'
          in
          Format.pp_print_char ppf c
        done;
        List.iter (fun (p, _) -> done_.(p) <- true) e.returned;
        List.iter (fun (p, _) -> done_.(p) <- false) e.resets)
      events;
    Format.fprintf ppf "@]"

  let pp_snapshot ppf t =
    Format.fprintf ppf "@[<v>t=%d (%s)" t.time P.name;
    for p = 0 to n t - 1 do
      let pp_opt pp ppf = function
        | None -> Format.pp_print_string ppf "⊥"
        | Some x -> pp ppf x
      in
      Format.fprintf ppf "@,  p%d id=%d %a: state=%a reg=%a acts=%d" p t.idents.(p)
        (Status.pp P.pp_output) t.status.(p) (pp_opt P.pp_state) t.states.(p)
        (pp_opt P.pp_register) t.public.(p) t.activations.(p)
    done;
    Format.fprintf ppf "@]"

  type config = {
    c_states : P.state option array;
    c_status : P.output Status.t array;
    c_public : P.register option array;
    c_time : int;
    c_activations : int array;
  }

  let snapshot t =
    {
      c_states = Array.copy t.states;
      c_status = Array.copy t.status;
      c_public = Array.copy t.public;
      c_time = t.time;
      c_activations = Array.copy t.activations;
    }

  let restore t c =
    Array.blit c.c_states 0 t.states 0 (Array.length c.c_states);
    Array.blit c.c_status 0 t.status 0 (Array.length c.c_status);
    Array.blit c.c_public 0 t.public 0 (Array.length c.c_public);
    Array.blit c.c_activations 0 t.activations 0 (Array.length c.c_activations);
    t.time <- c.c_time;
    t.unfinished_cache <- None;
    if t.masked then t.umask <- unfinished_bits c.c_status

  (* Configuration identity covers only the process-visible part
     (states, statuses, registers); the observers captured for [restore]
     (time, activation counters) are deliberately excluded. *)
  let config_compare (a : config) (b : config) =
    compare
      (a.c_states, a.c_status, a.c_public)
      (b.c_states, b.c_status, b.c_public)

  (* --- packed configuration keys ----------------------------------- *)

  (* A key is the per-process concatenation of status, state and register,
     flattened to integers by the protocol's encoders.  Variable-length
     payloads are length-prefixed here, so key equality coincides with
     structural configuration equality as long as the encoders are
     injective (the {!Protocol.S} contract). *)

  type key = { kdata : int array; khash : int }

  let hash_ints a =
    let h = ref 0 in
    for i = 0 to Array.length a - 1 do
      h := ((!h * 31) + a.(i)) land max_int
    done;
    !h

  (* Append process [p]'s framed segment to [b], reading the three
     visible arrays of a configuration or of the live engine alike.
     [config_key] is the in-order concatenation of these segments, so a
     permuted concatenation is exactly the key of the correspondingly
     permuted configuration — the invariant the explorer's orbit
     canonicalization leans on. *)
  let encode_segment b ~status ~states ~public p =
    (match status.(p) with
    | Status.Asleep -> kbuf_push b 0
    | Status.Working -> kbuf_push b 1
    | Status.Returned o ->
        kbuf_push b 2;
        let at = kbuf_open b in
        P.encode_output b.emit o;
        kbuf_close b at);
    (match states.(p) with
    | None -> kbuf_push b 0
    | Some s ->
        kbuf_push b 1;
        let at = kbuf_open b in
        P.encode_state b.emit s;
        kbuf_close b at);
    match public.(p) with
    | None -> kbuf_push b 0
    | Some r ->
        kbuf_push b 1;
        let at = kbuf_open b in
        P.encode_register b.emit r;
        kbuf_close b at

  let encode_key b ~status ~states ~public =
    b.len <- 0;
    for p = 0 to Array.length status - 1 do
      encode_segment b ~status ~states ~public p
    done;
    let kdata = Array.sub b.data 0 b.len in
    { kdata; khash = hash_ints kdata }

  let config_key c =
    encode_key (kbuf_create ()) ~status:c.c_status ~states:c.c_states
      ~public:c.c_public

  let key t = encode_key t.kbuf ~status:t.status ~states:t.states ~public:t.public

  let config_key_offsets c =
    let b = kbuf_create () in
    let n = Array.length c.c_status in
    let offsets = Array.make (n + 1) 0 in
    for p = 0 to n - 1 do
      encode_segment b ~status:c.c_status ~states:c.c_states
        ~public:c.c_public p;
      offsets.(p + 1) <- b.len
    done;
    let kdata = Array.sub b.data 0 b.len in
    ({ kdata; khash = hash_ints kdata }, offsets)

  let config_permute c perm =
    let n = Array.length c.c_status in
    if Array.length perm <> n then
      invalid_arg "Engine.config_permute: permutation length must match n";
    {
      c_states = Array.init n (fun q -> c.c_states.(perm.(q)));
      c_status = Array.init n (fun q -> c.c_status.(perm.(q)));
      c_public = Array.init n (fun q -> c.c_public.(perm.(q)));
      c_time = c.c_time;
      c_activations = Array.init n (fun q -> c.c_activations.(perm.(q)));
    }

  let key_hash k = k.khash
  let key_data k = k.kdata
  let key_of_data kdata = { kdata; khash = hash_ints kdata }

  let key_equal a b =
    a.khash = b.khash
    &&
    let la = Array.length a.kdata in
    la = Array.length b.kdata
    &&
    let rec eq i = i >= la || (a.kdata.(i) = b.kdata.(i) && eq (i + 1)) in
    eq 0

  module Key_tbl = Hashtbl.Make (struct
    type t = key

    let equal = key_equal
    let hash = key_hash
  end)

  let config_unfinished c =
    let acc = ref [] in
    for p = Array.length c.c_status - 1 downto 0 do
      if not (Status.is_returned c.c_status.(p)) then acc := p :: !acc
    done;
    !acc

  let config_unfinished_mask c =
    let n = Array.length c.c_status in
    if n > Sys.int_size - 1 then
      invalid_arg "Engine.config_unfinished_mask: needs n <= word size - 1";
    unfinished_bits c.c_status

  let config_outputs c = Array.map Status.output c.c_status

  type run_result = {
    steps : int;
    rounds : int;
    activations_per_process : int array;
    outputs : P.output option array;
    all_returned : bool;
    schedule_ended : bool;
  }

  let result ~schedule_ended t =
    {
      steps = t.time;
      rounds = max_activations t;
      activations_per_process = Array.copy t.activations;
      outputs = outputs t;
      all_returned = all_returned t;
      schedule_ended;
    }

  let run ?(max_steps = 1_000_000) t (adv : Adversary.t) =
    let rec loop () =
      if all_returned t then result ~schedule_ended:false t
      else if t.time >= max_steps then result ~schedule_ended:false t
      else
        match adv.next ~time:(t.time + 1) ~unfinished:(unfinished t) with
        | None -> result ~schedule_ended:true t
        | Some set ->
            activate t set;
            loop ()
    in
    loop ()
end
