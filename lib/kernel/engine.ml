module Graph = Asyncolor_topology.Graph
module Mask = Asyncolor_util.Mask

(* A growable int buffer that the key encoder writes through one
   preallocated [emit] closure.  Unlike the polymorphic [Vec], its stores
   are plain int writes, with no write barrier. *)
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
  let rec b = { data = Array.make 16 0; len = 0; emit = (fun x -> kbuf_push b x) } in
  b

(* [config_key] and [config_key_offsets] encode into this per-domain
   scratch, so a key costs its own allocation and nothing else. *)
let scratch = Domain.DLS.new_key kbuf_create

(* The key hash is the polynomial [h <- 31 h + x] over the key's ints,
   modulo 2^62, then [mix]ed.  [Hashtbl] buckets on the low bits, and
   the polynomial's low bits alone fill only about a third of the
   buckets on the explorer's keys; the finaliser (a 63-bit variant of
   MurmurHash3's fmix64) spreads every input bit over the whole word. *)
let mix h =
  let h = (h lxor (h lsr 33)) * 0x3f51_afd7_ed55_8ccd in
  let h = (h lxor (h lsr 33)) * 0x04ce_b9fe_1a85_ec53 in
  (h lxor (h lsr 33)) land max_int

let hash_ints a =
  let h = ref 0 in
  for i = 0 to Array.length a - 1 do
    h := ((!h * 31) + a.(i)) land max_int
  done;
  !h

module Make (P : Protocol.S) = struct
  type event = {
    time : int;
    activated : int list;
    returned : (int * P.output) list;
    resets : (int * int) list;
  }

  type config = {
    c_states : P.state option array;
    c_status : P.output Status.t array;
    c_public : P.register option array;
    c_time : int;
    c_activations : int array;
  }

  (* No configuration's arrays are these, so an engine whose [last] is
     [no_config] takes the full path at its next [restore]. *)
  let no_config =
    {
      c_states = [||];
      c_status = [||];
      c_public = [||];
      c_time = 0;
      c_activations = [||];
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
    segs : kbuf array;
        (* [segs.(p)]: process [p]'s framed key segment, as of the last
           [key_probe] that refreshed it *)
    seg_hash : int array;  (* the polynomial hash of [segs.(p)] *)
    seg_pow : int array;  (* 31 ^ length of [segs.(p)], modulo 2^62 *)
    mutable stale : int;
        (* when [masked], bit [p] is set iff [segs.(p)] may differ from
           [p]'s live segment: set by every step for the processes it
           steps and by [restore] for those it rewrites, set whole by
           [reset] and a full [restore], cleared by [key_probe].
           Unmasked engines re-encode every segment. *)
    mutable last : config;
        (* the configuration restored last; [no_config] before the first
           [restore] and after a [reset] *)
    mutable touched : int;
        (* when [masked], bit [p] is set iff a step since the restore of
           [last] stepped [p]: every other process still holds [last]'s
           values *)
    mutable probe_bufs : int array array;
        (* [probe_bufs.(len)]: the buffer [key_probe] and
           [canonical_probe] return for keys of [len] ints ([[||]] until
           first needed) *)
    identity : int array;  (* the order [key_probe] writes segments in *)
    order : int array;  (* [canonical_probe]'s scratch: processes by segment *)
    rank : int array;  (* [canonical_probe]'s scratch: each segment's rank *)
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
      segs = Array.init n (fun _ -> kbuf_create ());
      seg_hash = Array.make n 0;
      seg_pow = Array.make n 1;
      stale = -1;
      last = no_config;
      touched = 0;
      probe_bufs = [||];
      identity = Array.init n Fun.id;
      order = Array.make n 0;
      rank = Array.make n 0;
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

  (* A step marks the processes it steps, once, from its live mask: their
     key segments go stale and a fast [restore] must rewrite them. *)
  let mark_stepped t live =
    t.stale <- t.stale lor live;
    t.touched <- t.touched lor live

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
    (* Every cached segment goes stale, and the next [restore] is a full
       one. *)
    t.stale <- -1;
    t.last <- no_config;
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
    if t.masked then
      mark_stepped t (List.fold_left (fun m p -> m lor (1 lsl p)) 0 set);
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
    mark_stepped t live;
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

  let snapshot t =
    {
      c_states = Array.copy t.states;
      c_status = Array.copy t.status;
      c_public = Array.copy t.public;
      c_time = t.time;
      c_activations = Array.copy t.activations;
    }

  (* Back to the configuration restored last, only the processes stepped
     since then differ from it: rewrite those and patch their [umask]
     bits.  Any other configuration is copied whole. *)
  let restore t c =
    if t.masked && c == t.last then begin
      let touched = t.touched in
      let m = ref touched and live = ref 0 in
      while !m <> 0 do
        let p = Mask.lowest_bit !m in
        t.states.(p) <- c.c_states.(p);
        t.status.(p) <- c.c_status.(p);
        t.public.(p) <- c.c_public.(p);
        t.activations.(p) <- c.c_activations.(p);
        if not (Status.is_returned c.c_status.(p)) then live := !live lor (1 lsl p);
        m := !m land (!m - 1)
      done;
      t.umask <- (t.umask land lnot touched) lor !live;
      t.stale <- t.stale lor touched;
      t.touched <- 0
    end
    else begin
      Array.blit c.c_states 0 t.states 0 (Array.length c.c_states);
      Array.blit c.c_status 0 t.status 0 (Array.length c.c_status);
      Array.blit c.c_public 0 t.public 0 (Array.length c.c_public);
      Array.blit c.c_activations 0 t.activations 0 (Array.length c.c_activations);
      if t.masked then t.umask <- unfinished_bits c.c_status;
      t.stale <- -1;
      t.touched <- 0;
      t.last <- c
    end;
    t.time <- c.c_time;
    t.unfinished_cache <- None

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

  let key_of_data kdata = { kdata; khash = mix (hash_ints kdata) }

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

  let config_key c =
    let b = Domain.DLS.get scratch in
    b.len <- 0;
    for p = 0 to Array.length c.c_status - 1 do
      encode_segment b ~status:c.c_status ~states:c.c_states ~public:c.c_public p
    done;
    key_of_data (Array.sub b.data 0 b.len)

  (* Re-encode process [p]'s cached segment from the live engine. *)
  let refresh_segment t p =
    let b = t.segs.(p) in
    b.len <- 0;
    encode_segment b ~status:t.status ~states:t.states ~public:t.public p;
    let h = ref 0 and pow = ref 1 in
    for i = 0 to b.len - 1 do
      h := ((!h * 31) + b.data.(i)) land max_int;
      pow := (!pow * 31) land max_int
    done;
    t.seg_hash.(p) <- !h;
    t.seg_pow.(p) <- !pow

  let probe_buf t len =
    if len >= Array.length t.probe_bufs then begin
      let bufs = Array.make ((2 * len) + 1) [||] in
      Array.blit t.probe_bufs 0 bufs 0 (Array.length t.probe_bufs);
      t.probe_bufs <- bufs
    end;
    let buf = t.probe_bufs.(len) in
    if Array.length buf = len then buf
    else begin
      let buf = Array.make len 0 in
      t.probe_bufs.(len) <- buf;
      buf
    end

  (* Re-encode the stale segments; the key's length. *)
  let refresh_stale t =
    let len = ref 0 in
    for p = 0 to n t - 1 do
      if (not t.masked) || t.stale land (1 lsl p) <> 0 then refresh_segment t p;
      len := !len + t.segs.(p).len
    done;
    t.stale <- 0;
    !len

  (* The key whose segments are the cached ones in [sigma] order, in the
     probe buffer.  The flat hash of a concatenation [a @ b] is
     [hash a * 31 ^ length b + hash b], so the segments' cached hashes
     combine into the key's without rereading a single int.  The copy
     loop is typed: its stores are plain int writes, where [Array.blit]
     into a major-heap buffer would take the write barrier per element. *)
  let write_key t len sigma =
    let buf = probe_buf t len in
    let h = ref 0 and off = ref 0 in
    for q = 0 to Array.length sigma - 1 do
      let p = sigma.(q) in
      h := ((!h * t.seg_pow.(p)) + t.seg_hash.(p)) land max_int;
      let seg = t.segs.(p) in
      let data = seg.data and o = !off in
      for i = 0 to seg.len - 1 do
        buf.(o + i) <- data.(i)
      done;
      off := o + seg.len
    done;
    { kdata = buf; khash = mix !h }

  let key_probe t = write_key t (refresh_stale t) t.identity

  (* Lexicographic order of the cached segments of processes [a] and
     [b].  A segment is self-delimiting (a tag, then framed payloads
     whose lengths it holds), so neither of two different segments is a
     prefix of the other: they differ inside the shorter one, and two
     that agree that far are equal. *)
  let compare_segs t a b =
    let sa = t.segs.(a) and sb = t.segs.(b) in
    let da = sa.data and db = sb.data in
    let m = if sa.len < sb.len then sa.len else sb.len in
    let i = ref 0 in
    while !i < m && da.(!i) = db.(!i) do
      incr i
    done;
    if !i < m then if da.(!i) < db.(!i) then -1 else 1
    else compare sa.len sb.len

  (* Since no segment is a prefix of another, two candidates first differ
     at the first position whose segments differ, and compare as those
     segments do.  So the segments are ranked once — sorted by insertion,
     equal segments sharing a rank — and the candidates are compared as
     their sequences of ranks, an int a position.  The least candidate
     wins, the first index attaining it winning ties; the orbit is
     [|G| / ties] by orbit-stabiliser, as in the explorer's
     [canonicalize]. *)
  let canonical_probe t group =
    check_mask_width t "canonical_probe";
    let len = refresh_stale t in
    let n = n t in
    let order = t.order and rank = t.rank in
    for p = 0 to n - 1 do
      let j = ref p in
      while !j > 0 && compare_segs t order.(!j - 1) p > 0 do
        order.(!j) <- order.(!j - 1);
        decr j
      done;
      order.(!j) <- p
    done;
    for i = 0 to n - 1 do
      rank.(order.(i)) <-
        (if i > 0 && compare_segs t order.(i - 1) order.(i) = 0 then
           rank.(order.(i - 1))
         else i)
    done;
    let best = ref 0 and ties = ref 1 in
    for i = 1 to Array.length group - 1 do
      let sigma = group.(i) and tau = group.(!best) in
      let r = ref 0 and q = ref 0 in
      while !r = 0 && !q < n do
        r := rank.(sigma.(!q)) - rank.(tau.(!q));
        incr q
      done;
      if !r < 0 then begin
        best := i;
        ties := 1
      end
      else if !r = 0 then incr ties
    done;
    let sigma = group.(!best) in
    let um = ref 0 in
    for q = 0 to n - 1 do
      if t.umask land (1 lsl sigma.(q)) <> 0 then um := !um lor (1 lsl q)
    done;
    (write_key t len sigma, !best, Array.length group / !ties, !um)

  let key_copy k = { k with kdata = Array.copy k.kdata }
  let key t = key_copy (key_probe t)

  let config_key_offsets c =
    let b = Domain.DLS.get scratch in
    b.len <- 0;
    let n = Array.length c.c_status in
    let offsets = Array.make (n + 1) 0 in
    for p = 0 to n - 1 do
      encode_segment b ~status:c.c_status ~states:c.c_states
        ~public:c.c_public p;
      offsets.(p + 1) <- b.len
    done;
    (key_of_data (Array.sub b.data 0 b.len), offsets)

  (* The inverse of [config_key]: walk the [n] framed segments, handing
     each framed payload to its protocol decoder.  The observers are not
     in the key, so they come back zero.  The walk threads one cursor
     record through top-level functions, so a decode allocates the
     configuration and nothing else. *)
  type cursor = { src : int array; src_len : int; mutable pos : int }

  let bad_key cur what =
    invalid_arg
      (Printf.sprintf "Engine.config_of_key_data: %s at %d of %d" what cur.pos
         cur.src_len)

  let next_int cur =
    if cur.pos >= cur.src_len then bad_key cur "key ends";
    let x = cur.src.(cur.pos) in
    cur.pos <- cur.pos + 1;
    x

  (* A framed field: its length, then the payload handed to [decode]. *)
  let framed cur decode =
    let l = next_int cur in
    let at = cur.pos in
    if l < 0 || at + l > cur.src_len then bad_key cur "bad frame";
    cur.pos <- at + l;
    decode cur.src at l

  let optional cur decode =
    match next_int cur with
    | 0 -> None
    | 1 -> Some (framed cur decode)
    | _ -> bad_key cur "bad option tag"

  let config_of_key_data ~n ?len data =
    let len = Option.value len ~default:(Array.length data) in
    let cur = { src = data; src_len = len; pos = 0 } in
    let c_status = Array.make n Status.Asleep in
    let c_states = Array.make n None in
    let c_public = Array.make n None in
    for p = 0 to n - 1 do
      c_status.(p) <-
        (match next_int cur with
        | 0 -> Status.Asleep
        | 1 -> Status.Working
        | 2 -> Status.Returned (framed cur P.decode_output)
        | _ -> bad_key cur "bad status tag");
      c_states.(p) <- optional cur P.decode_state;
      c_public.(p) <- optional cur P.decode_register
    done;
    if cur.pos <> len then bad_key cur "trailing data";
    { c_states; c_status; c_public; c_time = 0; c_activations = Array.make n 0 }

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

  (* A loop, not a local recursive function: a duplicate probe reaches
     the element compare on every lookup, and the closure such a function
     needs would be its only allocation. *)
  let key_equal a b =
    a.khash = b.khash
    &&
    let da = a.kdata and db = b.kdata in
    let la = Array.length da in
    la = Array.length db
    &&
    let i = ref 0 in
    while !i < la && da.(!i) = db.(!i) do
      incr i
    done;
    !i = la

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
