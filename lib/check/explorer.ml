module Vec = Asyncolor_util.Vec
module Executor = Asyncolor_util.Executor
module Intern = Asyncolor_util.Intern
module Int_log = Asyncolor_util.Int_log
module Level_log = Asyncolor_util.Level_log
module Varint = Level_log.Varint
module Checkpoint = Asyncolor_resilience.Checkpoint
module Chaos = Asyncolor_resilience.Chaos
module Budget = Asyncolor_resilience.Budget
module Spill = Asyncolor_resilience.Spill
module Diag = Asyncolor_resilience.Diag
module Obs = Asyncolor_obs.Obs

(* The explorer's observability handles, resolved once per run so the hot
   paths touch pre-looked-up counters (an atomic add each), never the
   sink's name registry.  [oc_configs] counts dense-id registrations and
   therefore always equals [report.configs] for a fresh (non-resumed)
   packed run — a property the qcheck suite pins at jobs 1/2/4. *)
type octx = {
  o : Obs.t;
  oc_configs : Obs.Counter.t;
  oc_transitions : Obs.Counter.t;
  oc_levels : Obs.Counter.t;
  oc_ckpt_saves : Obs.Counter.t;
  oc_wait_ns : Obs.Counter.t;  (* ns the merge spent blocked on futures *)
  oc_overlap : Obs.Counter.t;  (* submissions past the current level *)
  oc_orbit_hits : Obs.Counter.t;  (* successors remapped to a smaller orbit rep *)
  oc_canon_ns : Obs.Counter.t;  (* ns spent canonicalizing *)
  oc_spill_wb : Obs.Counter.t;  (* bytes written to spill files *)
  oc_spill_rb : Obs.Counter.t;  (* bytes read back from spill files *)
  og_frontier : Obs.Gauge.t;  (* widest BFS frontier *)
  og_overlap : Obs.Gauge.t;  (* most cross-level expansions in flight *)
  og_spill_levels : Obs.Gauge.t;  (* levels currently on disk *)
  og_heap : Obs.Gauge.t;  (* peak live heap words sampled at merge boundaries *)
  og_intern : Obs.Gauge.t;  (* bytes held by the intern store *)
  og_adj : Obs.Gauge.t;  (* bytes held by the resident adjacency stream *)
  og_tables : Obs.Gauge.t;  (* bytes held by the per-id tables *)
}

let make_octx o =
  {
    o;
    oc_configs = Obs.counter o "explorer.configs";
    oc_transitions = Obs.counter o "explorer.transitions";
    oc_levels = Obs.counter o "explorer.levels";
    oc_ckpt_saves = Obs.counter o "checkpoint.saves";
    oc_wait_ns = Obs.counter o "explorer.wait_ns";
    oc_overlap = Obs.counter o "explorer.overlap_submits";
    oc_orbit_hits = Obs.counter o "explorer.orbit_hits";
    oc_canon_ns = Obs.counter o "explorer.canon_ns";
    oc_spill_wb = Obs.counter o "spill.bytes_written";
    oc_spill_rb = Obs.counter o "spill.bytes_read";
    og_frontier = Obs.gauge o "explorer.frontier_max";
    og_overlap = Obs.gauge o "exec.kappa_overlap";
    og_spill_levels = Obs.gauge o "spill.levels_on_disk";
    og_heap = Obs.gauge o "explorer.peak_heap_words";
    og_intern = Obs.gauge o "explorer.intern_bytes";
    og_adj = Obs.gauge o "explorer.adj_bytes";
    og_tables = Obs.gauge o "explorer.table_bytes";
  }

(* --- activation subsets ------------------------------------------------ *)

let subset_of_mask mask =
  let acc = ref [] in
  for p = Sys.int_size - 2 downto 0 do
    if mask land (1 lsl p) <> 0 then acc := p :: !acc
  done;
  !acc

(* The activation set after [s] among those of the unfinished processes
   [unfinished], or 0 after the last; [next_mask mode unfinished 0] is
   the first.  The sets come in increasing order as masks: the next
   submask of [unfinished] ([`All_subsets]) or its next set bit
   ([`Singletons]), allocating nothing. *)
let next_mask mode unfinished s =
  match mode with
  | `All_subsets -> (s - unfinished) land unfinished
  | `Singletons ->
      let above = if s = 0 then unfinished else unfinished land -(s lsl 1) in
      above land -above

(* Shared across functor instances: experiments convert reports between
   differently-instantiated explorers, and the orbit statistics carry no
   protocol-specific type. *)
type orbit_stats = {
  group_order : int;
  expanded_configs : int;
  expanded_transitions : int;
  expanded_terminal : int;
}

module Make (P : Asyncolor_kernel.Protocol.S) = struct
  module E = Asyncolor_kernel.Engine.Make (P)

  type violation = { message : string; schedule : int list list }

  type report = {
    configs : int;
    transitions : int;
    terminal_configs : int;
    complete : bool;
    wait_free : bool;
    livelock : violation option;
    safety : violation list;
    worst_case_activations : int;
    orbit : orbit_stats option;
  }

  (* --- dihedral symmetry: ident-preserving automorphisms --------------- *)

  (* The subgroup the quotient runs under: the graph's index-dihedral
     automorphisms that also fix the identifier assignment pointwise —
     [P.init ~ident] bakes idents into states, so only ident-preserving
     permutations map reachable configurations to reachable ones.
     Identity first (the head of [Graph.automorphisms]), deterministic
     order throughout: the canonical representative below is a pure
     function of the configuration, whichever domain computes it. *)
  let symmetry_group ~symmetry graph ~idents =
    if not symmetry then
      [| Array.init (Asyncolor_topology.Graph.n graph) Fun.id |]
    else
      Asyncolor_topology.Graph.automorphisms graph
      |> List.filter (fun sigma ->
             let ok = ref true in
             Array.iteri
               (fun p sp -> if idents.(sp) <> idents.(p) then ok := false)
               sigma;
             !ok)
      |> Array.of_list

  (* Lexicographic comparison of two candidate keys read in place: the
     candidate of [sigma] is the concatenation of [data]'s slices
     [offs.(sigma.(0))..], [offs.(sigma.(1))..], ... — the key of
     [config_permute c sigma] (the engine's offsets invariant).  Each
     side is a cursor: slice index [q], position [i], slice end [e];
     [q = -1] with [i = e] is the start.  All candidates have the same
     length, so this is polymorphic [compare] on the built arrays, with
     no array built.  The [int array] annotation matters: without it [<]
     is a polymorphic [caml_compare] call per element. *)
  let rec compare_candidates (data : int array) offs sigma tau qa ia ea qb ib eb =
    if ia = ea then
      let qa = qa + 1 in
      if qa = Array.length sigma then 0
      else
        let p = sigma.(qa) in
        compare_candidates data offs sigma tau qa offs.(p) offs.(p + 1) qb ib
          eb
    else if ib = eb then
      let qb = qb + 1 in
      let p = tau.(qb) in
      compare_candidates data offs sigma tau qa ia ea qb offs.(p)
        offs.(p + 1)
    else
      let x = data.(ia) and y = data.(ib) in
      if x < y then -1
      else if x > y then 1
      else compare_candidates data offs sigma tau qa (ia + 1) ea qb (ib + 1) eb

  (* [canonicalize group c] is the orbit-canonicalization at the heart of
     the symmetry reduction: among the candidate keys
     [key_data (config_key (config_permute c sigma))] for every [sigma]
     in the group, pick the lexicographically least, the first index
     attaining it winning ties.  Candidates are compared in place over
     [c]'s key slices ({!E.config_key_offsets}); only the winner is
     materialised, and only when it is not the identity.  Returns
     [(key, representative, orbit size, winner index)]: the
     representative is [config_permute c group.(winner)].  The orbit
     size is [|G| / |Stab c|] by orbit–stabiliser, where the stabiliser
     is counted as the candidates equal to the least one (a coset of it);
     that is exact because [group] is a duplicate-free subgroup
     ({!symmetry_group}) and key equality is configuration equality (the
     {!Protocol.S} encoder contract).  With the trivial group this is
     [config_key] plus four words. *)
  let canonicalize group c =
    let g = Array.length group in
    if g = 1 then (E.config_key c, c, 1, 0)
    else begin
      let key, offs = E.config_key_offsets c in
      let data = E.key_data key in
      let best = ref 0 and ties = ref 1 in
      for i = 1 to g - 1 do
        let r =
          compare_candidates data offs group.(i) group.(!best) (-1) 0 0 (-1)
            0 0
        in
        if r < 0 then begin
          best := i;
          ties := 1
        end
        else if r = 0 then incr ties
      done;
      let bi = !best and orbit = g / !ties in
      if bi = 0 then (key, c, orbit, 0)
      else begin
        let sigma = group.(bi) in
        let out = Array.make (Array.length data) 0 in
        let at = ref 0 in
        for q = 0 to Array.length sigma - 1 do
          let p = sigma.(q) in
          let len = offs.(p + 1) - offs.(p) in
          Array.blit data offs.(p) out !at len;
          at := !at + len
        done;
        (E.key_of_data out, E.config_permute c sigma, orbit, bi)
      end
    end

  (* The packed configuration graph the BFS driver produces: flat int
     stores only — dense ids, CSR adjacency, parent pointers as (pred id,
     activation mask).  The boxed configurations themselves are not part
     of it; the BFS loop keeps them as keys in its intern store.  The
     tables are the driver's own [Int_log]s, read in place (no copy at
     the heap's peak).  The adjacency is a
     [Level_log] byte stream read row by row through a cursor: in place,
     or from an off-heap reassembly on a spilled run.  An edge is
     (mask, vid), plus under symmetry reduction [perm], an index into
     [group] of the automorphism [sigma] such that the true successor is
     the stored one permuted by [sigma] — the translation the worst-case
     DP needs to stay exact on the quotient ([perm] reads 0, the
     identity, without symmetry). *)
  type packed = {
    total : int;
    transitions : int;
    terminal : int;
    complete : bool;
    parent_pred : Int_log.t;  (* -1 at the root *)
    parent_mask : Int_log.t;
    adj_off : Int_log.t;  (* total + 1 byte offsets into the adjacency stream *)
    adj_cursor : unit -> Level_log.cursor;  (* a fresh cursor over its rows *)
    group : int array array;  (* symmetry group; singleton identity when off *)
    expanded : (int * int * int) option;
        (* orbit-expanded (configs, transitions, terminal) — symmetry only *)
    safety_raw : (string * int) list;  (* discovery order *)
  }

  (* Parent pointers give, for every configuration, one schedule prefix
     that reaches it. *)
  let schedule_to pred mask id =
    let rec loop id acc =
      let p = Int_log.get pred id in
      if p < 0 then acc
      else loop p (subset_of_mask (Int_log.get mask id) :: acc)
    in
    loop id []

  (* Cycle detection by DFS from the root over the packed adjacency; all
     stored configs are reachable from the root by construction.  The
     stack is explicit (ids + edge cursors + the masks of the current tree
     path), so the longest simple path of the configuration graph — which
     at K7 scale exceeds any native stack — costs heap words, not frames. *)
  let detect_livelock p =
    let c = p.adj_cursor () in
    let color = Bytes.make p.total '\000' in
    let finish = Int_log.create () in
    let livelock = ref None in
    let st_id = Vec.create ~capacity:64 ~dummy:0 () in
    let st_cur = Vec.create ~capacity:64 ~dummy:0 () in
    let path = Vec.create ~capacity:64 ~dummy:0 () in
    Vec.push st_id 0;
    Vec.push st_cur (Int_log.get p.adj_off 0);
    Bytes.set color 0 '\001';
    while Vec.length st_id > 0 && !livelock = None do
      let depth = Vec.length st_id - 1 in
      let u = Vec.get st_id depth in
      Level_log.seek c ~uid:u (Vec.get st_cur depth)
        (Int_log.get p.adj_off (u + 1));
      if Level_log.next c then begin
        Vec.set st_cur depth c.pos;
        let mask = c.mask and v = c.target in
        match Bytes.get color v with
        | '\000' ->
            Bytes.set color v '\001';
            Vec.push path mask;
            Vec.push st_id v;
            Vec.push st_cur (Int_log.get p.adj_off v)
        | '\001' ->
            (* A back edge: the masks on the tree path plus this one are a
               lasso schedule (prefix + cycle) witnessing the livelock. *)
            let sched = ref [ subset_of_mask mask ] in
            for i = Vec.length path - 1 downto 0 do
              sched := subset_of_mask (Vec.get path i) :: !sched
            done;
            livelock :=
              Some
                {
                  message =
                    Printf.sprintf
                      "livelock: configuration cycle via activation of working \
                       processes (cycle re-enters config %d)"
                      v;
                  schedule = !sched;
                }
        | _ -> ()
      end
      else begin
        ignore (Vec.pop st_id);
        ignore (Vec.pop st_cur);
        Bytes.set color u '\002';
        Int_log.push finish u;
        if Vec.length st_id > 0 then ignore (Vec.pop path)
      end
    done;
    (!livelock, finish)

  (* Exact worst case by longest-path DP over the DAG in topological order
     (the reversed finish order).  One flat [total * n] table of int32s
     off the OCaml heap, instead of a row array per configuration: half
     the bytes of an [int array], and the GC neither scans it nor paces
     the heap by it.  An entry counts one process's activations along a
     path of the acyclic configuration graph, so it stays below [total];
     the table refuses a graph of [2^31] configurations or more rather
     than let an entry wrap.

     Under symmetry reduction a quotient edge [u -(m, sigma)-> v] stands
     for the original transitions [c -m'-> d] with [c] in [u]'s orbit;
     position [q] of [v] holds the process that sat at position
     [sigma.(q)] of the true successor of [u], i.e. of [u] itself.  The
     recurrence therefore reads the predecessor row and the activation
     mask at the {e translated} index [sigma.(q)] — without it the DP
     double-counts whenever one process line enters a configuration whose
     representative renames it (a two-process clique with equal idents
     already exhibits the off-by-one). *)
  type dp_table = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

  let exact_worst ~n p finish =
    let c = p.adj_cursor () in
    if p.total > Int32.to_int Int32.max_int then
      failwith "Explorer.exact_worst: 2^31 configurations or more overflow the table";
    let dp : dp_table =
      Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout (p.total * n)
    in
    Bigarray.Array1.fill dp 0l;
    let best = ref 0 in
    for i = Int_log.length finish - 1 downto 0 do
      let u = Int_log.get finish i in
      let bu = u * n in
      Level_log.seek c ~uid:u (Int_log.get p.adj_off u)
        (Int_log.get p.adj_off (u + 1));
      while Level_log.next c do
        let mask = c.mask and v = c.target in
        let sigma = p.group.(c.perm) in
        let bv = v * n in
        for q = 0 to n - 1 do
          let qu = sigma.(q) in
          let du = Int32.to_int dp.{bu + qu} in
          let dv = Int32.to_int dp.{bv + q} in
          if mask land (1 lsl qu) <> 0 then begin
            let cand = du + 1 in
            if cand > dv then begin
              dp.{bv + q} <- Int32.of_int cand;
              if cand > !best then best := cand
            end
          end
          else if du > dv then dp.{bv + q} <- Int32.of_int du
        done
      done
    done;
    !best

  let finish_report ~octx ~n (p : packed) =
    let safety =
      List.map
        (fun (message, id) ->
          { message; schedule = schedule_to p.parent_pred p.parent_mask id })
        p.safety_raw
    in
    let livelock, finish =
      Obs.span octx.o "analyze.livelock" (fun () -> detect_livelock p)
    in
    let wait_free = livelock = None in
    let worst =
      if (not wait_free) || not p.complete then -1
      else Obs.span octx.o "analyze.worstcase" (fun () -> exact_worst ~n p finish)
    in
    {
      configs = p.total;
      transitions = p.transitions;
      terminal_configs = p.terminal;
      complete = p.complete;
      wait_free;
      livelock;
      safety;
      worst_case_activations = worst;
      orbit =
        Option.map
          (fun (c, t, term) ->
            {
              group_order = Array.length p.group;
              expanded_configs = c;
              expanded_transitions = t;
              expanded_terminal = term;
            })
          p.expanded;
    }

  (* --- crash-safe packed exploration: shared state --------------------- *)

  (* Everything the BFS driver mutates, gathered in one record so a
     checkpoint can snapshot it and a resumed run can pick it back up.
     A checkpoint persists it with the intern store and the first
     pending id; no configuration is part of either.  The per-id tables
     are append-only [Int_log]s: pushed once per id, never copied as
     they grow, read in place by the analyses. *)
  type bfs_state = {
    s_parent_pred : Int_log.t;
    s_parent_mask : Int_log.t;
    s_adj_off : Int_log.t;
    s_adj_data : Level_log.t;
        (* the adjacency stream — the one store whose closed prefix can
           leave the heap (see [Level_log]); offsets in [s_adj_off] are
           absolute byte offsets, so spilling never renumbers *)
    s_orbit : Int_log.t;  (* orbit size per dense id; empty when symmetry off *)
    mutable s_next_id : int;
    mutable s_transitions : int;
    mutable s_terminal : int;
    mutable s_exp_configs : int;  (* orbit-expanded counts; symmetry only *)
    mutable s_exp_transitions : int;
    mutable s_exp_terminal : int;
    mutable s_safety_rev : (string * int) list;  (* reverse discovery order *)
    mutable s_n_safety : int;
    mutable s_complete : bool;
  }

  let table_bytes st =
    Int_log.bytes st.s_parent_pred + Int_log.bytes st.s_parent_mask
    + Int_log.bytes st.s_adj_off + Int_log.bytes st.s_orbit

  (* The per-id tables take chunks of 64 Ki words, or of the spill
     threshold's power of two when that is smaller, so a small spilled
     run holds no mostly empty 512 KiB chunks. *)
  let fresh_state ~stride ?spill_threshold () =
    let chunk_words = Int_log.chunk_words_for ?threshold_words:spill_threshold () in
    let table () = Int_log.create ~chunk_words () in
    let st =
      {
        s_parent_pred = table ();
        s_parent_mask = table ();
        s_adj_off = table ();
        s_adj_data = Level_log.create ?threshold_words:spill_threshold ~stride ();
        s_orbit = table ();
        s_next_id = 0;
        s_transitions = 0;
        s_terminal = 0;
        s_exp_configs = 0;
        s_exp_transitions = 0;
        s_exp_terminal = 0;
        s_safety_rev = [];
        s_n_safety = 0;
        s_complete = true;
      }
    in
    Int_log.push st.s_adj_off 0;
    st

  (* Exploration parameters threaded through the BFS driver. *)
  type params = {
    mode : [ `All_subsets | `Singletons ];
    max_configs : int;
    max_violations : int;
    check_outputs : (P.output option array -> string option) option;
    check_config : (E.t -> string option) option;
    checkpoint : (string * int) option;
    budget : Budget.t option;
    stop : (configs:int -> bool) option;
    symmetry : bool;
    group : int array array;  (* singleton identity when symmetry off *)
    spill : (Spill.t * int) option;  (* store, threshold in entries (an edge is its stride) *)
    chaos : Chaos.t;
    octx : octx;
  }

  let spill_fetch ~params ~level =
    match params.spill with
    | None -> assert false  (* nothing ever seals without a threshold *)
    | Some (sp, _) ->
        let before = Spill.bytes_read sp in
        let data = Spill.read sp ~level in
        Obs.Counter.add params.octx.oc_spill_rb (Spill.bytes_read sp - before);
        data

  let stride_of ~symmetry = if symmetry then 3 else 2

  let packed_of_state ~params st =
    let adj_cursor =
      if Level_log.spilled_levels st.s_adj_data = 0 then
        (* Nothing left the heap: the analyses read the resident stream
           in place, with no second copy of it at the heap's peak. *)
        fun () -> Level_log.cursor st.s_adj_data
      else
        (* Off-heap reassembly: the analyses of a spilled run walk the
           stream's bytes in a bigarray the GC neither scans nor counts,
           so the peak-live-heap win of spilling survives the analysis
           phase. *)
        let flat = Level_log.reassemble ~fetch:(spill_fetch ~params) st.s_adj_data in
        let stride = stride_of ~symmetry:params.symmetry in
        fun () -> Level_log.flat_cursor ~stride flat
    in
    {
      total = st.s_next_id;
      transitions = st.s_transitions;
      terminal = st.s_terminal;
      complete = st.s_complete;
      parent_pred = st.s_parent_pred;
      parent_mask = st.s_parent_mask;
      adj_off = st.s_adj_off;
      adj_cursor;
      group = params.group;
      expanded =
        (if params.symmetry then
           Some (st.s_exp_configs, st.s_exp_transitions, st.s_exp_terminal)
         else None);
      safety_raw = List.rev st.s_safety_rev;
    }

  (* [unfinished]: the configuration's unfinished mask; [pred]/[mask]:
     its parent pointer, [-1]/[0] at the root. *)
  let register_st ~params st ~unfinished ~orbit ~pred ~mask =
    let id = st.s_next_id in
    st.s_next_id <- id + 1;
    Obs.Counter.incr params.octx.oc_configs;
    Int_log.push st.s_parent_pred pred;
    Int_log.push st.s_parent_mask mask;
    if params.symmetry then begin
      Int_log.push st.s_orbit orbit;
      st.s_exp_configs <- st.s_exp_configs + orbit
    end;
    if unfinished = 0 then begin
      st.s_terminal <- st.s_terminal + 1;
      if params.symmetry then st.s_exp_terminal <- st.s_exp_terminal + orbit
    end;
    id

  let has_predicates params =
    Option.is_some params.check_outputs || Option.is_some params.check_config

  (* Runs the safety predicates on configuration [id], which the engine
     must currently hold (seed contract). *)
  let safety_check ~params st engine id =
    if st.s_n_safety < params.max_violations then begin
      let record message =
        st.s_n_safety <- st.s_n_safety + 1;
        st.s_safety_rev <- (message, id) :: st.s_safety_rev
      in
      (match params.check_outputs with
      | None -> ()
      | Some f -> (
          match f (E.outputs engine) with
          | None -> ()
          | Some msg -> record msg));
      match params.check_config with
      | None -> ()
      | Some f -> (match f engine with None -> () | Some msg -> record msg)
    end

  let should_stop ~params st =
    (match params.stop with
    | Some f -> f ~configs:st.s_next_id
    | None -> false)
    ||
    match params.budget with Some b -> Budget.exceeded b | None -> false

  (* --- checkpoint payload ---------------------------------------------- *)

  (* Marshalled as the payload of an [Asyncolor_resilience.Checkpoint]
     container.  The intern store is saved as its image — the arena's
     varint bytes and one offset per dense id — and rebuilt with
     [Intern.of_image], the hashes recomputed on load, never trusted.
     Every int log is saved as its chunks ([segments]), the adjacency
     stream as its bytes (closed levels read back, then the tail's
     chunks) with its rows' byte offsets.  The pending
     configurations are the ids [ck_pending_from, ck_next_id): interned,
     not yet expanded, in FIFO order; a resumed run rebuilds each from
     its key when it expands it, as an uninterrupted run does.  The BFS
     loop expands pending entries in id order and assigns dense ids in
     expansion order, so a resumed run — under any [jobs] value or
     policy — produces the same report, byte for byte, as one that was
     never interrupted. *)
  type ckpt = {
    ck_protocol : string;
    ck_graph : Asyncolor_topology.Graph.t;
    ck_idents : int array;
    ck_mode : [ `All_subsets | `Singletons ];
    ck_max_configs : int;
    ck_max_violations : int;
    ck_next_id : int;
    ck_transitions : int;
    ck_terminal : int;
    ck_complete : bool;
    ck_parent_pred : int array array;
    ck_parent_mask : int array array;
    ck_adj_off : int array array;
    ck_adj_data : Bytes.t array;  (* the stream's varint bytes; offsets in bytes *)
    ck_safety_rev : (string * int) list;
    ck_symmetry : bool;
    ck_orbit : int array array;  (* orbit size by dense id; empty when symmetry off *)
    ck_expanded : int * int * int;
        (* orbit-expanded (configs, transitions, terminal) so far *)
    ck_store : Intern.image;  (* packed keys, by dense id *)
    ck_pending_from : int;  (* the first pending id *)
  }

  (* Bump whenever the [ckpt] record or the engine's key packing changes
     shape — [Checkpoint.load] rejects any other version, so a file of an
     earlier one fails to resume with an error that names its version.
     v2: symmetry fields (ck_symmetry/ck_orbit/ck_expanded) and the
     stride-3 adjacency encoding under symmetry.
     v3: the intern store's image instead of boxed keys, int logs as
     their chunks instead of copies, and the pending configurations as
     an id range instead of marshalled configurations — a save holds no
     configuration and decodes no key.
     v4: the adjacency stream as the [Level_log]'s varint bytes, its row
     offsets in bytes.
     The adjacency stream is persisted in full even on a spilled run
     (closed levels are read back at save time), so a
     checkpoint stays a single self-contained file and resuming needs no
     spill directory — the resumed run re-spills as its own levels
     close. *)
  let ckpt_version = 4

  (* A log as its chunks: each full chunk shared with the log, the last
     one cut to length.  [iter] is the log's chunk iterator. *)
  let segments ~length ~sub iter =
    let acc = ref [] in
    iter (fun data n -> acc := (if n = length data then data else sub data 0 n) :: !acc);
    Array.of_list (List.rev !acc)

  let int_segments = segments ~length:Array.length ~sub:Array.sub
  let byte_segments = segments ~length:Bytes.length ~sub:Bytes.sub

  let save_ckpt ~params ~graph ~idents st store ~pending_from path =
    Obs.Counter.incr params.octx.oc_ckpt_saves;
    Obs.span params.octx.o
      ~args:[ ("configs", string_of_int st.s_next_id) ]
      "checkpoint.save"
    @@ fun () ->
    Checkpoint.save_rotated ~chaos:params.chaos ~path
      ~version:ckpt_version
      {
        ck_protocol = P.name;
        ck_graph = graph;
        ck_idents = Array.copy idents;
        ck_mode = params.mode;
        ck_max_configs = params.max_configs;
        ck_max_violations = params.max_violations;
        ck_next_id = st.s_next_id;
        ck_transitions = st.s_transitions;
        ck_terminal = st.s_terminal;
        ck_complete = st.s_complete;
        ck_parent_pred = int_segments (Int_log.iter_chunks st.s_parent_pred);
        ck_parent_mask = int_segments (Int_log.iter_chunks st.s_parent_mask);
        ck_adj_off = int_segments (Int_log.iter_chunks st.s_adj_off);
        ck_adj_data =
          byte_segments
            (Level_log.iter_segments ~fetch:(spill_fetch ~params) st.s_adj_data);
        ck_safety_rev = st.s_safety_rev;
        ck_symmetry = params.symmetry;
        ck_orbit = int_segments (Int_log.iter_chunks st.s_orbit);
        ck_expanded = (st.s_exp_configs, st.s_exp_transitions, st.s_exp_terminal);
        ck_store = Intern.image store;
        ck_pending_from = pending_from;
      }

  (* Intern the key [eng]'s last probe wrote, whose hash is [hash]. *)
  let intern_probe store eng hash =
    Intern.intern_encoded store ~hash (E.probe_bytes eng) ~pos:0
      ~len:(E.probe_length eng)

  (* --- the BFS driver: one loop for every policy and for resume -------- *)

  (* Live-heap high-water mark, sampled at every 1024th merged id and
     once where the loop exits — the number the bench's [peak_live_words]
     field and the CLI's spill-pressure diagnostics read back.
     [Gc.quick_stat] reads cached GC state, no heap walk. *)
  let sample_heap ~params =
    if Obs.enabled params.octx.o then
      Obs.Gauge.max_ params.octx.og_heap (Gc.quick_stat ()).Gc.heap_words

  (* An I/O failure — a checkpoint save, or a spill write or read — is
     not retried: it ends the run the way a spent budget does, cleanly,
     with a truncated [complete = false] report and the last good
     checkpoint left to resume from (save_rotated never installs a
     corrupt file as last-good).  Never an exception out of the BFS. *)
  let note_io_error io_error what e =
    if !io_error = None then begin
      io_error := Some what;
      Diag.printf "io: %s failed permanently (%s); truncating run\n" what
        (Printexc.to_string e)
    end

  let io_failed = function
    | Chaos.Injected _ | Checkpoint.Corrupt _ | Sys_error _ | Unix.Unix_error _
      ->
        true
    | _ -> false

  (* The pending configurations — interned but not yet expanded — are
     the dense ids [!next, st.s_next_id): every intern miss appends one,
     and the loop expands them in id order, so they are a FIFO that
     needs no storage of its own.  A pending configuration is only its
     key in the intern store; [config_of_id] decodes it when it is
     expanded ({!E.config_of_key_data}, observers zero).  Each iteration
     folds the head entry's successors, in [next_mask] order, into the
     packed state through [merge] (intern, dense id, adjacency, parent,
     safety checks) under the [max_configs] cap.  Every output derives
     from this one order, so the report is byte-identical for every
     [jobs] value and every policy.

     Only where the successors come from depends on the executor:

     - {e One job}: the merging domain decodes and expands the entry
       itself, walking its activation sets with [next_mask], and a
       successor is never snapshotted.  The live engine is keyed in
       place: by {!E.key_probe} without symmetry, by
       {!E.canonical_probe} over the engine's segment cache with it.
       Either writes the key once, already in the store's byte encoding,
       from the cached segments' bytes; the store compares the probe's
       bytes (and copies them into its arena on a miss), so a duplicate
       costs the stale segments' encoding and one compare.  Spill writes
       run inline.

     - {e Two or more jobs}: a submission cursor ([submit_pos]) runs ahead
       of the merge, decoding pending entries (the store has one owner,
       the merging domain) and handing them to the executor as futures
       that touch no shared state (each domain restores its own engine
       and canonicalises each successor with {!E.canonical_probe}); the
       merge awaits the {e head} future, whatever the completion order.
       A future's result is one buffer of successor records whose keys
       are the probes' bytes, copied as they are, so the merge interns a
       key with a byte compare (a hit) or a blit (a miss), and nothing
       is boxed or re-encoded per successor.  [stream_window] bounds the
       futures in flight, and a position past the current level boundary
       is submittable only once a κ fraction of the level has merged
       (κ = 1: a barrier per level).  Spill levels are written by background
       tasks.

     A predicate runs on the merging domain's engine.  When that engine
     does not hold the representative — at two jobs and more, or when
     the winner is not the identity — the representative is rebuilt
     from the key just interned, as a pending configuration is.

     The merge boundary doubles as the crash-safety boundary: before
     merging each entry the loop may write a periodic checkpoint (pending
     = the id range) and polls the stop callback and resource budget.  On
     a hit it writes a final checkpoint, then degrades exactly like the
     [max_configs] cap: pending configurations that still have working
     processes mark the exploration incomplete, and every unexpanded
     entry keeps an empty adjacency row. *)
  let run ~params ?policy ~jobs ~graph ~idents st store ~pending_from =
    let octx = params.octx in
    let o = octx.o in
    Executor.with_executor ~obs:o ?policy ~jobs
    @@ fun exec ->
    let inline = Executor.jobs exec = 1 in
    let window = Executor.stream_window exec in
    let kappa = Executor.policy_kappa (Executor.policy exec) in
    let n = Asyncolor_topology.Graph.n graph in
    (* The merging domain's engine: it expands at one job, and it hosts
       the safety predicates at every job count. *)
    let engine = E.create graph ~idents in
    let key_buf = ref [||] in
    let config_of_id id =
      let len = Intern.seq_length store id in
      if Array.length !key_buf < len then key_buf := Array.make (2 * len) 0;
      Intern.blit store id !key_buf;
      E.config_of_key_data ~n ~len !key_buf
    in
    let next = ref pending_from in
    (* Canonicalises the successor [eng] holds, on whichever domain
       expanded it: a pure function of the successor, so the merge sees
       the same (key, winner, orbit, mask) whatever the schedule. *)
    let probe eng =
      let t0 = if params.symmetry then Obs.now o else 0L in
      let r = E.canonical_probe eng params.group in
      if params.symmetry then
        Obs.Counter.add octx.oc_canon_ns
          (Int64.to_int (Int64.sub (Obs.now o) t0));
      r
    in
    let within_cap () =
      if st.s_next_id >= params.max_configs then st.s_complete <- false;
      st.s_next_id < params.max_configs
    in
    (* Folds one successor of [uid], already interned as [vid], into the
       packed state: [um], [orbit] and [pi] are its representative's
       unfinished mask, orbit size and winner index.  At one job with
       [pi = 0] the engine holds the representative, and [um] is read
       from it on a miss (the path without symmetry passes a
       placeholder). *)
    let merge uid orbit_u mask vid ~um ~orbit ~pi =
      st.s_transitions <- st.s_transitions + 1;
      Obs.Counter.incr octx.oc_transitions;
      if params.symmetry then begin
        if pi <> 0 then Obs.Counter.incr octx.oc_orbit_hits;
        st.s_exp_transitions <- st.s_exp_transitions + orbit_u
      end;
      if vid = st.s_next_id then begin
        (* A miss: the store appended the key under the next dense id,
           which makes it pending. *)
        let holds = inline && pi = 0 in
        let unfinished = if holds then E.unfinished_mask engine else um in
        let id = register_st ~params st ~unfinished ~orbit ~pred:uid ~mask in
        assert (id = vid);
        (* The predicates read [engine] (seed contract): one that does
           not hold the representative is given it, rebuilt from the key
           just interned, as a pending configuration is. *)
        if has_predicates params && not holds then
          E.restore engine (config_of_id vid);
        safety_check ~params st engine id
      end;
      Level_log.push st.s_adj_data ~uid ~mask ~target:vid ~perm:pi
    in
    let expand_inline uid orbit_u config =
      let um = E.config_unfinished_mask config in
      let mask = ref (next_mask params.mode um 0) in
      while !mask <> 0 do
        if within_cap () then begin
          E.restore engine config;
          E.activate_mask engine !mask;
          if params.symmetry then begin
            let hash, pi, orbit, um = probe engine in
            merge uid orbit_u !mask (intern_probe store engine hash) ~um ~orbit ~pi
          end
          else
            merge uid orbit_u !mask
              (intern_probe store engine (E.key_probe engine))
              ~um:0 ~orbit:1 ~pi:0
        end;
        mask := next_mask params.mode um !mask
      done
    in
    (* One private engine and record buffer per expanding domain,
       created lazily on first expansion (the caller gets one too — it
       helps execute tasks while waiting). *)
    let engine_key = Domain.DLS.new_key (fun () -> E.create graph ~idents) in
    let records_key = Domain.DLS.new_key (fun () -> ref (Bytes.create 4096)) in
    (* An expansion task's result: one record per successor, in [next_mask]
       order — its mask, its representative's unfinished mask, orbit
       size and winner index as varints, its key's hash as 8 bytes, then
       the byte length of its key and the key as the intern store holds
       it, copied from the probe.  The merge interns the key from these
       bytes ({!Intern.intern_encoded}), so a successor crosses domains
       as a few bytes, not boxed values. *)
    let expand config () =
      let um = E.config_unfinished_mask config in
      if um = 0 then Bytes.empty
      else begin
        let eng = Domain.DLS.get engine_key in
        let out = Domain.DLS.get records_key in
        let pos = ref 0 in
        let mask = ref (next_mask params.mode um 0) in
        while !mask <> 0 do
          E.restore eng config;
          E.activate_mask eng !mask;
          let hash, pi, orbit, um' = probe eng in
          let len = E.probe_length eng in
          (* Five varints and the hash, then the key: at most 9 bytes a
             varint. *)
          let room = 53 + len in
          if !pos + room > Bytes.length !out then begin
            let b = Bytes.create (2 * (!pos + room)) in
            Bytes.blit !out 0 b 0 !pos;
            out := b
          end;
          let b = !out in
          let p = Varint.put b !pos !mask in
          let p = Varint.put b p um' in
          let p = Varint.put b p orbit in
          let p = Varint.put b p pi in
          Bytes.set_int64_le b p (Int64.of_int hash);
          let p = Varint.put b (p + 8) len in
          Bytes.blit (E.probe_bytes eng) 0 b p len;
          pos := p + len;
          mask := next_mask params.mode um !mask
        done;
        Bytes.sub !out 0 !pos
      end
    in
    (* The merge's half of [expand]: folds each record of [records] into
       the packed state. *)
    let merge_records uid orbit_u records =
      let p = ref 0 in
      while !p < Bytes.length records do
        let mask = Varint.read records p in
        let um = Varint.read records p in
        let orbit = Varint.read records p in
        let pi = Varint.read records p in
        let hash = Int64.to_int (Bytes.get_int64_le records !p) in
        p := !p + 8;
        let len = Varint.read records p in
        let pos = !p in
        p := pos + len;
        if within_cap () then
          merge uid orbit_u mask
            (Intern.intern_encoded store ~hash records ~pos ~len)
            ~um ~orbit ~pi
      done
    in
    (* Spill writes in flight on background tasks: drained before any
       checkpoint save (which rereads closed levels) and before the final
       analysis reassembly.  A write failure — inline or background — is
       latched into [spill_err] (lowest level wins, for a deterministic
       diagnostic) and surfaces at the next merge boundary: the run fails
       at the faulting seal, not at reassembly time.  The failed level's
       data stays resident in the spill store, so the reassembly still
       sees every byte. *)
    let spill_futs : unit Executor.future list ref = ref [] in
    let spill_err : (int * exn) option Atomic.t = Atomic.make None in
    let note_spill_err level e =
      let rec latch () =
        match Atomic.get spill_err with
        | Some (l, _) when l <= level -> ()
        | cur ->
            if not (Atomic.compare_and_set spill_err cur (Some (level, e)))
            then latch ()
      in
      latch ()
    in
    (* Close the adjacency tail as a spill level if it crossed the
       threshold.  Called only after the last entry of a BFS level, where
       every pushed edge is final, so a spill file holds whole BFS levels
       (one each at threshold 0).  The bytes handed over by
       [Level_log.seal] are a fresh copy and level files are distinct, so
       the only ordering that matters — written before reread — is
       enforced by [drain_spills]. *)
    let seal () =
      match params.spill with
      | None -> ()
      | Some (sp, _) -> (
          match Level_log.seal st.s_adj_data with
          | None -> ()
          | Some (level, data) ->
              let write () =
                try
                  Obs.Counter.add octx.oc_spill_wb (Spill.write sp ~level data);
                  Obs.Gauge.max_ octx.og_spill_levels (Spill.levels_on_disk sp)
                with e when io_failed e -> note_spill_err level e
              in
              if inline then write ()
              else spill_futs := Executor.submit exec write :: !spill_futs)
    in
    let drain_spills () =
      List.iter Executor.await !spill_futs;
      spill_futs := []
    in
    let io_error = ref None in
    let check_spill_err () =
      match Atomic.get spill_err with
      | Some (level, e) ->
          note_io_error io_error
            (Printf.sprintf "spill write (level %d)" level)
            e
      | None -> ()
    in
    let last_ck = ref st.s_next_id in
    let maybe_checkpoint ~force () =
      match params.checkpoint with
      | Some (path, every)
        when (force || st.s_next_id - !last_ck >= max 1 every)
             && !io_error = None -> (
          drain_spills ();
          check_spill_err ();
          if !io_error = None then
            match
              save_ckpt ~params ~graph ~idents st store ~pending_from:!next path
            with
            | () ->
                last_ck := st.s_next_id;
                Diag.printf "checkpoint: %d configs, %d pending -> %s\n"
                  st.s_next_id (st.s_next_id - !next) path
            | exception e when io_failed e ->
                note_io_error io_error "checkpoint save" e)
      | _ -> ()
    in
    (* Futures for submitted-but-unmerged entries, in submission (id)
       order: the merge always takes the head; unused at one job. *)
    let futs = Queue.create () in
    let submit_pos = ref pending_from in
    (* On resume the whole pending range plays the role of the current
       frontier (it may span what were several levels originally —
       level accounting is observability, never output). *)
    let level = ref 0 in
    let lvl_lo = ref pending_from in
    let lvl_hi = ref st.s_next_id in
    let open_level () =
      Obs.Counter.incr octx.oc_levels;
      Obs.Gauge.max_ octx.og_frontier (!lvl_hi - !lvl_lo);
      Some
        (Obs.begin_span o
           ~args:
             [
               ("level", string_of_int !level);
               ("frontier", string_of_int (!lvl_hi - !lvl_lo));
               ("configs", string_of_int st.s_next_id);
             ]
           "bfs.level")
    in
    let sp_level = ref (if !lvl_hi > !lvl_lo then open_level () else None) in
    let close_level () =
      Option.iter (Obs.end_span o) !sp_level;
      sp_level := None
    in
    let stopped = ref false in
    while !next < st.s_next_id && not !stopped do
      let uid = !next in
      if uid = !lvl_hi then begin
        close_level ();
        incr level;
        lvl_lo := !lvl_hi;
        lvl_hi := st.s_next_id;
        sp_level := open_level ()
      end;
      maybe_checkpoint ~force:false ();
      check_spill_err ();
      if should_stop ~params st || !io_error <> None then stopped := true
      else begin
        let orbit_u = if params.symmetry then Int_log.get st.s_orbit uid else 1 in
        if inline then expand_inline uid orbit_u (config_of_id uid)
        else begin
          (* Top up the pipeline.  A position inside the current level is
             always submittable (window permitting); one past it only
             once a κ fraction of the level has merged. *)
          let need =
            int_of_float
              (Float.ceil (kappa *. float_of_int (!lvl_hi - !lvl_lo)))
          in
          let gate_open p = p < !lvl_hi || uid - !lvl_lo >= need in
          while
            !submit_pos < st.s_next_id
            && !submit_pos - uid < window
            && gate_open !submit_pos
          do
            let p = !submit_pos in
            Queue.push (Executor.submit exec (expand (config_of_id p))) futs;
            if p >= !lvl_hi then begin
              Obs.Counter.incr octx.oc_overlap;
              Obs.Gauge.max_ octx.og_overlap (p - !lvl_hi + 1)
            end;
            incr submit_pos
          done;
          Executor.note_inflight exec (!submit_pos - uid);
          if !submit_pos < st.s_next_id && !submit_pos - uid >= window
          then Executor.note_backpressure exec;
          let t0 = Obs.now o in
          let records = Executor.await (Queue.take futs) in
          Obs.Counter.add octx.oc_wait_ns
            (Int64.to_int (Int64.sub (Obs.now o) t0));
          merge_records uid orbit_u records
        end;
        Int_log.push st.s_adj_off (Level_log.offset st.s_adj_data);
        if uid + 1 = !lvl_hi then seal ();
        if uid land 1023 = 0 then sample_heap ~params;
        incr next
      end
    done;
    close_level ();
    sample_heap ~params;
    Obs.Gauge.set octx.og_intern (Intern.bytes store);
    Obs.Gauge.set octx.og_adj (Level_log.bytes st.s_adj_data);
    Obs.Gauge.set octx.og_tables (table_bytes st);
    if !stopped then begin
      (* In-flight futures are abandoned (the executor drains them on
         shutdown); every unexpanded entry is still pending for the final
         checkpoint and the truncation accounting. *)
      maybe_checkpoint ~force:true ();
      for p = !next to st.s_next_id - 1 do
        if E.config_unfinished_mask (config_of_id p) <> 0 then
          st.s_complete <- false;
        Int_log.push st.s_adj_off (Level_log.offset st.s_adj_data)
      done
    end;
    drain_spills ();
    check_spill_err ();
    if !io_error <> None then st.s_complete <- false;
    packed_of_state ~params st

  (* The root run: intern the all-asleep configuration and drive the BFS
     from it.  The root is fixed by every ident-preserving automorphism
     (orbit size 1), so canonicalizing it is a no-op — but going through
     [E.canonical_probe] keeps the invariant that every interned key is
     canonical without a special case. *)
  let explore_fresh ~params ?policy ~jobs graph ~idents =
    let st =
      fresh_state
        ~stride:(stride_of ~symmetry:params.symmetry)
        ?spill_threshold:(Option.map snd params.spill) ()
    in
    let store = Intern.create () in
    let engine = E.create graph ~idents in
    let hash, _, orbit, unfinished = E.canonical_probe engine params.group in
    let root_id =
      register_st ~params st ~unfinished ~orbit ~pred:(-1) ~mask:0
    in
    ignore (intern_probe store engine hash : int);
    safety_check ~params st engine root_id;
    run ~params ?policy ~jobs ~graph ~idents st store ~pending_from:root_id

  let explore ?(max_configs = 500_000) ?(max_violations = 5)
      ?(mode = `All_subsets) ?(jobs = 1) ?policy ?checkpoint ?budget ?stop
      ?(symmetry = false) ?spill ?(chaos = Chaos.disabled) ?check_outputs
      ?check_config ?(obs = Obs.disabled) graph ~idents =
    let n = Asyncolor_topology.Graph.n graph in
    if n > Sys.int_size - 1 then
      invalid_arg "Explorer.explore: packed activation masks need n <= 62";
    let octx = make_octx obs in
    let packed =
      Obs.span obs ~args:[ ("n", string_of_int n) ] "explore" @@ fun () ->
      (* A killed predecessor may have left [path ^ ".tmp"] between write
         and rename; sweep it before the first save. *)
      Option.iter
        (fun (path, _) -> ignore (Checkpoint.clean_stale ~path))
        checkpoint;
      let params =
        {
          mode;
          max_configs;
          max_violations;
          check_outputs;
          check_config;
          checkpoint;
          budget;
          stop;
          symmetry;
          group = symmetry_group ~symmetry graph ~idents;
          spill;
          chaos;
          octx;
        }
      in
      explore_fresh ~params ?policy ~jobs graph ~idents
    in
    finish_report ~octx ~n packed

  (* --- resuming from a checkpoint -------------------------------------- *)

  type resume_info = {
    ri_graph : Asyncolor_topology.Graph.t;
    ri_idents : int array;
    ri_mode : [ `All_subsets | `Singletons ];
    ri_max_configs : int;
    ri_max_violations : int;
    ri_configs : int;
    ri_pending : int;
  }

  let key_hash_of_data data = E.key_hash (E.key_of_data data)

  (* A saved adjacency stream pushed again, row by row, into a fresh log:
     [edges u start stop f] calls [f mask target perm] for each edge of
     row [u], which lies between saved offsets [start] and [stop].
     Returns the log and its row offsets.  Damage the walk or the
     encoder trips over is a corrupt checkpoint. *)
  let relog ?threshold_words ~stride ~chunk_words offs edges =
    let log = Level_log.create ?threshold_words ~stride () in
    let log_off = Int_log.create ~chunk_words () in
    (try
       Array.iteri
         (fun u off ->
           if u > 0 then
             edges (u - 1) offs.(u - 1) off (fun mask target perm ->
                 Level_log.push log ~uid:(u - 1) ~mask ~target ~perm);
           Int_log.push log_off (Level_log.offset log))
         offs
     with Invalid_argument msg ->
       raise (Checkpoint.Corrupt ("checkpoint adjacency: " ^ msg)));
    (log, log_off)

  let load_ckpt ?(chaos = Chaos.disabled) path =
    let c : ckpt = Checkpoint.load_rotated ~chaos ~path ~version:ckpt_version () in
    if c.ck_protocol <> P.name then
      raise
        (Checkpoint.Corrupt
           (Printf.sprintf "checkpoint is for protocol %S, not %S"
              c.ck_protocol P.name));
    if c.ck_pending_from < 0 || c.ck_pending_from > c.ck_next_id then
      raise (Checkpoint.Corrupt "checkpoint pending range outside its ids");
    c

  let resume_info path =
    let c = load_ckpt path in
    {
      ri_graph = c.ck_graph;
      ri_idents = Array.copy c.ck_idents;
      ri_mode = c.ck_mode;
      ri_max_configs = c.ck_max_configs;
      ri_max_violations = c.ck_max_violations;
      ri_configs = c.ck_next_id;
      ri_pending = c.ck_next_id - c.ck_pending_from;
    }

  (* The saved stream is pushed again, row by row, into a log with the
     resumed run's spill threshold: its chunk size, hence its padding and
     offsets, may differ from the saving run's. *)
  let state_of_ckpt ?spill_threshold (c : ckpt) =
    let exp_c, exp_t, exp_term = c.ck_expanded in
    let chunk_words = Int_log.chunk_words_for ?threshold_words:spill_threshold () in
    let table segs =
      let log = Int_log.create ~chunk_words () in
      Array.iter (Array.iter (Int_log.push log)) segs;
      log
    in
    let stride = stride_of ~symmetry:c.ck_symmetry in
    let saved = Level_log.flat_cursor ~stride (Level_log.flat_of_segments c.ck_adj_data) in
    let adj, adj_off =
      relog ?threshold_words:spill_threshold ~stride ~chunk_words
        (Array.concat (Array.to_list c.ck_adj_off))
        (fun u start stop f ->
          Level_log.seek saved ~uid:u start stop;
          while Level_log.next saved do
            f saved.mask saved.target saved.perm
          done)
    in
    {
      s_parent_pred = table c.ck_parent_pred;
      s_parent_mask = table c.ck_parent_mask;
      s_adj_off = adj_off;
      s_adj_data = adj;
      s_orbit = table c.ck_orbit;
      s_next_id = c.ck_next_id;
      s_transitions = c.ck_transitions;
      s_terminal = c.ck_terminal;
      s_exp_configs = exp_c;
      s_exp_transitions = exp_t;
      s_exp_terminal = exp_term;
      s_safety_rev = c.ck_safety_rev;
      s_n_safety = List.length c.ck_safety_rev;
      s_complete = c.ck_complete;
    }

  let explore_resume ?(jobs = 1) ?policy ?checkpoint ?budget ?stop ?spill
      ?(chaos = Chaos.disabled) ?check_outputs ?check_config
      ?(obs = Obs.disabled) path =
    let octx = make_octx obs in
    (* The process being resumed may have died mid-save: sweep its stale
       tmp (and any at the new checkpoint target) before touching disk. *)
    ignore (Checkpoint.clean_stale ~path);
    Option.iter
      (fun (p, _) -> ignore (Checkpoint.clean_stale ~path:p))
      checkpoint;
    let c =
      Obs.span obs "checkpoint.load" (fun () -> load_ckpt ~chaos path)
    in
    let graph = c.ck_graph and idents = c.ck_idents in
    let n = Asyncolor_topology.Graph.n graph in
    let params =
      {
        mode = c.ck_mode;
        max_configs = c.ck_max_configs;
        max_violations = c.ck_max_violations;
        check_outputs;
        check_config;
        checkpoint;
        budget;
        stop;
        (* Symmetry is the checkpoint's property, not the caller's: the
           persisted adjacency stride and orbit accounts depend on it, so
           a resumed run always continues under the recorded setting. *)
        symmetry = c.ck_symmetry;
        group = symmetry_group ~symmetry:c.ck_symmetry graph ~idents;
        spill;
        chaos;
        octx;
      }
    in
    let st = state_of_ckpt ?spill_threshold:(Option.map snd spill) c in
    let store =
      match Intern.of_image c.ck_store ~hash:key_hash_of_data with
      | store -> store
      | exception Invalid_argument msg ->
          raise (Checkpoint.Corrupt ("checkpoint key store: " ^ msg))
    in
    if Intern.length store <> c.ck_next_id then
      raise (Checkpoint.Corrupt "checkpoint keys do not match its ids");
    finish_report ~octx ~n
      (run ~params ?policy ~jobs ~graph ~idents st store
         ~pending_from:c.ck_pending_from)

  let pp_report ppf r =
    Format.fprintf ppf
      "@[<v>configs=%d transitions=%d terminal=%d complete=%b wait_free=%b \
       worst_activations=%d safety_violations=%d%a%a@]"
      r.configs r.transitions r.terminal_configs r.complete r.wait_free
      r.worst_case_activations (List.length r.safety)
      (fun ppf -> function
        | None -> ()
        | Some s ->
            Format.fprintf ppf
              "@,orbit: group=%d expanded_configs=%d expanded_transitions=%d \
               expanded_terminal=%d"
              s.group_order s.expanded_configs s.expanded_transitions
              s.expanded_terminal)
      r.orbit
      (fun ppf -> function
        | None -> ()
        | Some v -> Format.fprintf ppf "@,livelock: %s" v.message)
      r.livelock
end
