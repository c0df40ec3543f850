module Vec = Asyncolor_util.Vec
module Mask = Asyncolor_util.Mask
module Ring = Asyncolor_util.Ring
module Executor = Asyncolor_util.Executor
module Intern = Asyncolor_util.Intern
module Level_log = Asyncolor_util.Sharded_tbl.Level_log
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
  }

(* --- activation subsets: list form (reference) and packed form --------- *)

let subsets_of mode procs =
  match (mode, procs) with
  | _, [] -> []
  | `Singletons, procs -> List.map (fun p -> [ p ]) procs
  | `All_subsets, procs ->
      let procs = Array.of_list procs in
      let k = Array.length procs in
      List.init ((1 lsl k) - 1) (fun m ->
          let mask = m + 1 in
          let acc = ref [] in
          for i = k - 1 downto 0 do
            if mask land (1 lsl i) <> 0 then acc := procs.(i) :: !acc
          done;
          !acc)

let subset_of_mask mask =
  let acc = ref [] in
  for p = Sys.int_size - 2 downto 0 do
    if mask land (1 lsl p) <> 0 then acc := p :: !acc
  done;
  !acc

let mask_of_subset subset = List.fold_left (fun m p -> m lor (1 lsl p)) 0 subset

(* The packed counterpart of [subsets_of]: all activation sets drawn from
   the set bits of [unfinished], as bitmasks, in an order whose unpacked
   lists are exactly [subsets_of mode (subset_of_mask unfinished)] —
   element for element.  That order identity is what keeps the packed
   explorer's reports (parent pointers, adjacency, lasso schedules)
   byte-identical to the reference implementation. *)
let masks_of mode unfinished =
  match mode with
  | `Singletons ->
      let k = ref 0 in
      let m = ref unfinished in
      while !m <> 0 do
        incr k;
        m := !m land (!m - 1)
      done;
      let out = Array.make !k 0 in
      let i = ref 0 in
      for p = 0 to Sys.int_size - 2 do
        if unfinished land (1 lsl p) <> 0 then begin
          out.(!i) <- 1 lsl p;
          incr i
        end
      done;
      out
  | `All_subsets ->
      let k = Mask.popcount unfinished in
      let positions = Array.make k 0 in
      let m = ref unfinished in
      for i = 0 to k - 1 do
        positions.(i) <- Mask.lowest_bit !m;
        m := !m land (!m - 1)
      done;
      if k = 0 then [||]
      else
        Array.init
          ((1 lsl k) - 1)
          (fun m ->
            let c = m + 1 in
            let mask = ref 0 in
            for i = 0 to k - 1 do
              if c land (1 lsl i) <> 0 then mask := !mask lor (1 lsl positions.(i))
            done;
            !mask)

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

  module CMap = Map.Make (struct
    type t = E.config

    let compare = E.config_compare
  end)

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

  (* The packed configuration graph the reference oracle and the BFS
     driver both produce: flat int stores only — dense ids, CSR
     adjacency, parent pointers as (pred id, activation mask).  The boxed
     configurations themselves are not part of it; the driver keeps only
     the pending ones alive.  Adjacency is accessed through [adj_get] so
     a spilled run can reassemble it into off-heap storage: entries are
     (mask, vid) pairs at [adj_stride = 2], or (mask, vid, perm) triples
     at stride 3 under symmetry reduction, where [perm] indexes [group]
     with the automorphism [sigma] such that the true successor is the
     stored one permuted by [sigma] — the translation the worst-case DP
     needs to stay exact on the quotient. *)
  type packed = {
    total : int;
    transitions : int;
    terminal : int;
    complete : bool;
    parent_pred : int array;  (* -1 at the root *)
    parent_mask : int array;
    adj_off : int array;  (* total + 1 offsets into the adjacency stream *)
    adj_get : int -> int;  (* flattened adjacency stream *)
    adj_stride : int;  (* 2, or 3 with per-edge automorphism indices *)
    group : int array array;  (* symmetry group; singleton identity when off *)
    expanded : (int * int * int) option;
        (* orbit-expanded (configs, transitions, terminal) — symmetry only *)
    safety_raw : (string * int) list;  (* discovery order *)
  }

  (* Parent pointers give, for every configuration, one schedule prefix
     that reaches it. *)
  let schedule_to pred mask id =
    let rec loop id acc =
      let p = pred.(id) in
      if p < 0 then acc else loop p (subset_of_mask mask.(id) :: acc)
    in
    loop id []

  (* Cycle detection by DFS from the root over the packed adjacency; all
     stored configs are reachable from the root by construction.  The
     stack is explicit (ids + edge cursors + the masks of the current tree
     path), so the longest simple path of the configuration graph — which
     at K7 scale exceeds any native stack — costs heap words, not frames. *)
  let detect_livelock p =
    let ad = p.adj_get in
    let stride = p.adj_stride in
    let color = Bytes.make p.total '\000' in
    let finish = Vec.create ~capacity:1024 ~dummy:0 () in
    let livelock = ref None in
    let st_id = Vec.create ~capacity:64 ~dummy:0 () in
    let st_cur = Vec.create ~capacity:64 ~dummy:0 () in
    let path = Vec.create ~capacity:64 ~dummy:0 () in
    Vec.push st_id 0;
    Vec.push st_cur p.adj_off.(0);
    Bytes.set color 0 '\001';
    while Vec.length st_id > 0 && !livelock = None do
      let depth = Vec.length st_id - 1 in
      let u = Vec.get st_id depth in
      let cur = Vec.get st_cur depth in
      if cur < p.adj_off.(u + 1) then begin
        Vec.set st_cur depth (cur + stride);
        let mask = ad cur and v = ad (cur + 1) in
        match Bytes.get color v with
        | '\000' ->
            Bytes.set color v '\001';
            Vec.push path mask;
            Vec.push st_id v;
            Vec.push st_cur p.adj_off.(v)
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
        Vec.push finish u;
        if Vec.length st_id > 0 then ignore (Vec.pop path)
      end
    done;
    (!livelock, finish)

  (* Exact worst case by longest-path DP over the DAG in topological order
     (the reversed finish order).  One flat [total * n] int table instead
     of a row array per configuration.

     Under symmetry reduction a quotient edge [u -(m, sigma)-> v] stands
     for the original transitions [c -m'-> d] with [c] in [u]'s orbit;
     position [q] of [v] holds the process that sat at position
     [sigma.(q)] of the true successor of [u], i.e. of [u] itself.  The
     recurrence therefore reads the predecessor row and the activation
     mask at the {e translated} index [sigma.(q)] — without it the DP
     double-counts whenever one process line enters a configuration whose
     representative renames it (a two-process clique with equal idents
     already exhibits the off-by-one). *)
  let exact_worst ~n p finish =
    let ad = p.adj_get in
    let stride = p.adj_stride in
    let identity = p.group.(0) in
    let dp = Array.make (p.total * n) 0 in
    let best = ref 0 in
    for i = Vec.length finish - 1 downto 0 do
      let u = Vec.get finish i in
      let bu = u * n in
      let e = ref p.adj_off.(u) in
      while !e < p.adj_off.(u + 1) do
        let mask = ad !e and v = ad (!e + 1) in
        let sigma = if stride = 2 then identity else p.group.(ad (!e + 2)) in
        let bv = v * n in
        for q = 0 to n - 1 do
          let qu = sigma.(q) in
          let du = dp.(bu + qu) in
          if mask land (1 lsl qu) <> 0 then begin
            let cand = du + 1 in
            if cand > dp.(bv + q) then begin
              dp.(bv + q) <- cand;
              if cand > !best then best := cand
            end
          end
          else if du > dp.(bv + q) then dp.(bv + q) <- du
        done;
        e := !e + stride
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

  (* --- the seed implementation: sequential BFS, Map interning ---------- *)

  (* Kept verbatim in spirit as the oracle for the differential tests: a
     FIFO queue over a [Map] keyed by [config_compare], expanding with the
     list-based [subsets_of] and [E.activate].  Only the output format
     changed with the data layer (packed adjacency and parent arrays). *)
  let explore_reference ~max_configs ~max_violations ~mode ~check_outputs
      ~check_config graph ~idents =
    let engine = E.create graph ~idents in
    let initial = E.snapshot engine in
    let store : E.config Vec.t = Vec.create ~capacity:1024 ~dummy:initial () in
    let parent_pred = Vec.create ~capacity:1024 ~dummy:(-1) () in
    let parent_mask = Vec.create ~capacity:1024 ~dummy:0 () in
    let adj_off = Vec.create ~capacity:1024 ~dummy:0 () in
    let adj_data = Vec.create ~capacity:4096 ~dummy:0 () in
    Vec.push adj_off 0;
    let next_id = ref 0 in
    let transitions = ref 0 in
    let terminal = ref 0 in
    let safety = ref [] in
    let n_safety = ref 0 in
    let complete = ref true in
    let register config =
      let id = !next_id in
      incr next_id;
      Vec.push store config;
      Vec.push parent_pred (-1);
      Vec.push parent_mask 0;
      if E.config_unfinished config = [] then incr terminal;
      id
    in
    let ids = ref CMap.empty in
    let intern config =
      match CMap.find_opt config !ids with
      | Some id -> (id, false)
      | None ->
          let id = register config in
          ids := CMap.add config id !ids;
          (id, true)
    in
    (* Runs the safety predicates; the engine must currently hold [config]. *)
    let check id config =
      if !n_safety < max_violations then begin
        let record message =
          incr n_safety;
          safety := (message, id) :: !safety
        in
        (match check_outputs with
        | None -> ()
        | Some f -> (
            match f (E.config_outputs config) with
            | None -> ()
            | Some msg -> record msg));
        match check_config with
        | None -> ()
        | Some f -> (
            match f engine with None -> () | Some msg -> record msg)
      end
    in
    let queue = Queue.create () in
    let root_id, _ = intern initial in
    check root_id initial;
    Queue.add root_id queue;
    while not (Queue.is_empty queue) do
      let uid = Queue.pop queue in
      let config = Vec.get store uid in
      let unfinished = E.config_unfinished config in
      List.iter
        (fun subset ->
          if !next_id < max_configs then begin
            E.restore engine config;
            E.activate engine subset;
            let succ = E.snapshot engine in
            let vid, fresh = intern succ in
            incr transitions;
            Vec.push adj_data (mask_of_subset subset);
            Vec.push adj_data vid;
            if fresh then begin
              Vec.set parent_pred vid uid;
              Vec.set parent_mask vid (mask_of_subset subset);
              check vid succ;
              Queue.add vid queue
            end
          end
          else complete := false)
        (subsets_of mode unfinished);
      Vec.push adj_off (Vec.length adj_data)
    done;
    let adj = Vec.to_array adj_data in
    {
      total = !next_id;
      transitions = !transitions;
      terminal = !terminal;
      complete = !complete;
      parent_pred = Vec.to_array parent_pred;
      parent_mask = Vec.to_array parent_mask;
      adj_off = Vec.to_array adj_off;
      adj_get = Array.get adj;
      adj_stride = 2;
      group = [| Array.init (Asyncolor_topology.Graph.n graph) Fun.id |];
      expanded = None;
      safety_raw = List.rev !safety;
    }

  (* --- crash-safe packed exploration: shared state --------------------- *)

  (* Everything the BFS driver mutates, gathered in one record so a
     checkpoint can snapshot it and a resumed run can pick it back up.
     The boxed configurations are *not* part of it: the driver's pending
     ring is the only other state a checkpoint has to persist. *)
  type bfs_state = {
    s_parent_pred : int Vec.t;
    s_parent_mask : int Vec.t;
    s_adj_off : int Vec.t;
    s_adj_data : Level_log.t;
        (* the adjacency stream — the one store whose closed prefix can
           leave the heap (see [Level_log]); offsets in [s_adj_off] are
           absolute stream positions, so spilling never renumbers *)
    s_orbit : int Vec.t;  (* orbit size per dense id; empty when symmetry off *)
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

  let fresh_state ?spill_threshold () =
    let st =
      {
        s_parent_pred = Vec.create ~capacity:1024 ~dummy:(-1) ();
        s_parent_mask = Vec.create ~capacity:1024 ~dummy:0 ();
        s_adj_off = Vec.create ~capacity:1024 ~dummy:0 ();
        s_adj_data = Level_log.create ?threshold_words:spill_threshold ();
        s_orbit = Vec.create ~capacity:1024 ~dummy:1 ();
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
    Vec.push st.s_adj_off 0;
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
    spill : (Spill.t * int) option;  (* store, threshold in words *)
    chaos : Chaos.t;
    retry : Chaos.Retry.cfg;
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

  let packed_of_state ~params st =
    let fetch = spill_fetch ~params in
    let adj_get =
      if Level_log.spilled_levels st.s_adj_data = 0 then
        (* Nothing left the heap: the analyses read the resident stream
           in place, with no second copy of it at the heap's peak. *)
        Level_log.get st.s_adj_data
      else
        (* Off-heap reassembly: the analyses of a spilled run walk the
           stream through a bigarray the GC neither scans nor counts,
           so the peak-live-heap win of spilling survives the analysis
           phase. *)
        let ba = Level_log.to_bigarray ~fetch st.s_adj_data in
        fun i -> ba.{i}
    in
    {
      total = st.s_next_id;
      transitions = st.s_transitions;
      terminal = st.s_terminal;
      complete = st.s_complete;
      parent_pred = Vec.to_array st.s_parent_pred;
      parent_mask = Vec.to_array st.s_parent_mask;
      adj_off = Vec.to_array st.s_adj_off;
      adj_get;
      adj_stride = (if params.symmetry then 3 else 2);
      group = params.group;
      expanded =
        (if params.symmetry then
           Some (st.s_exp_configs, st.s_exp_transitions, st.s_exp_terminal)
         else None);
      safety_raw = List.rev st.s_safety_rev;
    }

  let register_st ~params st config ~orbit =
    let id = st.s_next_id in
    st.s_next_id <- id + 1;
    Obs.Counter.incr params.octx.oc_configs;
    Vec.push st.s_parent_pred (-1);
    Vec.push st.s_parent_mask 0;
    if params.symmetry then begin
      Vec.push st.s_orbit orbit;
      st.s_exp_configs <- st.s_exp_configs + orbit
    end;
    if E.config_unfinished_mask config = 0 then begin
      st.s_terminal <- st.s_terminal + 1;
      if params.symmetry then st.s_exp_terminal <- st.s_exp_terminal + orbit
    end;
    id

  (* Runs the safety predicates; the engine must currently hold [config]
     (seed contract). *)
  let safety_check ~params st engine id config =
    if st.s_n_safety < params.max_violations then begin
      let record message =
        st.s_n_safety <- st.s_n_safety + 1;
        st.s_safety_rev <- (message, id) :: st.s_safety_rev
      in
      (match params.check_outputs with
      | None -> ()
      | Some f -> (
          match f (E.config_outputs config) with
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
     container.  Intern-table keys are stored as their packed int payloads
     ([E.key_data]) indexed by dense id and rebuilt with [E.key_of_data]
     — the hash is recomputed on load, never trusted.  [ck_pending] holds
     the interned-but-unexpanded configurations in FIFO order: the
     pending ring's [lo, hi) window, whose positions are the stored ids.
     The driver expands pending entries in stored order and assigns dense
     ids in expansion order, so a resumed run — under any [jobs] value or
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
    ck_parent_pred : int array;
    ck_parent_mask : int array;
    ck_adj_off : int array;
    ck_adj_data : int array;
    ck_safety_rev : (string * int) list;
    ck_symmetry : bool;
    ck_orbit : int array;  (* orbit size by dense id; [||] when symmetry off *)
    ck_expanded : int * int * int;
        (* orbit-expanded (configs, transitions, terminal) so far *)
    ck_keys : int array array;  (* packed key payloads, indexed by dense id *)
    ck_pending : (int * E.config) array;  (* FIFO order *)
  }

  (* Bump whenever the [ckpt] record or the engine's key packing changes
     shape — [Checkpoint.load] rejects other versions up front.
     v2: symmetry fields (ck_symmetry/ck_orbit/ck_expanded) and the
     stride-3 adjacency encoding under symmetry.  The adjacency stream is
     persisted in full even on a spilled run (reassembled transiently at
     save time), so a checkpoint stays a single self-contained file and
     resuming needs no spill directory — the resumed run re-spills as its
     own levels close. *)
  let ckpt_version = 2

  let save_ckpt ~params ~graph ~idents st ~keys ~pending path =
    Obs.Counter.incr params.octx.oc_ckpt_saves;
    Obs.span params.octx.o
      ~args:[ ("configs", string_of_int st.s_next_id) ]
      "checkpoint.save"
    @@ fun () ->
    Checkpoint.save_rotated ~chaos:params.chaos ~retry:params.retry ~path
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
        ck_parent_pred = Vec.to_array st.s_parent_pred;
        ck_parent_mask = Vec.to_array st.s_parent_mask;
        ck_adj_off = Vec.to_array st.s_adj_off;
        ck_adj_data = Level_log.to_array ~fetch:(spill_fetch ~params) st.s_adj_data;
        ck_safety_rev = st.s_safety_rev;
        ck_symmetry = params.symmetry;
        ck_orbit = Vec.to_array st.s_orbit;
        ck_expanded = (st.s_exp_configs, st.s_exp_transitions, st.s_exp_terminal);
        ck_keys = keys ();
        ck_pending = pending ();
      }

  (* The store's ids are the dense ids, so decoding in id order gives
     exactly the [ck_keys] the v2 format has always held. *)
  let keys_of_store store = Array.init (Intern.length store) (Intern.get store)

  let intern_key store key =
    Intern.intern store ~hash:(E.key_hash key) (E.key_data key)

  (* --- the BFS driver: one loop for every policy and for resume -------- *)

  (* Live-heap high-water mark, sampled at every 1024th merged id and
     once where the loop exits — the number the bench's [peak_live_words]
     field and the CLI's spill-pressure diagnostics read back.
     [Gc.quick_stat] reads cached GC state, no heap walk. *)
  let sample_heap ~params =
    if Obs.enabled params.octx.o then
      Obs.Gauge.max_ params.octx.og_heap (Gc.quick_stat ()).Gc.heap_words

  (* A persistent I/O failure — a checkpoint save or spill write that
     exhausted its retry budget — ends the run the way a spent budget
     does: cleanly, with a truncated [complete = false] report.  Never an
     exception up through the analysis phase, and never a corrupt file
     left as last-good (save_rotated guarantees the latter). *)
  let note_io_error io_error what e =
    if !io_error = None then begin
      io_error := Some what;
      Diag.printf "io: %s failed permanently (%s); truncating run\n" what
        (Printexc.to_string e)
    end

  let io_failed = function
    | Chaos.Retry.Exhausted _ | Chaos.Injected _ | Checkpoint.Corrupt _ ->
        true
    | _ -> false

  (* [Serial] at one job, else [Synchronous] — for fresh and resumed
     runs alike. *)
  let default_policy ~jobs = function
    | Some p -> p
    | None -> if jobs <= 1 then Executor.Serial else Executor.Synchronous

  (* The pending configurations — interned but not yet expanded — live in
     a FIFO {!Ring} whose absolute positions {e are} their dense ids.  Each
     iteration folds the head entry's successors, in [masks_of] order,
     into the packed state through [merge] (intern, dense id, adjacency,
     parent, safety checks) under the [max_configs] cap.  Every output
     derives from this one order, so the report is byte-identical for
     every [jobs] value, every policy, and the reference oracle.

     Only where the successors come from depends on the executor:

     - {e One job}: the merging domain expands the entry itself.  Without
       symmetry the live engine is keyed in place and snapshotted only on
       an intern miss — most successors are duplicates, and a duplicate
       needs nothing but its key.  Spill writes run inline.

     - {e Two or more jobs}: a submission cursor ([submit_pos]) runs ahead
       of the merge, handing pending entries to the executor as futures
       that touch no shared state (each domain restores its own engine);
       the merge awaits the {e head} future, whatever the completion
       order.  [stream_window] bounds the futures in flight, and a
       position past the current level boundary is submittable only once
       a κ fraction of the level has merged (κ = 1 for [Synchronous]: a
       barrier per level).  Spill levels are written by background tasks.

     The merge boundary doubles as the crash-safety boundary: before
     merging each entry the loop may write a periodic checkpoint (pending
     = the ring) and polls the stop callback and resource budget.  On a
     hit it writes a final checkpoint while the ring is still intact,
     then degrades exactly like the [max_configs] cap: pending
     configurations that still have working processes mark the
     exploration incomplete, and every unexpanded entry keeps an empty
     adjacency row. *)
  let run ~params ?policy ~jobs ~graph ~idents st store pend =
    let octx = params.octx in
    let o = octx.o in
    Executor.with_executor ~obs:o ~policy:(default_policy ~jobs policy) ~jobs
    @@ fun exec ->
    let inline = Executor.jobs exec = 1 in
    let window = Executor.stream_window exec in
    let kappa = Executor.policy_kappa (Executor.policy exec) in
    let snapshot_on_miss = inline && not params.symmetry in
    (* The merging domain's engine: it expands at one job, and it hosts
       [check_config] at every job count. *)
    let engine = E.create graph ~idents in
    let canon succ =
      (* A pure function of the successor, so it may run on whichever
         domain stole the expansion: the merge sees the same (key, rep,
         orbit, perm) whatever the schedule. *)
      let t0 = if params.symmetry then Obs.now o else 0L in
      let r = canonicalize params.group succ in
      if params.symmetry then
        Obs.Counter.add octx.oc_canon_ns
          (Int64.to_int (Int64.sub (Obs.now o) t0));
      r
    in
    let within_cap () =
      if st.s_next_id >= params.max_configs then st.s_complete <- false;
      st.s_next_id < params.max_configs
    in
    (* Folds one successor of [uid] into the packed state.  At one job
       without symmetry [rep] is a placeholder, the live engine holds the
       successor and [key] is its probe, whose data the store reads in
       place (and copies into its arena on a miss); otherwise [rep] is
       the canonical representative. *)
    let merge uid orbit_u mask key rep orbit pi =
      st.s_transitions <- st.s_transitions + 1;
      Obs.Counter.incr octx.oc_transitions;
      if params.symmetry then begin
        if pi <> 0 then Obs.Counter.incr octx.oc_orbit_hits;
        st.s_exp_transitions <- st.s_exp_transitions + orbit_u
      end;
      let vid = intern_key store key in
      if vid = st.s_next_id then begin
        (* A miss: the store appended the key under the next dense id. *)
        let rep = if snapshot_on_miss then E.snapshot engine else rep in
        let id = register_st ~params st rep ~orbit in
        assert (id = vid);
        Ring.push pend rep;
        Vec.set st.s_parent_pred id uid;
        Vec.set st.s_parent_mask id mask;
        (* The predicates read [engine] (seed contract): at one job it
           already holds the successor, unless canonicalisation picked
           another orbit member. *)
        if Option.is_some params.check_config && (pi <> 0 || not inline)
        then E.restore engine rep;
        safety_check ~params st engine id rep
      end;
      Level_log.push st.s_adj_data mask;
      Level_log.push st.s_adj_data vid;
      if params.symmetry then Level_log.push st.s_adj_data pi
    in
    let expand_inline uid orbit_u config =
      let um = E.config_unfinished_mask config in
      if um <> 0 then begin
        let masks = masks_of params.mode um in
        for i = 0 to Array.length masks - 1 do
          let mask = masks.(i) in
          if within_cap () then begin
            E.restore engine config;
            E.activate_mask engine mask;
            if params.symmetry then begin
              let key, rep, orbit, pi = canon (E.snapshot engine) in
              merge uid orbit_u mask key rep orbit pi
            end
            else merge uid orbit_u mask (E.key_probe engine) config 1 0
          end
        done
      end
    in
    (* One private engine per expanding domain, created lazily on first
       expansion (the caller gets one too — it helps execute tasks while
       waiting). *)
    let engine_key = Domain.DLS.new_key (fun () -> E.create graph ~idents) in
    let expand config () =
      let um = E.config_unfinished_mask config in
      if um = 0 then [||]
      else begin
        let eng = Domain.DLS.get engine_key in
        Array.map
          (fun mask ->
            E.restore eng config;
            E.activate_mask eng mask;
            let key, rep, orbit, pi = canon (E.snapshot eng) in
            (mask, key, rep, orbit, pi))
          (masks_of params.mode um)
      end
    in
    (* Spill writes in flight on background tasks: drained before any
       checkpoint save (which rereads closed levels) and before the final
       analysis reassembly.  A write failure — inline or background — is
       latched into [spill_err] (lowest level wins, for a deterministic
       diagnostic) and surfaces at the next merge boundary: the run fails
       at the faulting seal, not at reassembly time.  The failed level's
       data stays resident in the spill store, so the reassembly still
       sees every word. *)
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
       threshold.  Called only at entry boundaries, where every pushed word
       is final.  The snapshot handed over by [Level_log.seal] is immutable
       and level files are distinct, so the only ordering that matters —
       written before reread — is enforced by [drain_spills]. *)
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
              save_ckpt ~params ~graph ~idents st
                ~keys:(fun () -> keys_of_store store)
                ~pending:(fun () ->
                  Array.init (Ring.length pend) (fun i ->
                      let p = Ring.lo pend + i in
                      (p, Ring.get pend p)))
                path
            with
            | () ->
                last_ck := st.s_next_id;
                Diag.printf "checkpoint: %d configs, %d pending -> %s\n"
                  st.s_next_id (Ring.length pend) path
            | exception e when io_failed e ->
                note_io_error io_error "checkpoint save" e)
      | _ -> ()
    in
    (* Futures for submitted-but-unmerged entries, same absolute
       positions as [pend]; unused at one job. *)
    let futs = Ring.create ~start:(Ring.lo pend) ~dummy:None () in
    let submit_pos = ref (Ring.lo pend) in
    (* On resume the whole pending slice plays the role of the current
       frontier (it may span what were several levels originally —
       level accounting is observability, never output). *)
    let level = ref 0 in
    let lvl_lo = ref (Ring.lo pend) in
    let lvl_hi = ref (Ring.hi pend) in
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
    let sp_level = ref (if Ring.length pend > 0 then open_level () else None) in
    let close_level () =
      Option.iter (Obs.end_span o) !sp_level;
      sp_level := None
    in
    let stopped = ref false in
    while Ring.length pend > 0 && not !stopped do
      let uid = Ring.lo pend in
      if uid = !lvl_hi then begin
        close_level ();
        incr level;
        lvl_lo := !lvl_hi;
        lvl_hi := Ring.hi pend;
        sp_level := open_level ()
      end;
      maybe_checkpoint ~force:false ();
      check_spill_err ();
      if should_stop ~params st || !io_error <> None then stopped := true
      else begin
        let orbit_u = if params.symmetry then Vec.get st.s_orbit uid else 1 in
        if inline then expand_inline uid orbit_u (Ring.get pend uid)
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
            !submit_pos < Ring.hi pend
            && !submit_pos - uid < window
            && gate_open !submit_pos
          do
            let p = !submit_pos in
            Ring.push futs
              (Some (Executor.submit exec (expand (Ring.get pend p))));
            if p >= !lvl_hi then begin
              Obs.Counter.incr octx.oc_overlap;
              Obs.Gauge.max_ octx.og_overlap (p - !lvl_hi + 1)
            end;
            incr submit_pos
          done;
          if !submit_pos < Ring.hi pend && !submit_pos - uid >= window
          then Executor.note_backpressure exec;
          let fut =
            match Ring.get futs uid with Some f -> f | None -> assert false
          in
          let t0 = Obs.now o in
          let cands = Executor.await fut in
          Obs.Counter.add octx.oc_wait_ns
            (Int64.to_int (Int64.sub (Obs.now o) t0));
          Ring.drop futs;
          Array.iter
            (fun (mask, key, rep, orbit, pi) ->
              if within_cap () then merge uid orbit_u mask key rep orbit pi)
            cands
        end;
        Vec.push st.s_adj_off (Level_log.length st.s_adj_data);
        seal ();
        if uid land 1023 = 0 then sample_heap ~params;
        Ring.drop pend
      end
    done;
    close_level ();
    sample_heap ~params;
    Obs.Gauge.set octx.og_intern (Intern.bytes store);
    if !stopped then begin
      (* In-flight futures are abandoned (the executor drains them on
         shutdown); the ring still holds every unexpanded entry for the
         final checkpoint and the truncation accounting. *)
      maybe_checkpoint ~force:true ();
      for p = Ring.lo pend to Ring.hi pend - 1 do
        if E.config_unfinished_mask (Ring.get pend p) <> 0 then
          st.s_complete <- false;
        Vec.push st.s_adj_off (Level_log.length st.s_adj_data)
      done
    end;
    drain_spills ();
    check_spill_err ();
    if !io_error <> None then st.s_complete <- false;
    packed_of_state ~params st

  (* The root run: intern the all-asleep configuration and drive the BFS
     from it.  The root is fixed by every ident-preserving automorphism
     (orbit size 1), so canonicalizing it is a no-op — but going through
     [canonicalize] keeps the invariant that every interned key is
     canonical without a special case. *)
  let explore_fresh ~params ?policy ~jobs graph ~idents =
    let st =
      fresh_state ?spill_threshold:(Option.map snd params.spill) ()
    in
    let store = Intern.create () in
    let engine = E.create graph ~idents in
    let key, initial, orbit, _ =
      canonicalize params.group (E.snapshot engine)
    in
    let root_id = register_st ~params st initial ~orbit in
    ignore (intern_key store key);
    safety_check ~params st engine root_id initial;
    let pend = Ring.create ~dummy:initial () in
    Ring.push pend initial;
    run ~params ?policy ~jobs ~graph ~idents st store pend

  (* Callers that opt into chaos get the retry budget by default; without
     chaos (and without an explicit [retry]) every I/O primitive keeps its
     single-attempt fail-fast behaviour. *)
  let resolve_retry ~chaos retry =
    match retry with
    | Some r -> r
    | None ->
        if Chaos.enabled chaos then Chaos.Retry.default else Chaos.Retry.none

  let explore ?(max_configs = 500_000) ?(max_violations = 5)
      ?(mode = `All_subsets) ?(impl = `Hashcons) ?(jobs = 1) ?policy
      ?checkpoint ?budget ?stop ?(symmetry = false) ?spill
      ?(chaos = Chaos.disabled) ?retry ?check_outputs
      ?check_config ?(obs = Obs.disabled) graph ~idents =
    let n = Asyncolor_topology.Graph.n graph in
    if n > Sys.int_size - 1 then
      invalid_arg "Explorer.explore: packed activation masks need n <= 62";
    let octx = make_octx obs in
    let packed =
      Obs.span obs ~args:[ ("n", string_of_int n) ] "explore" @@ fun () ->
      match impl with
      | `Reference ->
          if
            Option.is_some checkpoint || Option.is_some budget
            || Option.is_some stop || Option.is_some policy || symmetry
            || Option.is_some spill || Chaos.enabled chaos
          then
            invalid_arg
              "Explorer.explore: the `Reference oracle supports neither \
               checkpoints, budgets, stop callbacks, execution policies, \
               symmetry reduction, spilling nor fault injection (use \
               `Hashcons)";
          explore_reference ~max_configs ~max_violations ~mode ~check_outputs
            ~check_config graph ~idents
      | `Hashcons ->
          (* A killed predecessor may have left [path ^ ".tmp"] between
             write and rename; sweep it before the first save. *)
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
              retry = resolve_retry ~chaos retry;
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

  let load_ckpt ?(chaos = Chaos.disabled) ?retry path =
    let (c : ckpt) =
      Checkpoint.load_rotated ~chaos ?retry ~path ~version:ckpt_version ()
    in
    if c.ck_protocol <> P.name then
      raise
        (Checkpoint.Corrupt
           (Printf.sprintf "checkpoint is for protocol %S, not %S"
              c.ck_protocol P.name));
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
      ri_pending = Array.length c.ck_pending;
    }

  let state_of_ckpt ?spill_threshold c =
    let exp_c, exp_t, exp_term = c.ck_expanded in
    {
      s_parent_pred = Vec.of_array ~dummy:(-1) c.ck_parent_pred;
      s_parent_mask = Vec.of_array ~dummy:0 c.ck_parent_mask;
      s_adj_off = Vec.of_array ~dummy:0 c.ck_adj_off;
      s_adj_data = Level_log.of_array ?threshold_words:spill_threshold c.ck_adj_data;
      s_orbit = Vec.of_array ~dummy:1 c.ck_orbit;
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
      ?(chaos = Chaos.disabled) ?retry ?check_outputs ?check_config
      ?(obs = Obs.disabled) path =
    let octx = make_octx obs in
    let retry = resolve_retry ~chaos retry in
    (* The process being resumed may have died mid-save: sweep its stale
       tmp (and any at the new checkpoint target) before touching disk. *)
    ignore (Checkpoint.clean_stale ~path);
    Option.iter
      (fun (p, _) -> ignore (Checkpoint.clean_stale ~path:p))
      checkpoint;
    let c =
      Obs.span obs "checkpoint.load" (fun () -> load_ckpt ~chaos ~retry path)
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
        retry;
        octx;
      }
    in
    let st = state_of_ckpt ?spill_threshold:(Option.map snd spill) c in
    let store = Intern.create ~capacity:c.ck_next_id () in
    Array.iter
      (fun kdata -> ignore (intern_key store (E.key_of_data kdata)))
      c.ck_keys;
    (* One distinct key per dense id, or every later id would shift. *)
    if
      Array.length c.ck_keys <> c.ck_next_id
      || Intern.length store <> c.ck_next_id
    then raise (Checkpoint.Corrupt "checkpoint keys do not match its ids");
    (* Pending entries are the id slice [start, next_id) in FIFO order
       (the checkpoint contract), so the ring's absolute positions — the
       stored ids — carry over directly. *)
    let start = c.ck_next_id - Array.length c.ck_pending in
    let pend =
      Ring.create ~start ~dummy:(E.snapshot (E.create graph ~idents)) ()
    in
    Array.iter (fun (_, cfg) -> Ring.push pend cfg) c.ck_pending;
    finish_report ~octx ~n
      (run ~params ?policy ~jobs ~graph ~idents st store pend)

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
