open Cr_semantics
module Par = Cr_kernel.Par
module Csr = Cr_kernel.Csr
module Bitset = Cr_kernel.Bitset

(* Refinement checkers (Section 2 of the paper), decided on explicit
   finite-state systems via edge classification.

   Every transition (s, s') of the concrete system C is classified against
   the abstract system A through the (tabulated) abstraction alpha:

   - Stutter      : alpha s = alpha s'   (a "τ step"; the image does not move)
   - Exact        : (alpha s, alpha s') is a transition of A
   - Compression k: a shortest A-path of length k >= 2 joins the images
                    (C drops k-1 interior states of A's computation)
   - Unmatched    : no A-path joins the images.

   [C ⊑ A]_init  — reachable-from-initial edges all Exact, initial images
                   initial, terminal images terminal.
   [C ⊑ A]       — all edges Exact, all terminals match, initial images
                   initial.
   [C ⪯ A]       — init-refinement holds; no edge Unmatched; no Compression
                   edge on a cycle of C (so omissions are finite); no cycle
                   of C made solely of Stutter edges unless its image is
                   A-terminal; terminal images terminal.
   everywhere-eventually — init-refinement holds; non-Exact edges are not
                   on cycles; terminal images terminal.

   The checks are sound: a "holds" verdict implies the trace-theoretic
   definition (matching A-paths concatenate into a computation of A, and
   maximality is preserved by the terminal conditions).

   The relations come in two pairs that differ only in their anchor and
   in their per-edge rule: ⊑_init / ⊑ check every considered edge for
   exactness, anchored at I_C or not; ⪯ / ⊑_ee classify every edge, then
   add init-refinement, a per-edge cycle rule, the stutter-cycle pass and
   terminal matching.  Each pair is one function below.

   All sweeps run over the systems' flat CSR graphs (zero-copy views);
   the classification sweep is domain-chunked under the CR_JOBS contract
   of [Par], and every verdict is memoized in a content-addressed
   [Check_cache]. *)

type edge_class = Stutter | Exact | Compression of int

type failure =
  | Initial_not_initial of int
      (* concrete initial state whose image is not initial in A *)
  | Init_edge_not_exact of int * int
      (* reachable-from-init edge that is not an A-transition *)
  | Edge_unmatched of int * int  (* no A-path between the images *)
  | Compression_on_cycle of int * int
  | Stutter_cycle of int  (* a representative state of a stutter-only cycle *)
  | Terminal_not_terminal of int  (* C-terminal whose image is not A-terminal *)
  | Non_exact_on_cycle of int * int  (* everywhere-eventually violation *)

let pp_failure c a fmt = function
  | Initial_not_initial i ->
      Fmt.pf fmt "initial state %s maps outside the initial states of %s"
        (Explicit.state_to_string c i) (Explicit.name a)
  | Init_edge_not_exact (i, j) ->
      Fmt.pf fmt
        "reachable transition %s -> %s is not a transition of %s"
        (Explicit.state_to_string c i)
        (Explicit.state_to_string c j)
        (Explicit.name a)
  | Edge_unmatched (i, j) ->
      Fmt.pf fmt "transition %s -> %s matches no path of %s"
        (Explicit.state_to_string c i)
        (Explicit.state_to_string c j)
        (Explicit.name a)
  | Compression_on_cycle (i, j) ->
      Fmt.pf fmt
        "compression edge %s -> %s lies on a cycle (omissions unbounded)"
        (Explicit.state_to_string c i)
        (Explicit.state_to_string c j)
  | Stutter_cycle i ->
      Fmt.pf fmt
        "stutter-only cycle through %s whose image cannot end a computation \
         of %s"
        (Explicit.state_to_string c i)
        (Explicit.name a)
  | Terminal_not_terminal i ->
      Fmt.pf fmt "terminal state %s maps to a non-terminal state of %s"
        (Explicit.state_to_string c i)
        (Explicit.name a)
  | Non_exact_on_cycle (i, j) ->
      Fmt.pf fmt "non-exact edge %s -> %s lies on a cycle"
        (Explicit.state_to_string c i)
        (Explicit.state_to_string c j)

type stats = {
  edges : int;
  exact : int;
  stutter : int;
  compressions : int;
  max_dropped : int;  (* largest number of A-states dropped by one edge *)
}

let empty_stats =
  { edges = 0; exact = 0; stutter = 0; compressions = 0; max_dropped = 0 }

type report = {
  holds : bool;
  stats : stats;
  failures : failure list;
  total_failures : int;
      (* number of failures found, before [failures] was truncated *)
  concrete : string;
  abstract : string;
  relation : string;
  cost : Cr_obs.Obs.snapshot option;
      (* counter movement of this check on the calling domain; [None]
         unless telemetry collection is on *)
}

let pp_report fmt r =
  if r.holds then
    Fmt.pf fmt "[%s %s %s] HOLDS (%d edges: %d exact, %d stutter, %d \
                compressions, max drop %d)"
      r.concrete r.relation r.abstract r.stats.edges r.stats.exact
      r.stats.stutter r.stats.compressions r.stats.max_dropped
  else if List.length r.failures < r.total_failures then
    Fmt.pf fmt "[%s %s %s] FAILS (showing %d of %d failure(s))" r.concrete
      r.relation r.abstract (List.length r.failures) r.total_failures
  else
    Fmt.pf fmt "[%s %s %s] FAILS (%d failure(s))" r.concrete r.relation
      r.abstract r.total_failures

(* The concrete state a failure is anchored at (the source of the failing
   edge, or the failing state itself). *)
let failure_state = function
  | Initial_not_initial i
  | Terminal_not_terminal i
  | Stutter_cycle i
  | Init_edge_not_exact (i, _)
  | Edge_unmatched (i, _)
  | Compression_on_cycle (i, _)
  | Non_exact_on_cycle (i, _) ->
      i

let max_reported_failures = 10

(* Classified edges of the concrete system: its CSR graph plus one int
   class code per edge, stored at the edge's absolute CSR offset (which
   is what lets the chunked sweep fill disjoint slices and still merge
   to a job-count-independent result).  Codes: -1 unmatched, 0 stutter,
   1 exact, k >= 2 compression of length k. *)
let code_unmatched = -1
let code_stutter = 0
let code_exact = 1

type classified = { graph : Csr.t; codes : int array }

let iter_codes t f =
  let rp = Csr.row_ptr t.graph and tg = Csr.targets t.graph in
  for i = 0 to Csr.num_states t.graph - 1 do
    for k = rp.(i) to rp.(i + 1) - 1 do
      f i tg.(k) t.codes.(k)
    done
  done

let some_stutter = Some Stutter
let some_exact = Some Exact

let iter_classified t f =
  iter_codes t (fun i j code ->
      f i j
        (match code with
        | -1 -> None
        | 0 -> some_stutter
        | 1 -> some_exact
        | len -> Some (Compression len)))

(* Edge-class telemetry, published once per classify from the merged
   chunk totals (the sweep itself carries no instrumentation beyond the
   batched path query's own counters). *)
let c_classify_runs = Cr_obs.Obs.counter "refine.classify.runs"

(* Wall time of each chunk of the classification sweep — the
   load-balance view of the CR_JOBS fan-out (one observation per chunk;
   the chunk *count* therefore varies with the job count even though the
   classified output does not). *)
let h_chunk = Cr_obs.Obs.histogram "refine.classify.chunk_us"
let c_edges_exact = Cr_obs.Obs.counter "refine.edges.exact"
let c_edges_stutter = Cr_obs.Obs.counter "refine.edges.stutter"
let c_edges_compression = Cr_obs.Obs.counter "refine.edges.compression"
let c_edges_unmatched = Cr_obs.Obs.counter "refine.edges.unmatched"
let c_max_dropped = Cr_obs.Obs.counter ~kind:Cr_obs.Obs.Max "refine.max_dropped"

(* Classify each edge of [c] against [a] through [alpha], in two phases:

   - phase A sweeps contiguous state chunks, classifying the stutter and
     exact edges and recording the remaining (path-query) edges' offsets
     per chunk;
   - phase B collects every pending edge's (source image, target image,
     offset) in chunk order and answers them with ONE
     [Paths.shortest_nonempty_batch] call (one BFS per distinct source
     image, parallel through [Par] with a reused distance row per
     chunk), then writes each answer to its edge's code.

   CR_JOBS = 1 is the one-chunk case.  Otherwise there are many more
   chunks than domains, claimed from [Par]'s atomic item counter so
   edge-balanced stragglers stop serializing the fan-out.  Chunk
   boundaries are edge-balanced (binary search of the cumulative edge
   count in [row_ptr]), every edge is written at its absolute CSR
   offset by exactly one writer, and per-chunk tallies are merged in
   chunk order — so the classified codes, the stats and every merged
   counter (the [refine.*] totals below, the [paths.oracle.*] and
   [paths.bfs.*] counters) are identical for every job count. *)
let classify ~alpha ~(c : _ Explicit.t) ~(a : _ Explicit.t) :
    classified * stats =
  Cr_obs.Obs.span "refine.classify" @@ fun () ->
  let succ_a = Explicit.csr a in
  let g = Explicit.csr c in
  let rp = Csr.row_ptr g and tg = Csr.targets g in
  let arp = Csr.row_ptr succ_a and atg = Csr.targets succ_a in
  let n = Explicit.num_states c in
  let m = Csr.num_edges g in
  let codes = Array.make m code_unmatched in
  (* Phase A over rows [lo, hi): returns the exact/stutter tallies and
     the pending edge offsets (ascending, so their sources can be
     recovered by walking [row_ptr] alongside). *)
  let sweep (lo, hi) =
    let t0 = if Cr_obs.Obs.tracking () then Cr_obs.Obs.now_us () else 0. in
    let exact = ref 0 and stutter = ref 0 in
    let pending = Array.make (rp.(hi) - rp.(lo)) 0 in
    let np = ref 0 in
    for i = lo to hi - 1 do
      (* the source image and its abstract row bounds are fixed per row *)
      let ai = alpha.(i) in
      let alo = arp.(ai) and ahi = arp.(ai + 1) in
      for k = rp.(i) to rp.(i + 1) - 1 do
        let aj = alpha.(tg.(k)) in
        if ai = aj then begin
          incr stutter;
          codes.(k) <- code_stutter
        end
        else begin
          (* binary search in the sorted abstract successor row *)
          let slo = ref alo and shi = ref ahi in
          while !shi - !slo > 1 do
            let mid = (!slo + !shi) / 2 in
            if atg.(mid) <= aj then slo := mid else shi := mid
          done;
          if !shi > !slo && atg.(!slo) = aj then begin
            incr exact;
            codes.(k) <- code_exact
          end
          else begin
            pending.(!np) <- k;
            incr np
          end
        end
      done
    done;
    if Cr_obs.Obs.tracking () then
      Cr_obs.Obs.observe h_chunk (int_of_float (Cr_obs.Obs.now_us () -. t0));
    (lo, !exact, !stutter, pending, !np)
  in
  (* [f i k] for each pending edge [k] of a chunk, [i] its source *)
  let iter_pending (lo, _, _, pending, np) f =
    let i = ref lo in
    for p = 0 to np - 1 do
      let k = pending.(p) in
      while rp.(!i + 1) <= k do
        incr i
      done;
      f !i k
    done
  in
  let jobs = min (Par.current_jobs ()) (max n 1) in
  let num_chunks = if jobs <= 1 then 1 else max jobs (min n (jobs * 8)) in
  (* Edge-balanced chunk boundaries: state index d covers edges up to
     roughly d*m/num_chunks.  [row_ptr] is nondecreasing, so the
     smallest state whose cumulative edge count reaches the quota is a
     binary search; boundaries are nondecreasing by construction. *)
  let boundary d =
    if d = 0 then 0
    else if d = num_chunks then n
    else begin
      let want = d * m / num_chunks in
      let lo = ref 0 and hi = ref n in
      while !hi - !lo > 0 do
        let mid = (!lo + !hi) / 2 in
        if rp.(mid) < want then lo := mid + 1 else hi := mid
      done;
      !lo
    end
  in
  let chunks = Array.init num_chunks (fun d -> (boundary d, boundary (d + 1))) in
  let parts = Par.map_array sweep chunks in
  (* Phase B: every pending edge as one batched path query, in chunk
     order.  Pending edges have distinct images (equal ones are
     stutters), and a reachable image at distance 1 would have been an
     exact edge, so every answer is either [-1] or a compression. *)
  let np = Array.fold_left (fun acc (_, _, _, _, np) -> acc + np) 0 parts in
  let srcs = Array.make np 0 and dsts = Array.make np 0 in
  let offs = Array.make np 0 in
  let w = ref 0 in
  Array.iter
    (fun part ->
      iter_pending part (fun i k ->
          srcs.(!w) <- alpha.(i);
          dsts.(!w) <- alpha.(tg.(k));
          offs.(!w) <- k;
          incr w))
    parts;
  let dist = Cr_checker.Paths.shortest_nonempty_batch ~succ:succ_a ~srcs ~dsts in
  let compressions = ref 0 and max_dropped = ref 0 in
  Array.iteri
    (fun p len ->
      if len >= 2 then begin
        codes.(offs.(p)) <- len;
        incr compressions;
        if len - 1 > !max_dropped then max_dropped := len - 1
      end)
    dist;
  let compressions = !compressions and max_dropped = !max_dropped in
  let exact, stutter =
    Array.fold_left (fun (e, s) (_, e', s', _, _) -> (e + e', s + s')) (0, 0) parts
  in
  if Cr_obs.Obs.tracking () then begin
    Cr_obs.Obs.incr c_classify_runs;
    Cr_obs.Obs.add c_edges_exact exact;
    Cr_obs.Obs.add c_edges_stutter stutter;
    Cr_obs.Obs.add c_edges_compression compressions;
    Cr_obs.Obs.add c_edges_unmatched (m - exact - stutter - compressions);
    Cr_obs.Obs.record_max c_max_dropped max_dropped
  end;
  ( { graph = g; codes },
    { edges = m; exact; stutter; compressions; max_dropped } )

let initial_failures ~alpha ~(c : _ Explicit.t) ~(a : _ Explicit.t) =
  Array.to_list (Explicit.initials c)
  |> List.filter_map (fun i ->
         if Explicit.is_initial a alpha.(i) then None
         else Some (Initial_not_initial i))

let terminal_failures ~alpha ~(c : _ Explicit.t) ~(a : _ Explicit.t)
    ~(restrict : Bitset.t option) =
  let n = Explicit.num_states c in
  let consider i =
    match restrict with None -> true | Some mask -> Bitset.get mask i
  in
  let acc = ref [] in
  for i = 0 to n - 1 do
    if consider i && Explicit.is_terminal c i
       && not (Explicit.is_terminal a alpha.(i))
    then acc := Terminal_not_terminal i :: !acc
  done;
  List.rev !acc

let make_report ~relation ~c ~a ~stats failures =
  {
    holds = failures = [];
    stats;
    failures = List.filteri (fun i _ -> i < max_reported_failures) failures;
    total_failures = List.length failures;
    concrete = Explicit.name c;
    abstract = Explicit.name a;
    relation;
    cost = None;
  }

(* Verdict cache shared by all four relations: the key covers the
   relation tag, both systems (names, exact transition structure,
   initial states), the resolved abstraction table and the fairness
   tables, so a hit can only return a report computed for an identical
   question. *)
let check_cache : report Check_cache.t = Check_cache.create ()

let same_report r1 r2 = { r1 with cost = None } = { r2 with cost = None }

(* Resolve the abstraction, answer from the verdict cache or run
   [check alpha] under a named span with its cost attached, and journal
   one event per verdict delivered to a caller. *)
let decide ~relation ~span ?alpha ?fair ~(c : _ Explicit.t)
    ~(a : _ Explicit.t) check =
  let alpha =
    match alpha with
    | Some t -> t
    | None -> Abstraction.identity_table (Explicit.num_states c)
  in
  let r, cached =
    Check_cache.find_or_check check_cache ~tag:relation ~alpha ~fair ~c ~a
      ~same:same_report (fun () ->
        Cr_obs.Obs.span span @@ fun () ->
        let r, cost = Cr_obs.Obs.measure (fun () -> check alpha) in
        { r with cost })
  in
  Check_cache.emit_verdict "refine.verdict" ~cached ~cost:r.cost
    Cr_obs.Journal.
      [
        ("relation", S r.relation);
        ("concrete", S r.concrete);
        ("abstract", S r.abstract);
        ("holds", B r.holds);
        ("edges", I r.stats.edges);
        ("failures", I r.total_failures);
      ]
    [];
  r

(* ⊑_init and ⊑: every considered edge must be an A-transition, initial
   images initial and terminal images terminal.  [anchored] considers
   only the fragment reachable from I_C; otherwise every state. *)
let exact_relation ~relation ~span ~anchored ?alpha ~c ~a () =
  decide ~relation ~span ?alpha ~c ~a @@ fun alpha ->
  let reach =
    if anchored then Some (Cr_checker.Reach.reachable_from_initial c)
    else None
  in
  let failures = ref (initial_failures ~alpha ~c ~a) in
  let edges = ref 0 and exact = ref 0 in
  Explicit.iter_edges c (fun i j ->
      if match reach with None -> true | Some r -> Bitset.get r i then begin
        incr edges;
        if Explicit.has_edge a alpha.(i) alpha.(j) then incr exact
        else failures := Init_edge_not_exact (i, j) :: !failures
      end);
  let failures = !failures @ terminal_failures ~alpha ~c ~a ~restrict:reach in
  let stats = { empty_stats with edges = !edges; exact = !exact } in
  make_report ~relation ~c ~a ~stats failures

(* [C ⊑ A]_init *)
let init_refinement ?alpha ~c ~a () =
  exact_relation ~relation:"⊑_init" ~span:"refine.init" ~anchored:true ?alpha
    ~c ~a ()

(* [C ⊑ A] — everywhere refinement *)
let everywhere_refinement ?alpha ~c ~a () =
  exact_relation ~relation:"⊑" ~span:"refine.everywhere" ~anchored:false
    ?alpha ~c ~a ()

(* The on-cycle tests of [g] (edge, state).  With [?fair], "on a cycle"
   means "on a weakly-fair cycle" (computations are restricted to
   weakly fair ones; see {!Fair}).  The plain SCC is computed on demand:
   only edges the per-edge rule asks about query it. *)
let cycle_tests ~fair g =
  match fair with
  | None ->
      let scc = lazy (Cr_checker.Scc.compute_csr g) in
      ( (fun i j -> Cr_checker.Scc.edge_on_cycle (Lazy.force scc) i j),
        fun i -> Cr_checker.Scc.on_cycle (Lazy.force scc) i )
  | Some tables ->
      let analysis =
        Fair.analyze_csr tables ~succ:g ~mask:(Bitset.full (Csr.num_states g))
      in
      ( (fun i j -> Fair.edge_on_fair_cycle analysis i j),
        fun i -> analysis.Fair.fair.(i) )

(* ⪯ and ⊑_ee: classify every edge; reachable edges must be Exact
   (init-refinement); [rule] judges every edge everywhere; a cycle made
   solely of Stutter edges needs an A-terminal image (an infinite
   computation whose image is eventually constant normalizes to a finite
   sequence, which must be able to end a computation of A); terminal
   images must be terminal. *)
let cycle_relation ~relation ~span ~rule ?alpha ?fair ~c ~a () =
  decide ~relation ~span ?alpha ?fair ~c ~a @@ fun alpha ->
  let classified, stats = classify ~alpha ~c ~a in
  let succ_c = Explicit.csr c in
  let edge_on_cycle, _ = cycle_tests ~fair succ_c in
  let failures = ref (initial_failures ~alpha ~c ~a) in
  let add f = failures := f :: !failures in
  let reach =
    Cr_obs.Obs.span "refine.init_check" @@ fun () ->
    let reach =
      Cr_checker.Reach.forward_csr ~succ:succ_c
        ~seeds:(Array.to_list (Explicit.initials c))
    in
    iter_codes classified (fun i j code ->
        if code <> code_exact && Bitset.get reach i then
          add (Init_edge_not_exact (i, j)));
    reach
  in
  Cr_obs.Obs.span "refine.cycle_check" (fun () ->
      iter_codes classified (fun i j code ->
          Option.iter add
            (rule ~edge_on_cycle ~reachable:(Bitset.get reach i) i j code)));
  (* a system with no stutter edge has no stutter cycle — skip the pass *)
  (if stats.stutter > 0 then
     Cr_obs.Obs.span "refine.stutter_check" @@ fun () ->
     let _, on_stutter_cycle =
       cycle_tests ~fair (Csr.filter succ_c (fun i j -> alpha.(i) = alpha.(j)))
     in
     for i = 0 to Explicit.num_states c - 1 do
       if on_stutter_cycle i && not (Explicit.is_terminal a alpha.(i)) then
         add (Stutter_cycle i)
     done);
  let failures = !failures @ terminal_failures ~alpha ~c ~a ~restrict:None in
  make_report ~relation ~c ~a ~stats failures

(* [C ⪯ A] — convergence refinement: every edge matches some A-path, and
   no compression lies on a cycle (so omissions are finite). *)
let convergence_refinement ?alpha ?fair ~c ~a () =
  cycle_relation ~relation:"⪯" ~span:"refine.convergence"
    ~rule:(fun ~edge_on_cycle ~reachable:_ i j code ->
      if code = code_unmatched then Some (Edge_unmatched (i, j))
      else if code >= 2 && edge_on_cycle i j then
        Some (Compression_on_cycle (i, j))
      else None)
    ?alpha ?fair ~c ~a ()

(* Everywhere-eventually refinement (Section 7): arbitrary finite prefix
   followed by a computation of A.  The prefix is unconstrained, so only
   edges that can recur forever matter: a non-Exact non-Stutter edge on a
   cycle defeats the eventual suffix (unless it already failed the init
   check). *)
let everywhere_eventually_refinement ?alpha ?fair ~c ~a () =
  cycle_relation ~relation:"⊑_ee" ~span:"refine.everywhere_eventually"
    ~rule:(fun ~edge_on_cycle ~reachable i j code ->
      if code = code_exact || code = code_stutter || reachable then None
      else if edge_on_cycle i j then Some (Non_exact_on_cycle (i, j))
      else None)
    ?alpha ?fair ~c ~a ()
