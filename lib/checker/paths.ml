(* Shortest-path queries (BFS) and DAG longest paths over CSR graphs.

   The classify sweep feeds the batched query its abstract system's flat
   graph directly.  The tests check every kernel here against the
   Bellman-Ford and memoised-recursion oracles of test/graph_oracle.ml. *)

module Csr = Cr_kernel.Csr
module Par = Cr_kernel.Par
module Bitset = Cr_kernel.Bitset

(* Telemetry (all no-ops unless CR_STATS/CR_TRACE is on).  BFS expansion
   counts are published once per BFS from the final queue tail — every
   expanded node was enqueued exactly once — so the hot loop itself
   carries no instrumentation. *)
let c_bfs_runs = Cr_obs.Obs.counter "paths.bfs.runs"
let c_bfs_expansions = Cr_obs.Obs.counter "paths.bfs.expansions"
let c_oracle_hits = Cr_obs.Obs.counter "paths.oracle.hits"
let c_oracle_misses = Cr_obs.Obs.counter "paths.oracle.misses"

(* BFS over the flat CSR arrays, into caller-provided scratch: [dist]
   all [-1] on entry, [q] a flat FIFO of capacity >= n (every node is
   enqueued at most once).  Returns the final queue tail — the states
   the BFS touched are [q.(0 .. tail-1)], which is what lets a batch
   reset [dist] in O(touched) between sources. *)
let bfs_into ~(g : Csr.t) ~(dist : int array) ~(q : int array) ~src =
  let rp = Csr.row_ptr g and tg = Csr.targets g in
  let head = ref 0 and tail = ref 0 in
  dist.(src) <- 0;
  q.(0) <- src;
  tail := 1;
  while !head < !tail do
    let i = q.(!head) in
    incr head;
    let d = dist.(i) + 1 in
    for k = rp.(i) to rp.(i + 1) - 1 do
      let j = tg.(k) in
      if dist.(j) = -1 then begin
        dist.(j) <- d;
        q.(!tail) <- j;
        incr tail
      end
    done
  done;
  Cr_obs.Obs.incr c_bfs_runs;
  Cr_obs.Obs.add c_bfs_expansions !tail;
  !tail

(* A batch of [src <> dst] queries, answered with one BFS per distinct
   source.  Query indices are grouped by source with a counting sort
   ([pos.(s) .. pos.(s+1)-1] of [order] after the backward fill, each
   group in ascending query order); the distinct sources are chunked
   across [Par] (one chunk at one job, else eight per job for load
   balance), and each chunk owns one [dist] row and one queue for its
   whole share, resetting only the entries its last BFS touched.
   Every answer slot has exactly one writer, so the result does not
   depend on the job count, and neither do the counters: one
   [paths.oracle.misses] (= one BFS run) per distinct source, one
   [paths.oracle.hits] per other query. *)
let shortest_nonempty_batch ~succ ~(srcs : int array) ~(dsts : int array) =
  let nq = Array.length srcs in
  if Array.length dsts <> nq then
    invalid_arg "Paths.shortest_nonempty_batch: srcs/dsts lengths differ";
  let out = Array.make nq (-1) in
  if nq > 0 then begin
    let n = Csr.num_states succ in
    let pos = Array.make (n + 1) 0 in
    Array.iteri
      (fun k s ->
        if s = dsts.(k) then
          invalid_arg "Paths.shortest_nonempty_batch: src = dst";
        pos.(s) <- pos.(s) + 1)
      srcs;
    for s = 1 to n do
      pos.(s) <- pos.(s) + pos.(s - 1)
    done;
    let order = Array.make nq 0 in
    for k = nq - 1 downto 0 do
      let s = srcs.(k) in
      pos.(s) <- pos.(s) - 1;
      order.(pos.(s)) <- k
    done;
    let distinct = ref [] and nd = ref 0 in
    for s = n - 1 downto 0 do
      if pos.(s + 1) > pos.(s) then begin
        distinct := s :: !distinct;
        incr nd
      end
    done;
    let distinct = Array.of_list !distinct and nd = !nd in
    let jobs = Par.current_jobs () in
    let nchunks = if jobs <= 1 then 1 else min nd (jobs * 8) in
    let chunks =
      Array.init nchunks (fun d -> (d * nd / nchunks, (d + 1) * nd / nchunks))
    in
    ignore
      (Par.map_array
         (fun (lo, hi) ->
           let dist = Array.make n (-1) and q = Array.make n 0 in
           for d = lo to hi - 1 do
             let src = distinct.(d) in
             let tail = bfs_into ~g:succ ~dist ~q ~src in
             for p = pos.(src) to pos.(src + 1) - 1 do
               let k = order.(p) in
               out.(k) <- dist.(dsts.(k))
             done;
             for t = 0 to tail - 1 do
               dist.(q.(t)) <- -1
             done
           done)
         chunks
        : unit array);
    Cr_obs.Obs.add c_oracle_misses nd;
    Cr_obs.Obs.add c_oracle_hits (nq - nd)
  end;
  out

(* Reconstruct one shortest path src -> dst (list of states, inclusive);
   [None] when dst is unreachable. *)
let shortest_path ~succ ~src ~dst =
  if src = dst then Some [ src ]
  else begin
    let n = Csr.num_states succ in
    let rp = Csr.row_ptr succ and tg = Csr.targets succ in
    let parent = Array.make n (-1) in
    let dist = Array.make n (-1) in
    let q = Array.make n 0 in
    let head = ref 0 and tail = ref 0 in
    dist.(src) <- 0;
    q.(0) <- src;
    tail := 1;
    let found = ref false in
    while (not !found) && !head < !tail do
      let i = q.(!head) in
      incr head;
      for k = rp.(i) to rp.(i + 1) - 1 do
        let j = tg.(k) in
        if dist.(j) = -1 then begin
          dist.(j) <- dist.(i) + 1;
          parent.(j) <- i;
          if j = dst then found := true;
          q.(!tail) <- j;
          incr tail
        end
      done
    done;
    if not !found then None
    else begin
      let rec build acc i = if i = src then src :: acc else build (i :: acc) parent.(i) in
      Some (build [] dst)
    end
  end

(* Longest path (number of edges) from each masked state while staying in
   the masked region, where leaving the region (or stopping) costs nothing.
   Requires the masked subgraph to be acyclic; raises otherwise.  Used for
   worst-case convergence times: the masked region is the non-converged
   part of the state space. *)
exception Cyclic

(* Iterative DFS with an explicit (node, next-child) stack — flat int
   arrays, safe for masked regions whose longest path exceeds the OCaml
   call stack and allocation-free per visit. *)
let longest_within ~succ ~mask =
  Cr_obs.Obs.span "paths.longest_within" @@ fun () ->
  let n = Csr.num_states succ in
  let rp = Csr.row_ptr succ and tg = Csr.targets succ in
  let memo = Array.make n (-1) in
  let visiting = Array.make n false in
  let call_v = Array.make n 0 in
  let call_c = Array.make n 0 in
  let cp = ref 0 in
  let compute root =
    visiting.(root) <- true;
    call_v.(0) <- root;
    call_c.(0) <- 0;
    cp := 1;
    while !cp > 0 do
      let i = call_v.(!cp - 1) in
      let c = call_c.(!cp - 1) in
      if c < rp.(i + 1) - rp.(i) then begin
        let j = tg.(rp.(i) + c) in
        call_c.(!cp - 1) <- c + 1;
        if Bitset.get mask j then begin
          if visiting.(j) then raise Cyclic;
          if memo.(j) < 0 then begin
            visiting.(j) <- true;
            call_v.(!cp) <- j;
            call_c.(!cp) <- 0;
            incr cp
          end
        end
      end
      else begin
        decr cp;
        visiting.(i) <- false;
        let best = ref 0 in
        for k = rp.(i) to rp.(i + 1) - 1 do
          let j = tg.(k) in
          let v = 1 + if Bitset.get mask j then memo.(j) else 0 in
          if v > !best then best := v
        done;
        memo.(i) <- !best
      end
    done
  in
  Array.init n (fun i ->
      if not (Bitset.get mask i) then 0
      else begin
        if memo.(i) < 0 then compute i;
        memo.(i)
      end)
