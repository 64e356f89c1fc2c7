(** BFS shortest paths and DAG longest paths over CSR graphs.

    The independent references are the Bellman-Ford distances and the
    memoised longest-path recursion in [test/graph_oracle.ml]. *)

val shortest_nonempty_batch :
  succ:Cr_kernel.Csr.t -> srcs:int array -> dsts:int array -> int array
(** [shortest_nonempty_batch ~succ ~srcs ~dsts] answers query [k] with the
    shortest path length from [srcs.(k)] to [dsts.(k)], or [-1] when
    unreachable; it classifies compression edges in the
    convergence-refinement checker.  Every query must have
    [src <> dst] ([Invalid_argument] otherwise).  Queries are grouped by
    source, one BFS per distinct source, parallel through [Par] with one
    reused distance row and queue per chunk, so memory is O(states) per
    chunk rather than per source.  The answers and the [paths.*]
    counters (misses = BFS runs = distinct sources, hits = the other
    queries) are the same for every job count; an empty batch allocates
    nothing graph-sized. *)

val shortest_path : succ:Cr_kernel.Csr.t -> src:int -> dst:int -> int list option
(** One shortest path, inclusive of endpoints ([src = dst] gives [[src]]). *)

exception Cyclic

val longest_within : succ:Cr_kernel.Csr.t -> mask:Cr_kernel.Bitset.t -> int array
(** [longest_within ~succ ~mask] gives, for each masked state, the maximum
    number of consecutive transitions that remain inside the masked region
    starting there (the edge leaving the region counts; unmasked states
    get 0).  Raises {!Cyclic} if the masked subgraph has a cycle.  This is
    the exact worst-case convergence time when [mask] is the set of
    illegitimate states of a stabilizing system. *)
