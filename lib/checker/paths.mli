(** BFS shortest paths and DAG longest paths.

    {!shortest_nonempty_batch} and the [_csr] kernels run over {!Csr} graphs
    (the production path); the array-of-rows functions are the reference
    implementation the qcheck equivalence properties compare against. *)

val bfs_distances : succ:int array array -> src:int -> int array
(** [dist.(j)] = shortest path length from [src], or [-1]. *)

val bfs_distances_csr : succ:Cr_kernel.Csr.t -> src:int -> int array
(** {!bfs_distances} over a CSR graph. *)

val shortest_nonempty : succ:int array array -> src:int -> dst:int -> int option
(** Length of the shortest path of length >= 1 (for [src = dst], the
    shortest cycle).  The row reference for {!shortest_nonempty_batch},
    which classifies compression edges in the convergence-refinement
    checker. *)

val shortest_nonempty_batch :
  succ:Cr_kernel.Csr.t -> srcs:int array -> dsts:int array -> int array
(** [shortest_nonempty_batch ~succ ~srcs ~dsts] answers query [k] with the
    shortest path length from [srcs.(k)] to [dsts.(k)], or [-1] when
    unreachable — the same answers as {!shortest_nonempty}.  Every query
    must have [src <> dst] ([Invalid_argument] otherwise).  Queries are
    grouped by source, one BFS per distinct source, parallel through
    [Par] with one reused distance row and queue per chunk, so memory is
    O(states) per chunk rather than per source.  The answers and the
    [paths.*] counters (misses = BFS runs = distinct sources, hits =
    the other queries) are the same for every job count; an empty batch
    allocates nothing graph-sized. *)

val shortest_path : succ:int array array -> src:int -> dst:int -> int list option
(** One shortest path, inclusive of endpoints ([src = dst] gives [[src]]). *)

val shortest_path_csr : succ:Cr_kernel.Csr.t -> src:int -> dst:int -> int list option
(** {!shortest_path} over a CSR graph. *)

exception Cyclic

val longest_within : succ:int array array -> mask:bool array -> int array
(** [longest_within ~succ ~mask] gives, for each masked state, the maximum
    number of consecutive transitions that remain inside the masked region
    starting there.  Raises {!Cyclic} if the masked subgraph has a cycle.
    This is the exact worst-case convergence time when [mask] is the set of
    illegitimate states of a stabilizing system. *)

val longest_within_csr : succ:Cr_kernel.Csr.t -> mask:Cr_kernel.Bitset.t -> int array
(** {!longest_within} over a CSR graph and a packed mask. *)
