(** Strongly connected components (iterative Tarjan) and cycle queries.

    Graphs here never contain self-loops (explicit systems drop them), so a
    state lies on a cycle iff its component has at least two states.  The
    independent reference is the mutual-reachability oracle in
    [test/graph_oracle.ml]. *)

type t = {
  component : int array;  (** state index -> component id *)
  count : int;  (** number of components *)
  sizes : int array;  (** component id -> size *)
}

val compute : Cr_kernel.Csr.t -> t
(** Components of a CSR graph.  Successors are visited in row order, so
    component ids are a function of the graph alone. *)

val on_cycle : t -> int -> bool
(** Is the state on some cycle? *)

val edge_on_cycle : t -> int -> int -> bool
(** Are both endpoints in the same component (so the edge closes a
    cycle)? *)
