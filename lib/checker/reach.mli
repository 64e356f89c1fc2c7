(** Reachability kernels over CSR graphs, marking packed bitsets.

    An explicit system hands out its flat graph via {!of_explicit} (a
    zero-copy view).  The independent reference the tests compare
    against is the edge-list fixpoint in [test/graph_oracle.ml]. *)

val forward : succ:Cr_kernel.Csr.t -> seeds:int list -> Cr_kernel.Bitset.t
(** States reachable from [seeds] (inclusive). *)

val backward : succ:Cr_kernel.Csr.t -> seeds:int list -> Cr_kernel.Bitset.t
(** States that can reach some member of [seeds] (inclusive).
    Transposes internally; prefer {!backward_of_explicit} when the
    system's stored transpose is available. *)

val of_explicit : _ Cr_semantics.Explicit.t -> Cr_kernel.Csr.t
(** The transition CSR of an explicit system — a zero-copy view of what
    the system already stores. *)

val pred_of_explicit : _ Cr_semantics.Explicit.t -> Cr_kernel.Csr.t
(** The predecessor CSR an explicit system stores (forced on first use);
    also zero-copy. *)

val backward_of_explicit :
  _ Cr_semantics.Explicit.t -> seeds:int list -> Cr_kernel.Bitset.t
(** Backward reachability over the stored predecessor CSR (no
    transposition pass). *)

val reachable_from_initial : _ Cr_semantics.Explicit.t -> Cr_kernel.Bitset.t
(** States reachable from the initial states — for a specification [A]
    these are the "legitimate" states used by the stabilization checker. *)
