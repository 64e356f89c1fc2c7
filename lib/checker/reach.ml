(* Reachability kernels.

   One DFS over the flat [Csr] arrays an explicit system already
   stores, marking a packed [Bitset] — no row copying, no per-row
   allocation.  The tests check it against the edge-list fixpoint in
   test/graph_oracle.ml. *)

module Csr = Cr_kernel.Csr
module Bitset = Cr_kernel.Bitset

let forward ~succ ~(seeds : int list) : Bitset.t =
  let n = Csr.num_states succ in
  let rp = Csr.row_ptr succ and tg = Csr.targets succ in
  let seen = Bitset.create n in
  (* flat int stack: each node is pushed at most once *)
  let stack = Array.make (max n 1) 0 in
  let sp = ref 0 in
  let push i =
    if not (Bitset.get seen i) then begin
      Bitset.set seen i;
      stack.(!sp) <- i;
      incr sp
    end
  in
  List.iter push seeds;
  while !sp > 0 do
    decr sp;
    let i = stack.(!sp) in
    for k = rp.(i) to rp.(i + 1) - 1 do
      push tg.(k)
    done
  done;
  seen

(* States that can reach some seed. *)
let backward ~succ ~seeds = forward ~succ:(Csr.transpose succ) ~seeds

(* Zero-copy views of the CSRs an explicit system already stores. *)
let of_explicit = Cr_semantics.Explicit.csr

let pred_of_explicit = Cr_semantics.Explicit.pred_csr

(* Backward reachability straight off the stored predecessor CSR — no
   transposition pass here, no row copying. *)
let backward_of_explicit expl ~seeds =
  forward ~succ:(Cr_semantics.Explicit.pred_csr expl) ~seeds

let reachable_from_initial expl =
  forward
    ~succ:(Cr_semantics.Explicit.csr expl)
    ~seeds:(Array.to_list (Cr_semantics.Explicit.initials expl))
