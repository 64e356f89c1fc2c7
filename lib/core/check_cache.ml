(* Content-addressed memoization of checker verdicts: one key builder
   and one lookup over the kernel memo (see check_cache.mli). *)

module Memo = Cr_kernel.Memo
module Fp = Memo.Fp

let group = Memo.group "check.cache"

type 'v t = 'v Memo.t

let create () = Memo.create group
let bypass f = Memo.bypass group f
let clear_all () = Memo.clear_all group

(* Structure and initial states; the name is deliberately not folded
   (it goes into the readable part of the key instead). *)
let add_explicit fp e =
  let g = Cr_semantics.Explicit.csr e in
  Fp.add_int fp (Cr_semantics.Explicit.num_states e);
  Fp.add_int_array fp (Cr_kernel.Csr.row_ptr g);
  Fp.add_int_array fp (Cr_kernel.Csr.targets g);
  Fp.add_int_array fp (Cr_semantics.Explicit.initials e)

let key ~tag ~extra ~alpha ~fair ~c ~a () =
  let fp = Fp.create () in
  add_explicit fp c;
  add_explicit fp a;
  Fp.add_int_array fp alpha;
  (match fair with
  | None -> Fp.add_int fp (-1)
  | Some rows ->
      Fp.add_int fp (Array.length rows);
      Array.iter (Fp.add_int_array fp) rows);
  Option.iter (Fp.add_int fp) extra;
  Printf.sprintf "%s|%s|%s|%s" tag (Cr_semantics.Explicit.name c)
    (Cr_semantics.Explicit.name a) (Fp.to_hex fp)

(* [cached] is true when the verdict came out of the table without
   running the checker (under CR_CACHE=paranoid the re-check makes a hit
   look fresh — the honest reading, since the work was done). *)
let find_or_check t ~tag ?extra ~alpha ~fair ~c ~a ~same check =
  let computed = ref false in
  let check () =
    computed := true;
    check ()
  in
  let v =
    Memo.find_or_compute t ~key:(key ~tag ~extra ~alpha ~fair ~c ~a) ~same check
  in
  (v, not !computed)

let emit_verdict ev ~cached ~cost fields tail =
  let open Cr_obs.Journal in
  emit ev
    (fields
    @ (("cached", B cached) :: tail)
    @ match cost with Some snap -> [ ("cost", Snap snap) ] | None -> [])
