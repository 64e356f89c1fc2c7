(* Graybox design of stabilization (Section 2.2 of the paper).

   Run with:  dune exec examples/graybox_design.exe

   The promise of Theorem 5: design a stabilization wrapper against the
   *specification* only, refine system and wrapper independently, and the
   composition of the refinements is stabilizing — no knowledge of the
   implementation needed.

   This example replays the paper's 4-state derivation end to end:

     spec   A  = BTR                (abstract bidirectional token ring)
     wrapper W = W1 [] W2           (designed against BTR alone)
     impl   C  = C1                 (4-state, own-writes only)
     wrapper refinement W' = W1' [] W2' (vacuous for the 4-state mapping)

   and discharges each premise with the model checker. *)

let pf = Format.printf

let () =
  let n = 3 in
  pf "=== Graybox stabilization of the 4-state token ring ===@.@.";

  let btr = Cr_guarded.Program.to_explicit (Cr_tokenring.Btr.program n) in

  (* Premise 1 (wrapper works for the SPEC): (A [] W) stabilizing to A. *)
  let wrapped, is_wrapper = Cr_tokenring.Btr.wrapped_priority n in
  let aw = Cr_guarded.Program.to_explicit ~priority_of:is_wrapper wrapped in
  let p1 = Cr_core.Stabilize.stabilizing_to ~c:aw ~a:btr () in
  pf "premise 1 — %a@.@." Cr_core.Stabilize.pp_report p1;

  (* Premise 2 (implementation refines the spec): [C1 ⪯ BTR].  Note this
     uses only C1's transition system and the published mapping — not any
     insight into why C1 works.  Convergence refinement quantifies over
     every state of C1 (the compressions it admits are exactly the
     recovery moves from corrupted states), so it needs the dense compile;
     a reachable-only compile would see only the fault-free orbit. *)
  let c1 = Cr_guarded.Program.to_explicit (Cr_tokenring.Btr4.c1 n) in
  let alpha = Cr_semantics.Abstraction.tabulate (Cr_tokenring.Btr4.alpha n) c1 btr in
  let p2 = Cr_core.Refine.convergence_refinement ~alpha ~c:c1 ~a:btr () in
  pf "premise 2 — %a@." Cr_core.Refine.pp_report p2;
  pf "            (%d of C1's transitions compress multi-step BTR recovery)@.@."
    p2.Cr_core.Refine.stats.Cr_core.Refine.compressions;

  (* Premise 3 (wrapper refines independently): for the 4-state mapping
     the refined wrappers are VACUOUS — their guards already imply their
     effects (Section 4.1) — so W' adds nothing and C1 [] W' = C1. *)
  let w1_vac, w2_vac = Cr_experiments.Ring_exps.wrapper_vacuity n in
  pf "premise 3 — W1' vacuous on all states: %b; W2' vacuous: %b@.@." w1_vac w2_vac;

  (* Conclusion (Theorem 5): C1 [] W' = C1 is stabilizing to BTR.
     Stabilization quantifies over ALL states too (recovery from arbitrary
     corruption), so the conclusion reuses the dense compile. *)
  let concl = Cr_core.Stabilize.stabilizing_to ~alpha ~c:c1 ~a:btr () in
  pf "conclusion — %a@.@." Cr_core.Stabilize.pp_report concl;

  (* The further guard-relaxing optimization gives Dijkstra's published
     4-state system; its stabilization is checked the same way. *)
  let d4 = Cr_guarded.Program.to_explicit (Cr_tokenring.Btr4.dijkstra4 n) in
  let alpha4 = Cr_semantics.Abstraction.tabulate (Cr_tokenring.Btr4.alpha n) d4 btr in
  let dij = Cr_core.Stabilize.stabilizing_to ~alpha:alpha4 ~c:d4 ~a:btr () in
  pf "optimized —  %a@.@." Cr_core.Stabilize.pp_report dij;

  (* The same graybox story for the 3-state family: W1''/W2' were designed
     against BTR_3's mapping and reused UNCHANGED for both C2 (Section 5)
     and C3 (Section 6) — that reuse is the point of graybox design. *)
  pf "--- wrapper reuse across implementations (Sections 5-6) ---@.";
  List.iter
    (fun (name, mk) ->
      let prog, is_w = mk n in
      let e = Cr_guarded.Program.to_explicit ~priority_of:is_w prog in
      let a3 = Cr_semantics.Abstraction.tabulate (Cr_tokenring.Btr3.alpha n) e btr in
      let r = Cr_core.Stabilize.stabilizing_to ~alpha:a3 ~c:e ~a:btr () in
      pf "%-22s %a@." name Cr_core.Stabilize.pp_report r)
    [
      ("C2 [] W1'' [] W2'", Cr_tokenring.Btr3.c2_wrapped_priority);
      ("C3 [] W1'' [] W2'", Cr_tokenring.C3_system.new3_priority);
    ];
  pf "@.The same wrappers W1''/W2' stabilize two different implementations@.";
  pf "of the same specification — graybox design in action.@."
