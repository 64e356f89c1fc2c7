(* Verdict-cache (Cr_core.Check_cache) tests over the full registry at
   N = 3: warm hits return the same verdicts a fresh (bypassed) check
   computes, CR_CACHE=0 bypasses the cache entirely, and
   CR_CACHE=paranoid recheck-and-assert passes on every hit.  The memo
   itself is tested in test_memo.ml; the CR_CACHE cases here cover the
   verdict cache's own wiring.  Their case names keep the variables
   CR_CACHE replaced, so test ids stay stable. *)

module Obs = Cr_obs.Obs
module Registry = Cr_experiments.Registry

let check = Alcotest.(check bool)
let n = 3

let counter snap name =
  match List.assoc_opt name snap with Some v -> v | None -> 0

(* Cold caches + fresh counters, then [f]; returns (result, counters). *)
let with_cold_counters f =
  Cr_guarded.Program.clear_compile_cache ();
  Cr_core.Check_cache.clear_all ();
  Obs.reset ();
  Obs.force_collect ();
  let r = f () in
  (r, Obs.merged_snapshot ())

(* All registry verdicts at N: every stabilization and refinement report,
   with cost snapshots dropped so cached and fresh runs compare equal. *)
let all_verdicts () =
  List.concat_map
    (fun name ->
      match Registry.find name with
      | None -> []
      | Some e ->
          let stab = Registry.stabilization e n in
          let refs = Registry.refinements e n in
          ( name ^ "/stabilize",
            `Stab { stab with Cr_core.Stabilize.cost = None } )
          :: List.filter_map
               (fun (label, r) ->
                 Option.map
                   (fun r ->
                     (name ^ "/" ^ label, `Ref { r with Cr_core.Refine.cost = None }))
                   r)
               refs)
    (Registry.names ())

let test_warm_hits_match_fresh () =
  let cold, snap_cold = with_cold_counters all_verdicts in
  check "cold run misses" true (counter snap_cold "check.cache.hits" = 0);
  check "cold run populates" true (counter snap_cold "check.cache.misses" > 0);
  (* warm: same questions, all answered from the cache *)
  Obs.reset ();
  Obs.force_collect ();
  let warm = all_verdicts () in
  let snap_warm = Obs.merged_snapshot () in
  check "warm run hits" true
    (counter snap_warm "check.cache.hits"
    >= List.length warm);
  check "warm run adds no misses" true
    (counter snap_warm "check.cache.misses" = 0);
  check "warm verdicts = cold verdicts" true (warm = cold);
  (* fresh (bypassed) verdicts agree with the cached ones *)
  let fresh = Cr_core.Check_cache.bypass all_verdicts in
  check "bypassed fresh verdicts = cached verdicts" true (fresh = warm)

let test_cache_disabled_by_env () =
  Unix.putenv "CR_CACHE" "0";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "CR_CACHE" "")
    (fun () ->
      let first, snap1 = with_cold_counters all_verdicts in
      let second = all_verdicts () in
      let snap2 = Obs.merged_snapshot () in
      check "no hits counted" true (counter snap1 "check.cache.hits" = 0);
      check "no misses counted" true (counter snap1 "check.cache.misses" = 0);
      check "still none on the second run" true
        (counter snap2 "check.cache.hits" = 0
        && counter snap2 "check.cache.misses" = 0);
      check "verdicts unchanged without the cache" true (first = second))

let test_paranoid_recheck_passes () =
  Unix.putenv "CR_CACHE" "paranoid";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "CR_CACHE" "")
    (fun () ->
      (* cold fill, then warm hits: each hit rechecks and asserts the
         cached report equals the fresh one — any divergence raises *)
      let cold, _ = with_cold_counters all_verdicts in
      let warm = all_verdicts () in
      check "paranoid warm run agrees" true (warm = cold))

let () =
  Alcotest.run "check_cache"
    [
      ( "verdict cache",
        [
          Alcotest.test_case "warm hits match fresh checks" `Quick
            test_warm_hits_match_fresh;
          Alcotest.test_case "CR_CHECK_CACHE=0 bypasses" `Quick
            test_cache_disabled_by_env;
          Alcotest.test_case "CR_CHECK_PARANOID=1 passes" `Quick
            test_paranoid_recheck_passes;
        ] );
    ]
