(* Tests of the kernel memo (Cr_kernel.Memo), the one cache behind both
   the compile cache and the verdict cache: bypass, CR_CACHE=0,
   paranoid mode (honest hits pass, planted mismatches raise), clear
   keeps in-flight entries, and a computation that raises caches
   nothing while its waiters retry. *)

module Memo = Cr_kernel.Memo
module Obs = Cr_obs.Obs

let group = Memo.group "test.memo"

let counter snap name =
  match List.assoc_opt name snap with Some v -> v | None -> 0

(* Fresh counters, then [f]; returns (result, hits, misses). *)
let with_counters f =
  Obs.reset ();
  Obs.force_collect ();
  let r = f () in
  let snap = Obs.merged_snapshot () in
  (r, counter snap "test.memo.hits", counter snap "test.memo.misses")

let with_env name value f =
  Unix.putenv name value;
  Fun.protect ~finally:(fun () -> Unix.putenv name "") f

(* A lookup that counts how often [compute] really ran. *)
let lookup t ~runs key v =
  Memo.find_or_compute t
    ~key:(fun () -> key)
    ~same:( = )
    (fun () ->
      incr runs;
      v)

let test_hit_after_miss () =
  let t = Memo.create group in
  let runs = ref 0 in
  let (a, b), hits, misses =
    with_counters (fun () ->
        let a = lookup t ~runs "k" 1 in
        (a, lookup t ~runs "k" 2))
  in
  Alcotest.(check (pair int int)) "second lookup returns the cached value" (1, 1) (a, b);
  Alcotest.(check int) "computed once" 1 !runs;
  Alcotest.(check (pair int int)) "one miss, one hit" (1, 1) (misses, hits);
  Alcotest.(check int) "one entry" 1 (Memo.length t)

let test_bypass () =
  let t = Memo.create group in
  let runs = ref 0 in
  let _, hits, misses =
    with_counters (fun () ->
        Memo.bypass group (fun () ->
            ignore (lookup t ~runs "k" 1);
            ignore (lookup t ~runs "k" 1)))
  in
  Alcotest.(check int) "computed every time" 2 !runs;
  Alcotest.(check (pair int int)) "no traffic counted" (0, 0) (misses, hits);
  Alcotest.(check int) "nothing stored" 0 (Memo.length t);
  ignore (lookup t ~runs "k" 1);
  ignore (lookup t ~runs "k" 1);
  Alcotest.(check int) "bypass restored: cached again" 3 !runs

let test_disabled () =
  let t = Memo.create group in
  let runs = ref 0 in
  let _, hits, misses =
    with_env "CR_CACHE" "0" (fun () ->
        with_counters (fun () ->
            ignore (lookup t ~runs "k" 1);
            ignore (lookup t ~runs "k" 1)))
  in
  Alcotest.(check int) "computed every time" 2 !runs;
  Alcotest.(check (pair int int)) "no traffic counted" (0, 0) (misses, hits);
  Alcotest.(check int) "nothing stored" 0 (Memo.length t)

let test_paranoid_passes () =
  let t = Memo.create group in
  let runs = ref 0 in
  with_env "CR_CACHE" "paranoid" (fun () ->
      ignore (lookup t ~runs "k" 1);
      Alcotest.(check int) "paranoid hit returns the cached value" 1
        (lookup t ~runs "k" 1));
  Alcotest.(check int) "the hit was recomputed" 2 !runs

let test_paranoid_raises () =
  let t = Memo.create group in
  let fresh = ref 0 in
  let get () =
    Memo.find_or_compute t
      ~key:(fun () -> "k")
      ~same:(fun cached now -> cached = now)
      (fun () ->
        incr fresh;
        !fresh)
  in
  with_env "CR_CACHE" "paranoid" (fun () ->
      ignore (get ());
      match get () with
      | _ -> Alcotest.fail "a planted mismatch must raise"
      | exception Invalid_argument _ -> ())

(* Spin until [flag] is set (bounded, so a bug fails instead of hanging). *)
let await flag =
  let deadline = Unix.gettimeofday () +. 10. in
  while not (Atomic.get flag) do
    if Unix.gettimeofday () > deadline then Alcotest.fail "timed out";
    Domain.cpu_relax ()
  done

let test_clear_keeps_inflight () =
  let t = Memo.create group in
  let runs = ref 0 in
  ignore (lookup t ~runs "done" 0);
  let started = Atomic.make false and release = Atomic.make false in
  let owner =
    Domain.spawn (fun () ->
        Memo.find_or_compute t
          ~key:(fun () -> "k")
          ~same:( = )
          (fun () ->
            Atomic.set started true;
            await release;
            7))
  in
  await started;
  Memo.clear t;
  Alcotest.(check int) "completed entry dropped" 0 (Memo.length t);
  (* a requester arriving after the clear still joins the flight *)
  let waiter =
    Domain.spawn (fun () ->
        Memo.find_or_compute t
          ~key:(fun () -> "k")
          ~same:( = )
          (fun () -> Alcotest.fail "waiter must not recompute"))
  in
  Unix.sleepf 0.05;
  Atomic.set release true;
  Alcotest.(check int) "owner's value" 7 (Domain.join owner);
  Alcotest.(check int) "waiter gets the owner's value" 7 (Domain.join waiter);
  Alcotest.(check int) "in-flight entry published" 1 (Memo.length t)

let test_raise_caches_nothing () =
  let t = Memo.create group in
  (match
     Memo.find_or_compute t ~key:(fun () -> "k") ~same:( = ) (fun () ->
         failwith "boom")
   with
  | _ -> Alcotest.fail "the error must propagate"
  | exception Failure _ -> ());
  Alcotest.(check int) "nothing stored" 0 (Memo.length t);
  (* a domain blocked on a computation that raises retries for itself *)
  let started = Atomic.make false and release = Atomic.make false in
  let owner =
    Domain.spawn (fun () ->
        match
          Memo.find_or_compute t ~key:(fun () -> "k") ~same:( = ) (fun () ->
              Atomic.set started true;
              await release;
              failwith "boom")
        with
        | _ -> false
        | exception Failure _ -> true)
  in
  await started;
  let waiter =
    Domain.spawn (fun () ->
        Memo.find_or_compute t ~key:(fun () -> "k") ~same:( = ) (fun () -> 5))
  in
  Unix.sleepf 0.05;
  Atomic.set release true;
  Alcotest.(check bool) "owner sees its error" true (Domain.join owner);
  Alcotest.(check int) "waiter computes for itself" 5 (Domain.join waiter);
  Alcotest.(check int) "only the waiter's value stored" 1 (Memo.length t)

let test_fp () =
  let fp xs =
    let t = Memo.Fp.create () in
    Memo.Fp.add_int_array t xs;
    Memo.Fp.to_hex t
  in
  Alcotest.(check bool) "deterministic" true (fp [| 1; 2 |] = fp [| 1; 2 |]);
  Alcotest.(check bool) "order-sensitive" true (fp [| 1; 2 |] <> fp [| 2; 1 |]);
  Alcotest.(check bool) "length-prefixed" true (fp [| 0 |] <> fp [| 0; 0 |])

let () =
  Alcotest.run "memo"
    [
      ( "memo",
        [
          Alcotest.test_case "hit after miss" `Quick test_hit_after_miss;
          Alcotest.test_case "bypass skips the table" `Quick test_bypass;
          Alcotest.test_case "CR_CACHE=0 disables" `Quick test_disabled;
          Alcotest.test_case "paranoid passes honest hits" `Quick
            test_paranoid_passes;
          Alcotest.test_case "paranoid raises on a mismatch" `Quick
            test_paranoid_raises;
          Alcotest.test_case "clear keeps in-flight entries" `Quick
            test_clear_keeps_inflight;
          Alcotest.test_case "raise caches nothing, waiter retries" `Quick
            test_raise_caches_nothing;
          Alcotest.test_case "fingerprint folds" `Quick test_fp;
        ] );
    ]
