(* Unit and property tests for cr_checker: reachability, SCC, paths. *)

(* lift the pool's busy-domain cap so the CR_JOBS-invariance properties
   really fan out across domains on a single-core host *)
let () = Unix.putenv "CR_PAR_CAP" "8"

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

module Csr = Cr_kernel.Csr
module Bs = Cr_kernel.Bitset

(* adjacency: 0->1->2->0 (cycle), 2->3, 3->4, 5 isolated *)
let rows = [| [| 1 |]; [| 2 |]; [| 0; 3 |]; [| 4 |]; [||]; [||] |]
let g = Csr.of_rows rows

let test_forward () =
  let r = Cr_checker.Reach.forward ~succ:g ~seeds:[ 0 ] in
  check "reaches 4" true (Bs.get r 4);
  check "not 5" false (Bs.get r 5);
  check_int "count" 5 (Bs.count r);
  Alcotest.(check (list int)) "members" [ 0; 1; 2; 3; 4 ]
    (List.filter (Bs.get r) (List.init 6 Fun.id))

let test_backward () =
  let r = Cr_checker.Reach.backward ~succ:g ~seeds:[ 4 ] in
  check "0 reaches 4" true (Bs.get r 0);
  check "5 does not" false (Bs.get r 5)

let test_scc () =
  let t = Cr_checker.Scc.compute g in
  check "0,1,2 same comp" true
    (t.Cr_checker.Scc.component.(0) = t.Cr_checker.Scc.component.(1)
    && t.Cr_checker.Scc.component.(1) = t.Cr_checker.Scc.component.(2));
  check "3 different" true
    (t.Cr_checker.Scc.component.(3) <> t.Cr_checker.Scc.component.(0));
  check "0 on cycle" true (Cr_checker.Scc.on_cycle t 0);
  check "3 not on cycle" false (Cr_checker.Scc.on_cycle t 3);
  check "edge 1->2 on cycle" true (Cr_checker.Scc.edge_on_cycle t 1 2);
  check "edge 2->3 not" false (Cr_checker.Scc.edge_on_cycle t 2 3)

(* Acyclicity of a masked region, as the stabilization checker asks it:
   no component of the restricted graph has two states. *)
let acyclic_within g mask =
  let mask = Bs.of_bool_array mask in
  let t = Cr_checker.Scc.compute (Csr.restrict g mask) in
  List.for_all
    (fun i -> not (Bs.get mask i && Cr_checker.Scc.on_cycle t i))
    (List.init (Csr.num_states g) Fun.id)

let test_acyclic_within () =
  let all = Array.make 6 true in
  check "whole graph cyclic" false (acyclic_within g all);
  let no_cycle = [| false; true; true; true; true; true |] in
  check "without 0 acyclic" true (acyclic_within g no_cycle)

let test_bfs () =
  let d =
    Cr_checker.Paths.shortest_nonempty_batch ~succ:g ~srcs:[| 0; 0; 0 |]
      ~dsts:[| 4; 2; 5 |]
  in
  check_int "dist to 4" 4 d.(0);
  check_int "dist to 2" 2 d.(1);
  check_int "unreachable" (-1) d.(2)

let test_shortest_nonempty () =
  Alcotest.(check (array int))
    "1 to 0, 4 to 0 impossible" [| 2; -1 |]
    (Cr_checker.Paths.shortest_nonempty_batch ~succ:g ~srcs:[| 1; 4 |]
       ~dsts:[| 0; 0 |])

(* At one job all 16 distinct sources share one chunk, BFSed in
   ascending order; only the even sources reach [t].  A chunk that
   failed to reset its distance row between two BFSs would still see
   [t] at distance 1 from each odd source. *)
let test_batch_scratch_reset () =
  let t = 16 in
  let rows = Array.init 17 (fun s -> if s < t && s mod 2 = 0 then [| t |] else [||]) in
  let succ = Cr_kernel.Csr.of_rows rows in
  let srcs = Array.init 16 Fun.id in
  let got =
    Cr_kernel.Par.with_jobs 1 (fun () ->
        Cr_checker.Paths.shortest_nonempty_batch ~succ ~srcs
          ~dsts:(Array.make 16 t))
  in
  Alcotest.(check (array int))
    "only even sources reach t"
    (Array.init 16 (fun s -> if s mod 2 = 0 then 1 else -1))
    got;
  check "src = dst is rejected" true
    (match
       Cr_checker.Paths.shortest_nonempty_batch ~succ ~srcs:[| 0; 2 |]
         ~dsts:[| t; 2 |]
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* Lemma 7 (E5, C1 vs BTR at N = 4): 176 compression queries from 17
   distinct source images — the counts EXPERIMENTS.md's worked example
   records — at every job count. *)
let test_batch_counters_e5 () =
  let module Obs = Cr_obs.Obs in
  List.iter
    (fun jobs ->
      Obs.reset ();
      Obs.force_collect ();
      let r =
        Cr_kernel.Par.with_jobs jobs (fun () ->
            Cr_core.Check_cache.bypass (fun () ->
                Cr_experiments.Ring_exps.lemma7 4))
      in
      check "[C1 ⪯ BTR] holds" true r.Cr_core.Refine.holds;
      let expect what snap wants =
        List.iter
          (fun (name, want) ->
            check_int
              (Printf.sprintf "%s %s at jobs=%d" what name jobs)
              want
              (Option.value ~default:0 (List.assoc_opt name snap)))
          wants
      in
      expect "merged" (Obs.merged_snapshot ())
        [
          ("paths.oracle.hits", 159);
          ("paths.oracle.misses", 17);
          ("paths.bfs.runs", 17);
          ("paths.bfs.expansions", 444);
        ];
      (* the verdict's own cost counts the BFS runs of every domain *)
      match r.Cr_core.Refine.cost with
      | None -> Alcotest.fail "no cost snapshot while tracking"
      | Some cost ->
          expect "cost" cost
            [ ("paths.oracle.misses", 17); ("paths.bfs.runs", 17) ])
    [ 1; 2; 4 ]

let test_shortest_path () =
  (match Cr_checker.Paths.shortest_path ~succ:g ~src:0 ~dst:4 with
  | Some p ->
      Alcotest.(check (list int)) "path 0..4" [ 0; 1; 2; 3; 4 ] p
  | None -> Alcotest.fail "expected path");
  Alcotest.(check (option (list int)))
    "src=dst" (Some [ 3 ])
    (Cr_checker.Paths.shortest_path ~succ:g ~src:3 ~dst:3);
  Alcotest.(check (option (list int)))
    "unreachable" None
    (Cr_checker.Paths.shortest_path ~succ:g ~src:4 ~dst:0)

let test_longest_within () =
  (* DAG: 0->1->2, 0->2, mask all *)
  let dag = Csr.of_rows [| [| 1; 2 |]; [| 2 |]; [||] |] in
  let longest mask =
    Cr_checker.Paths.longest_within ~succ:dag ~mask:(Bs.of_bool_array mask)
  in
  let l = longest (Array.make 3 true) in
  check_int "longest from 0" 2 l.(0);
  check_int "longest from 2" 0 l.(2);
  (* masked region: only 0 and 1 — an edge out of the mask still counts *)
  let l2 = longest [| true; true; false |] in
  check_int "stops at mask" 2 l2.(0);
  check "cyclic raises" true
    (try
       ignore (Cr_checker.Paths.longest_within ~succ:g ~mask:(Bs.full 6));
       false
     with Cr_checker.Paths.Cyclic -> true)

(* properties: on random graphs every kernel agrees with the naive
   oracle of Graph_oracle, and the kernels agree with each other (SCC
   classes = mutual reachability, BFS distance = reconstructed path
   length). *)

let gen_graph =
  QCheck2.Gen.(
    let* n = int_range 1 12 in
    let* edges = list_size (int_bound 30) (pair (int_bound (n - 1)) (int_bound (n - 1))) in
    return (n, edges))

let adj_of (n, edges) =
  let a = Array.make n [] in
  List.iter (fun (i, j) -> if i <> j then a.(i) <- j :: a.(i)) edges;
  Array.map (fun l -> Array.of_list (List.sort_uniq compare l)) a

(* A random graph plus a random mask over its states. *)
let gen_masked_graph =
  QCheck2.Gen.(
    map
      (fun (g, bits) ->
        let adj = adj_of g in
        let n = Array.length adj in
        (adj, Array.init n (fun i -> i < Array.length bits && bits.(i))))
      (pair gen_graph (array_size (int_bound 12) bool)))

let prop_scc_mutual_reach =
  QCheck2.Test.make ~name:"same SCC iff mutually reachable" ~count:100 gen_graph
    (fun g ->
      let adj = adj_of g in
      let csr = Csr.of_rows adj in
      let n = Array.length adj in
      let t = Cr_checker.Scc.compute csr in
      let ok = ref true in
      for i = 0 to n - 1 do
        let ri = Cr_checker.Reach.forward ~succ:csr ~seeds:[ i ] in
        for j = 0 to n - 1 do
          let rj = Cr_checker.Reach.forward ~succ:csr ~seeds:[ j ] in
          let mutual = Bs.get ri j && Bs.get rj i in
          let same = t.Cr_checker.Scc.component.(i) = t.Cr_checker.Scc.component.(j) in
          if mutual <> same then ok := false
        done
      done;
      !ok)

let prop_bfs_path_agree =
  QCheck2.Test.make ~name:"bfs distance = reconstructed path length" ~count:100
    gen_graph (fun g ->
      let adj = adj_of g in
      let csr = Csr.of_rows adj in
      let n = Array.length adj in
      let states = List.init n Fun.id in
      let pairs =
        List.concat_map
          (fun src ->
            List.filter_map
              (fun dst -> if src <> dst then Some (src, dst) else None)
              states)
          states
      in
      let srcs = Array.of_list (List.map fst pairs) in
      let dsts = Array.of_list (List.map snd pairs) in
      let d = Cr_checker.Paths.shortest_nonempty_batch ~succ:csr ~srcs ~dsts in
      List.for_all2
        (fun (src, dst) d ->
          match Cr_checker.Paths.shortest_path ~succ:csr ~src ~dst with
          | Some p -> List.length p - 1 = d
          | None -> d = -1)
        pairs (Array.to_list d))

(* A random batch over a random graph: up to 60 queries over at most 12
   nodes, so sources repeat, some destinations are unreachable, and
   several sources share a chunk (all of them at one job); src = dst
   pairs dropped. *)
let gen_batch_case =
  QCheck2.Gen.(
    let* ((n, _) as g) = gen_graph in
    let* qs = list_size (int_bound 60) (pair (int_bound (n - 1)) (int_bound (n - 1))) in
    return (g, List.filter (fun (s, d) -> s <> d) qs))

let prop_batch_eq_reference =
  QCheck2.Test.make ~name:"batched shortest_nonempty = row reference, jobs 1/2/4"
    ~count:100 gen_batch_case (fun (g, qs) ->
      let adj = adj_of g in
      let succ = Csr.of_rows adj in
      let srcs = Array.of_list (List.map fst qs) in
      let dsts = Array.of_list (List.map snd qs) in
      let expected =
        Array.map2 (fun src dst -> (Graph_oracle.distances adj src).(dst)) srcs dsts
      in
      List.for_all
        (fun jobs ->
          Cr_kernel.Par.with_jobs jobs (fun () ->
              Cr_checker.Paths.shortest_nonempty_batch ~succ ~srcs ~dsts)
          = expected)
        [ 1; 2; 4 ])

let prop_par_map_eq_seq =
  QCheck2.Test.make ~name:"Par.map_array with jobs>1 = Array.map" ~count:50
    QCheck2.Gen.(pair (list_size (int_bound 40) (int_bound 1000)) (int_range 2 6))
    (fun (l, jobs) ->
      let a = Array.of_list l in
      Cr_kernel.Par.map_array ~jobs (fun x -> x * x + 1) a
      = Array.map (fun x -> x * x + 1) a)

(* ---- CSR kernels agree with the naive oracle ---- *)

let prop_reach_oracle =
  QCheck2.Test.make ~name:"forward/backward = edge-list fixpoint" ~count:200
    gen_graph (fun g ->
      let adj = adj_of g in
      let csr = Csr.of_rows adj in
      List.for_all
        (fun s ->
          Bs.to_bool_array (Cr_checker.Reach.forward ~succ:csr ~seeds:[ s ])
          = Graph_oracle.forward adj [ s ]
          && Bs.to_bool_array (Cr_checker.Reach.backward ~succ:csr ~seeds:[ s ])
             = Graph_oracle.backward adj [ s ])
        (List.init (Array.length adj) Fun.id))

let prop_scc_oracle =
  QCheck2.Test.make ~name:"Scc.compute = mutual reachability" ~count:200
    gen_graph (fun g ->
      let adj = adj_of g in
      let t = Cr_checker.Scc.compute (Csr.of_rows adj) in
      let oracle = Array.to_list (Graph_oracle.scc adj) in
      let size_of c = List.length (List.filter (( = ) c) oracle) in
      let open Cr_checker.Scc in
      Graph_oracle.same_partition t.component (Array.of_list oracle)
      && t.count = List.length (List.sort_uniq compare oracle)
      && List.for_all2
           (fun c i -> t.sizes.(t.component.(i)) = size_of c)
           oracle
           (List.init (Array.length adj) Fun.id))

let prop_paths_oracle =
  QCheck2.Test.make ~name:"shortest_path/longest_within = oracle" ~count:100
    gen_masked_graph (fun (adj, mask) ->
      let csr = Csr.of_rows adj in
      let n = Array.length adj in
      let is_path src dst p =
        let rec edges = function
          | i :: (j :: _ as rest) -> Array.mem j adj.(i) && edges rest
          | _ -> true
        in
        List.hd p = src && List.nth p (List.length p - 1) = dst && edges p
      in
      let ok = ref true in
      for src = 0 to n - 1 do
        let d = Graph_oracle.distances adj src in
        for dst = 0 to n - 1 do
          match Cr_checker.Paths.shortest_path ~succ:csr ~src ~dst with
          | Some p ->
              if not (is_path src dst p && List.length p - 1 = d.(dst)) then
                ok := false
          | None -> if d.(dst) >= 0 then ok := false
        done
      done;
      let got =
        try
          Some
            (Cr_checker.Paths.longest_within ~succ:csr
               ~mask:(Bs.of_bool_array mask))
        with Cr_checker.Paths.Cyclic -> None
      in
      !ok && got = Graph_oracle.longest_within adj mask)

(* Deterministic pseudo-random action tables drawn from the graph's own
   edges, so admissibility is non-trivial. *)
let tables_of_adj adj num_actions =
  Array.init num_actions (fun a ->
      Array.init (Array.length adj) (fun s ->
          let row = adj.(s) in
          let d = Array.length row in
          if d = 0 || (s + a) mod 3 = 0 then -1 else row.((s * 7 + a) mod d)))

let prop_fair_oracle =
  QCheck2.Test.make ~name:"Fair.analyze = per-SCC fairness oracle" ~count:200
    QCheck2.Gen.(pair gen_masked_graph (int_range 1 3))
    (fun ((adj, mask), num_actions) ->
      let tables = tables_of_adj adj num_actions in
      let a =
        Cr_core.Fair.analyze tables ~succ:(Csr.of_rows adj)
          ~mask:(Bs.of_bool_array mask)
      in
      let fair = Graph_oracle.fair_sccs tables adj mask in
      (* unmasked states share the label -1 on both sides *)
      let classes =
        Array.mapi
          (fun i c -> if mask.(i) then c else -1)
          (Graph_oracle.scc (Graph_oracle.restrict adj mask))
      in
      List.sort compare a.Cr_core.Fair.sccs = List.sort compare fair
      && a.Cr_core.Fair.fair
         = Array.init (Array.length adj) (fun i -> List.exists (List.mem i) fair)
      && Array.for_all2 (fun m c -> m = (c >= 0)) mask a.Cr_core.Fair.component
      && Graph_oracle.same_partition a.Cr_core.Fair.component classes)

(* ---- classify is byte-identical for CR_JOBS in {1, 2, 4} ---- *)

let explicit_of_adj name adj inits =
  let n = Array.length adj in
  Cr_semantics.Explicit.of_edge_lists ~name
    ~states:(Array.init n (fun i -> i))
    ~pp_state:Fmt.int
    ~is_initial:(fun s -> List.mem s inits)
    ~succ_lists:(Array.map Array.to_list adj)

(* A random concrete/abstract pair with a salted alpha table. *)
let gen_classify_case =
  QCheck2.Gen.(triple gen_graph gen_graph (int_bound 1000))

let classify_case (gc, ga, salt) =
  let c = explicit_of_adj "C" (adj_of gc) [ 0 ] in
  let a_rows = adj_of ga in
  let a = explicit_of_adj "A" a_rows [ 0 ] in
  let nc = Cr_semantics.Explicit.num_states c in
  let na = Cr_semantics.Explicit.num_states a in
  let alpha = Array.init nc (fun i -> (i * 31 + salt) mod na) in
  (c, a, a_rows, alpha)

(* [Refine.classify] under a forced CR_JOBS, flattened to the edge list
   [(src, dst, class)] in iteration order, plus its stats. *)
let classify_with_jobs jobs ~alpha ~c ~a =
  Unix.putenv "CR_JOBS" (string_of_int jobs);
  Fun.protect
    ~finally:(fun () -> Unix.putenv "CR_JOBS" "1")
    (fun () ->
      let cl, stats = Cr_core.Refine.classify ~alpha ~c ~a in
      let edges = ref [] in
      Cr_core.Refine.iter_classified cl (fun i j k -> edges := (i, j, k) :: !edges);
      (List.rev !edges, stats))

let prop_classify_jobs_invariant =
  QCheck2.Test.make ~name:"classify invariant under CR_JOBS in {1,2,4}"
    ~count:60 gen_classify_case
    (fun case ->
      let c, a, _, alpha = classify_case case in
      let r1 = classify_with_jobs 1 ~alpha ~c ~a in
      r1 = classify_with_jobs 2 ~alpha ~c ~a
      && r1 = classify_with_jobs 4 ~alpha ~c ~a)

(* Independent oracle: classify every edge directly — image equality,
   then [Explicit.has_edge], then the Bellman-Ford distance of
   [Graph_oracle] — and tally the stats by hand. *)
let prop_classify_matches_oracle =
  QCheck2.Test.make ~name:"classify matches a per-edge reference oracle"
    ~count:100 gen_classify_case
    (fun case ->
      let c, a, a_rows, alpha = classify_case case in
      let open Cr_core.Refine in
      let expected = ref [] in
      let stats = ref { edges = 0; exact = 0; stutter = 0; compressions = 0; max_dropped = 0 } in
      Cr_semantics.Explicit.iter_edges c (fun i j ->
          let ai = alpha.(i) and aj = alpha.(j) in
          let s = !stats in
          let cls, s =
            if ai = aj then (Some Stutter, { s with stutter = s.stutter + 1 })
            else if Cr_semantics.Explicit.has_edge a ai aj then
              (Some Exact, { s with exact = s.exact + 1 })
            else
              match (Graph_oracle.distances a_rows ai).(aj) with
              | len when len >= 2 ->
                  ( Some (Compression len),
                    {
                      s with
                      compressions = s.compressions + 1;
                      max_dropped = max s.max_dropped (len - 1);
                    } )
              | _ -> (None, s)
          in
          stats := { s with edges = s.edges + 1 };
          expected := (i, j, cls) :: !expected);
      let expected = (List.rev !expected, !stats) in
      List.for_all
        (fun jobs -> classify_with_jobs jobs ~alpha ~c ~a = expected)
        [ 1; 2; 4 ])

(* The CR_JOBS fan-out must be observationally invisible: the full report
   at N = 2..4 prints the same bytes whether computed sequentially or on
   four domains.  Capture redirects the stdout file descriptor: once a
   domain has been spawned, Format's std_formatter writes through a
   domain-local buffer straight to [Stdlib.stdout], so formatter-level
   out-function swapping would miss everything after the first spawn. *)
let test_report_jobs_invariant () =
  let capture () =
    let tmp = Filename.temp_file "cr_jobs" ".out" in
    let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
    flush stdout;
    Format.print_flush ();
    let saved = Unix.dup Unix.stdout in
    Unix.dup2 fd Unix.stdout;
    Unix.close fd;
    Fun.protect
      ~finally:(fun () ->
        flush stdout;
        Format.print_flush ();
        Unix.dup2 saved Unix.stdout;
        Unix.close saved)
      (fun () -> Cr_experiments.Report.all ~ns:[ 2; 3; 4 ] ());
    let ic = open_in_bin tmp in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove tmp;
    s
  in
  Unix.putenv "CR_JOBS" "1";
  let seq = capture () in
  Unix.putenv "CR_JOBS" "4";
  let par = capture () in
  Unix.putenv "CR_JOBS" "1";
  check "report output non-trivial" true (String.length seq > 1000);
  Alcotest.(check string) "CR_JOBS=4 output = CR_JOBS=1 output" seq par

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_scc_mutual_reach;
      prop_bfs_path_agree;
      prop_batch_eq_reference;
      prop_par_map_eq_seq;
      prop_reach_oracle;
      prop_scc_oracle;
      prop_paths_oracle;
      prop_fair_oracle;
      prop_classify_jobs_invariant;
      prop_classify_matches_oracle;
    ]

let () =
  Alcotest.run "checker"
    [
      ( "reach",
        [
          Alcotest.test_case "forward" `Quick test_forward;
          Alcotest.test_case "backward" `Quick test_backward;
        ] );
      ( "scc",
        [
          Alcotest.test_case "components" `Quick test_scc;
          Alcotest.test_case "acyclic_within" `Quick test_acyclic_within;
        ] );
      ( "paths",
        [
          Alcotest.test_case "bfs" `Quick test_bfs;
          Alcotest.test_case "shortest_nonempty" `Quick test_shortest_nonempty;
          Alcotest.test_case "batch scratch reset" `Quick test_batch_scratch_reset;
          Alcotest.test_case "batch counters on E5" `Quick test_batch_counters_e5;
          Alcotest.test_case "shortest_path" `Quick test_shortest_path;
          Alcotest.test_case "longest_within" `Quick test_longest_within;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "CR_JOBS invariance of Report.all" `Quick
            test_report_jobs_invariant;
        ] );
      ("properties", qcheck_cases);
    ]
