(* Query executor for the end-to-end checker benchmark (see README.md).

   Reads a query stream on stdin, runs it in a closed loop through the
   libraries' public API and prints one JSON object per line on stdout:
   one record per query (wall time, GC deltas, every timed library call,
   the verdicts), one per completed session, and a final summary.  It
   never sees a reference answer: run.py generates the stream and checks
   the verdicts.

   Stream syntax, one directive per line:
     closure SYS N        set-up only: count the states reachable from
                          SYS's canonical configuration (reference data)
     session              clear both caches and collect all garbage,
                          as a fresh process starts
     REL SYS N ENGINE     one query; REL is stab | init | refine4 and
                          ENGINE (dense | sparse) is the concrete compile

   Usage:
     executor.exe [--spawned-at T] --setup-only
     executor.exe [--spawned-at T] --seconds S [--trace]

   The first output line reports the set-up time: from T (the caller's
   wall clock when it spawned this process; default: entry to [main])
   to the end of set-up.

   Untraced, the sessions run in order, from the first again after the
   last, until the budget of S seconds is spent.  Traced, the run makes
   one untraced warm-up session, then an untraced phase "u" and a traced
   phase "t" of S/2 seconds each, both from the stream's start. *)

open Cr_guarded
module Obs = Cr_obs.Obs
module Registry = Cr_experiments.Registry
module Space = Cr_semantics.Space

type query = { rel : string; sys : string; n : int; engine : Space.engine }

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("executor: " ^ s); exit 2) fmt

let entry sys =
  match Registry.find sys with Some e -> e | None -> fail "unknown system %S" sys

let engine_of = function
  | "dense" -> Space.Dense
  | "sparse" -> Space.Sparse
  | s -> fail "unknown engine %S" s

(* ---------- stream parsing (set-up) ---------- *)

let parse_stream lines =
  let closures = ref [] and sessions = ref [] and cur = ref None in
  let flush () = Option.iter (fun q -> sessions := List.rev q :: !sessions) !cur in
  List.iter
    (fun line ->
      match String.split_on_char ' ' (String.trim line) with
      | [ "" ] -> ()
      | [ "closure"; sys; n ] -> closures := (sys, int_of_string n) :: !closures
      | [ "session" ] ->
          flush ();
          cur := Some []
      | [ (("stab" | "init" | "refine4") as rel); sys; n; eng ] -> (
          ignore (entry sys);
          let q = { rel; sys; n = int_of_string n; engine = engine_of eng } in
          match !cur with
          | Some qs -> cur := Some (q :: qs)
          | None -> fail "query before the first session")
      | _ -> fail "bad stream line %S" line)
    lines;
  flush ();
  let sessions = Array.of_list (List.rev !sessions) in
  if Array.length sessions = 0 then fail "empty stream";
  (List.rev !closures, Array.map Array.of_list sessions)

(* Reference data computed by simulation, outside the checker: the set
   of states reachable from the system's canonical configuration. *)
let closure_count sys n =
  let seeds =
    match sys with
    | "rw-dijkstra3" -> [ Cr_tokenring.Rw_atomicity.canonical n ]
    | _ -> fail "no canonical configuration known for %S" sys
  in
  Hashtbl.length (Program.reachable_from ((entry sys).program n) seeds)

(* ---------- JSON output ---------- *)

let buf = Buffer.create 4096
let add = Buffer.add_string buf
let addf fmt = Printf.bprintf buf fmt
let num x = addf "%.17g" x

let emit () =
  Buffer.add_char buf '\n';
  print_string (Buffer.contents buf);
  flush stdout;
  Buffer.clear buf

let str_ s () =
  add "\"";
  String.iter
    (function
      | '"' -> add "\\\""
      | '\\' -> add "\\\\"
      | c when Char.code c < 0x20 -> addf "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s;
  add "\""

let obj fields =
  add "{";
  List.iteri
    (fun i (k, f) ->
      if i > 0 then add ",";
      str_ k ();
      add ":";
      f ())
    fields;
  add "}"

let int_ v () = addf "%d" v
let bool_ b () = add (if b then "true" else "false")

(* ---------- timed library calls ---------- *)

let now = Unix.gettimeofday

type call = {
  layer : string;
  role : string;  (* "program" or "spec" for compiles *)
  engine : string;
  secs : float;
  minor : float;
  states : int;  (* states of a compiled graph, 0 for other layers *)
  full : int;  (* Layout.num_states of a compiled program, 0 otherwise *)
  hit : bool option;  (* cache answered (cached layers, traced phase only) *)
}

let calls : call list ref = ref []
let traced = ref false

let counter snap name = Option.value ~default:0 (List.assoc_opt name snap)

let timed ?(role = "") ?(engine = "") ?(full = 0) ?(states = fun _ -> 0) ?hit_counter ~layer f =
  let tracing = !traced && hit_counter <> None in
  let before = if tracing then Obs.domain_snapshot () else [] in
  let m0 = Gc.minor_words () in
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  let m1 = Gc.minor_words () in
  let hit =
    match hit_counter with
    | Some name when tracing -> Some (counter (Obs.domain_snapshot ()) name > counter before name)
    | _ -> None
  in
  calls :=
    { layer; role; engine; secs = t1 -. t0; minor = m1 -. m0; states = states r; full; hit }
    :: !calls;
  r

let compile role engine p =
  timed ~layer:"to_explicit" ~role ~engine:(Space.engine_name engine)
    ~full:(Layout.num_states (Program.layout p))
    ~hit_counter:"compile.cache.hits" ~states:Cr_semantics.Explicit.num_states
    (fun () -> Program.to_explicit ~space:engine p)

let verdict layer f = timed ~layer ~hit_counter:"check.cache.hits" f

(* ---------- one query ---------- *)

type answer =
  | Stab of Cr_core.Stabilize.report
  | Init of Cr_core.Refine.report
  | Refine4 of (string * Cr_core.Refine.report) list * Registry.entry * int
      * Layout.state Cr_semantics.Explicit.t

let run_query q =
  let e = entry q.sys in
  let c = compile "program" q.engine (e.program q.n) in
  let a = compile "spec" Space.Dense (e.spec q.n) in
  let alpha =
    timed ~layer:"tabulate" (fun () ->
        Cr_semantics.Abstraction.tabulate (e.alpha q.n) c a)
  in
  let refine name f = (name, verdict ("refine." ^ name) f) in
  match q.rel with
  | "stab" ->
      Stab (verdict "stabilizing_to" (fun () -> Cr_core.Stabilize.stabilizing_to ~alpha ~c ~a ()))
  | "init" -> Init (verdict "refine.init" (fun () -> Cr_core.Refine.init_refinement ~alpha ~c ~a ()))
  | _ ->
      let open Cr_core.Refine in
      (* in the order crcheck refine asks them (list literals would
         evaluate right to left) *)
      let init = refine "init" (fun () -> init_refinement ~alpha ~c ~a ()) in
      let every = refine "everywhere" (fun () -> everywhere_refinement ~alpha ~c ~a ()) in
      let conv = refine "convergence" (fun () -> convergence_refinement ~alpha ~c ~a ()) in
      let ee = refine "ee" (fun () -> everywhere_eventually_refinement ~alpha ~c ~a ()) in
      let rs = [ init; every; conv; ee ] in
      Refine4 (rs, e, q.n, c)

let refine_json (r : Cr_core.Refine.report) () =
  obj
    [
      ("holds", bool_ r.holds);
      ("failures", int_ r.total_failures);
      ("edges", int_ r.stats.edges);
    ]

let answer_json = function
  | Stab r ->
      obj
        [
          ("holds", bool_ r.holds);
          ("states", int_ r.states);
          ("legitimate", int_ r.legitimate);
          ("worst", fun () ->
              match r.worst_case_recovery with Some w -> addf "%d" w | None -> add "null");
        ]
  | Init r -> refine_json r ()
  | Refine4 (rs, e, n, c) ->
      (* output checks, run after the query's timed window *)
      let states = Cr_semantics.Explicit.num_states c in
      let conv = e.converged n in
      let one_token = ref true in
      for i = 0 to states - 1 do
        if not (conv (Cr_semantics.Explicit.state c i)) then one_token := false
      done;
      obj
        (List.map (fun (name, r) -> (name, refine_json r)) rs
        @ [
            ("states", int_ states);
            ("full", int_ (Layout.num_states (Program.layout (e.program n))));
            ("one_token", bool_ !one_token);
          ])

(* Span totals with nested spans of the same name counted once. *)
let span_totals () =
  let open_until = Hashtbl.create 16 and tot = Hashtbl.create 16 in
  List.iter
    (fun (ev : Obs.span_event) ->
      let nested =
        match Hashtbl.find_opt open_until ev.sname with
        | Some t_end -> ev.ts_us < t_end
        | None -> false
      in
      if not nested then begin
        Hashtbl.replace open_until ev.sname (ev.ts_us +. ev.dur_us);
        Hashtbl.replace tot ev.sname
          (ev.dur_us +. Option.value ~default:0. (Hashtbl.find_opt tot ev.sname))
      end)
    (Obs.events ());
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tot [] |> List.sort compare

let call_json c () =
  obj
    ([
       ("layer", str_ c.layer);
       ("role", str_ c.role);
       ("engine", str_ c.engine);
       ("secs", fun () -> num c.secs);
       ("minor", fun () -> num c.minor);
       ("states", int_ c.states);
       ("full", int_ c.full);
     ]
    @ match c.hit with Some h -> [ ("hit", bool_ h) ] | None -> [])

let list_ f xs () =
  add "[";
  List.iteri
    (fun i x ->
      if i > 0 then add ",";
      f x ())
    xs;
  add "]"

let query_record ~phase ~round q result ~wall ~minor ~majors =
  obj
    ([
       ("phase", str_ phase);
       ("round", int_ round);
       ("query", str_ (Printf.sprintf "%s %s %d %s" q.rel q.sys q.n (Space.engine_name q.engine)));
       ("wall", fun () -> num wall);
       ("minor", fun () -> num minor);
       ("majors", int_ majors);
       ("calls", list_ call_json (List.rev !calls));
       ( "answer",
         fun () ->
           match result with Ok a -> answer_json a | Error msg -> obj [ ("error", str_ msg) ] );
     ]
    @
    if !traced then
      [
        ("counters", fun () -> obj (List.map (fun (k, v) -> (k, int_ v)) (Obs.merged_snapshot ())));
        ("spans_us", fun () -> obj (List.map (fun (k, v) -> (k, fun () -> num v)) (span_totals ())));
      ]
    else [])

let run_one ~phase ~round q =
  calls := [];
  if !traced then Obs.reset ();
  let majors0 = (Gc.quick_stat ()).major_collections in
  let m0 = Gc.minor_words () in
  let t0 = now () in
  let result = try Ok (run_query q) with ex -> Error (Printexc.to_string ex) in
  let t1 = now () in
  let m1 = Gc.minor_words () in
  let majors = (Gc.quick_stat ()).major_collections - majors0 in
  query_record ~phase ~round q result ~wall:(t1 -. t0) ~minor:(m1 -. m0) ~majors;
  emit ();
  t1 -. t0

(* A session starts as a fresh process would: empty caches and no
   garbage left from earlier sessions, so neither the heap peak nor a
   query's GC work depends on how many sessions ran before it. *)
let new_session () =
  Program.clear_compile_cache ();
  Cr_core.Check_cache.clear_all ();
  Gc.full_major ()

(* Closed loop: each query starts after the previous verdict returns.
   A query is not started when one more query as long as the last would
   carry the phase past its budget; at least one session always
   completes. *)
let run_phase ~phase ~budget sessions =
  let last = ref 0. in
  let t_start = now () in
  let fits () = now () -. t_start +. !last <= budget in
  let round = ref 0 and stop = ref false in
  while not !stop do
    let s = sessions.(!round mod Array.length sessions) in
    new_session ();
    let i = ref 0 in
    while !i < Array.length s && (!round = 0 || fits ()) do
      last := run_one ~phase ~round:!round s.(!i);
      incr i
    done;
    if !i = Array.length s then begin
      obj [ ("phase", str_ phase); ("round_end", int_ !round) ];
      emit ()
    end;
    incr round;
    if not (fits ()) then stop := true
  done;
  now () -. t_start

let () =
  let seconds = ref 0. and trace = ref false and setup_only = ref false in
  let spawned_at = ref (now ()) in
  Arg.parse
    [
      ("--spawned-at", Arg.Set_float spawned_at, "T  wall-clock time the caller started this process");
      ("--seconds", Arg.Set_float seconds, "S  measurement budget");
      ("--trace", Arg.Set trace, " add the traced phase");
      ("--setup-only", Arg.Set setup_only, " set up, then exit");
    ]
    (fun a -> fail "unexpected argument %S" a)
    "executor.exe (--setup-only | --seconds S [--trace]) < STREAM";
  (* set-up: parse and validate the stream, reference closures *)
  let lines = In_channel.input_lines stdin in
  let closures, sessions = parse_stream lines in
  let closures = List.map (fun (sys, n) -> (sys, n, closure_count sys n)) closures in
  obj
    [
      ("setup_s", fun () -> num (now () -. !spawned_at));
      ("jobs", int_ (Cr_kernel.Par.current_jobs ()));
      ( "closures",
        fun () ->
          obj (List.map (fun (sys, n, k) -> (Printf.sprintf "%s %d" sys n, int_ k)) closures) );
    ];
  emit ();
  if !setup_only then exit 0;
  let phases =
    if !trace then begin
      (* warm-up: first-use allocations happen here, in both processes *)
      let s = sessions.(0) in
      new_session ();
      Array.iter (fun q -> ignore (run_query q : answer)) s;
      [ ("u", !seconds /. 2.); ("t", !seconds /. 2.) ]
    end
    else [ ("u", !seconds) ]
  in
  List.iter
    (fun (phase, budget) ->
      if phase = "t" then begin
        Obs.force_collect ();
        traced := true
      end;
      let elapsed = run_phase ~phase ~budget sessions in
      obj
        [
          ("phase", str_ phase);
          ("elapsed", fun () -> num elapsed);
          ("top_heap_words", int_ (Gc.quick_stat ()).top_heap_words);
        ];
      emit ())
    phases
