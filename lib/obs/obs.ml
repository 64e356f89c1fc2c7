(* Lightweight checker telemetry: named counters and timed spans.

   Design constraints, in order:

   - Near-zero overhead when disabled.  Collection is off unless CR_STATS
     or CR_TRACE is set (or a caller forces it), and every entry point
     starts with a single read of [on]; instrumented hot loops accumulate
     locally and publish once per kernel call (see Paths/Refine), so the
     uninstrumented fast path costs one predictable branch per call site.

   - Domain safety without contention.  Each OCaml domain owns its own
     counter array and span buffer (via [Domain.DLS]); nothing is shared
     on the write path.  Buffers register themselves in a global list on
     first use, so the main domain can merge them after the [Par] workers
     have been joined.  Merging is deterministic: [Sum] counters add,
     [Max] counters take the maximum, and every snapshot is sorted by
     counter name — so the merged totals of a run are identical for any
     CR_JOBS value (the work itself is deterministic; only its placement
     on domains changes).

   - Machine-readable artifacts.  [write_trace] emits the recorded spans
     as a Chrome/Perfetto trace-event JSON array, one track (tid) per
     OCaml domain, so a CR_JOBS fan-out is visible as parallel tracks. *)

type kind = Sum | Max

type counter = int

(* ---------- registry (counter names and kinds, by id) ---------- *)

let lock = Mutex.create ()

let rev_names : string list ref = ref []
let rev_kinds : kind list ref = ref []
let n_counters = ref 0

let counter ?(kind = Sum) name : counter =
  Mutex.protect lock (fun () ->
      rev_names := name :: !rev_names;
      rev_kinds := kind :: !rev_kinds;
      let id = !n_counters in
      incr n_counters;
      id)

let registry () =
  Mutex.protect lock (fun () ->
      ( Array.of_list (List.rev !rev_names),
        Array.of_list (List.rev !rev_kinds) ))

(* ---------- histogram registry (names by id) ---------- *)

type histogram = int

let rev_hist_names : string list ref = ref []
let n_hists = ref 0

let histogram name : histogram =
  Mutex.protect lock (fun () ->
      rev_hist_names := name :: !rev_hist_names;
      let id = !n_hists in
      incr n_hists;
      id)

let hist_registry () =
  Mutex.protect lock (fun () -> Array.of_list (List.rev !rev_hist_names))

(* ---------- enablement ---------- *)

let env_truthy = function None | Some "" | Some "0" -> false | Some _ -> true

let stats_env = env_truthy (Sys.getenv_opt "CR_STATS")

let trace_env =
  match Sys.getenv_opt "CR_TRACE" with
  | None | Some "" -> None
  | Some path -> Some path

let on = ref (stats_env || trace_env <> None)
let stats_wanted = ref stats_env

let tracking () = !on
let stats_enabled () = !stats_wanted

let force_enable () =
  on := true;
  stats_wanted := true

let force_collect () = on := true

(* ---------- per-domain state ---------- *)

type span_event = {
  sname : string;
  ts_us : float;  (* microseconds since process start *)
  dur_us : float;
  depth : int;  (* dynamic span-nesting depth at entry *)
  tid : int;  (* OCaml domain id *)
}

(* Log-bucketed histogram cell: bucket 0 holds value 0, bucket k >= 1
   holds values in [2^(k-1), 2^k).  Exact count/total/max ride along, so
   the bucket quantization only touches the quantile estimates. *)
type hcell = {
  mutable hcount : int;
  mutable htotal : int;
  mutable hmax : int;
  hbuckets : int array;  (* length [hist_buckets] *)
}

let hist_buckets = 63

let new_hcell () =
  { hcount = 0; htotal = 0; hmax = 0; hbuckets = Array.make hist_buckets 0 }

(* Bucket index of a value: 0 for 0 (negatives clamp), else
   1 + floor(log2 v), capped at the last bucket. *)
let bucket_of v =
  if v <= 0 then 0
  else begin
    let b = ref 0 and x = ref v in
    while !x > 0 do
      incr b;
      x := !x lsr 1
    done;
    min !b (hist_buckets - 1)
  end

(* Inclusive upper bound of a bucket (used for quantile estimates). *)
let bucket_hi b = if b = 0 then 0 else (1 lsl b) - 1

type dstate = {
  tid : int;
  mutable counts : int array;  (* indexed by counter id *)
  mutable hists : hcell option array;  (* indexed by histogram id *)
  mutable evs : span_event list;  (* most recent first *)
  mutable depth : int;
}

let all_dstates : dstate list ref = ref []

let dls_key : dstate Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let d =
        {
          tid = (Domain.self () :> int);
          counts = Array.make 64 0;
          hists = Array.make 16 None;
          evs = [];
          depth = 0;
        }
      in
      Mutex.protect lock (fun () -> all_dstates := d :: !all_dstates);
      d)

let cur () = Domain.DLS.get dls_key

let ensure d id =
  if id >= Array.length d.counts then begin
    let a = Array.make (max (2 * Array.length d.counts) (id + 1)) 0 in
    Array.blit d.counts 0 a 0 (Array.length d.counts);
    d.counts <- a
  end

let add c k =
  if !on && k <> 0 then begin
    let d = cur () in
    ensure d c;
    d.counts.(c) <- d.counts.(c) + k
  end

let incr c = add c 1

let record_max c v =
  if !on then begin
    let d = cur () in
    ensure d c;
    if v > d.counts.(c) then d.counts.(c) <- v
  end

(* ---------- histogram observations ---------- *)

let hcell_of d (h : histogram) =
  if h >= Array.length d.hists then begin
    let a = Array.make (max (2 * Array.length d.hists) (h + 1)) None in
    Array.blit d.hists 0 a 0 (Array.length d.hists);
    d.hists <- a
  end;
  match d.hists.(h) with
  | Some c -> c
  | None ->
      let c = new_hcell () in
      d.hists.(h) <- Some c;
      c

let observe h v =
  if !on then begin
    let c = hcell_of (cur ()) h in
    let v = max 0 v in
    c.hcount <- c.hcount + 1;
    c.htotal <- c.htotal + v;
    if v > c.hmax then c.hmax <- v;
    let b = bucket_of v in
    c.hbuckets.(b) <- c.hbuckets.(b) + 1
  end

(* ---------- live-worker accounting ---------- *)

(* [events], [merged_snapshot] and [merged_histograms] read every
   domain's private storage without synchronization; that is only sound
   when no worker domain is running.  [Par] brackets its fan-outs with
   [workers_add], and the merging entry points refuse to run (instead of
   silently racing) while the count is nonzero. *)
let live = Atomic.make 0

let workers_add k = ignore (Atomic.fetch_and_add live k : int)

let live_workers () = Atomic.get live

let assert_quiescent who =
  let n = Atomic.get live in
  if n > 0 then
    invalid_arg
      (Printf.sprintf
         "Obs.%s: called while %d worker domain(s) are live; merge only \
          between [Par] fan-outs"
         who n)

(* ---------- spans ---------- *)

let now_us () = Unix.gettimeofday () *. 1e6

let start_us = now_us ()

let span name f =
  if not !on then f ()
  else begin
    let d = cur () in
    let depth = d.depth in
    d.depth <- depth + 1;
    let t0 = now_us () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = now_us () in
        d.depth <- depth;
        d.evs <-
          {
            sname = name;
            ts_us = t0 -. start_us;
            dur_us = t1 -. t0;
            depth;
            tid = d.tid;
          }
          :: d.evs)
      f
  end

let events () =
  assert_quiescent "events";
  let evs =
    Mutex.protect lock (fun () ->
        List.concat_map (fun d -> d.evs) !all_dstates)
  in
  List.sort
    (fun (a : span_event) (b : span_event) ->
      match compare a.tid b.tid with 0 -> compare a.ts_us b.ts_us | c -> c)
    evs

(* ---------- snapshots ---------- *)

type snapshot = (string * int) list

let snapshot_of_counts names counts =
  let acc = ref [] in
  Array.iteri
    (fun i name ->
      let v = if i < Array.length counts then counts.(i) else 0 in
      if v <> 0 then acc := (name, v) :: !acc)
    names;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !acc

let domain_snapshot () =
  let names, _ = registry () in
  snapshot_of_counts names (cur ()).counts

(* Only meaningful when no worker domain is concurrently writing (the
   [Par] fan-outs join their domains before returning, so any point
   between two checker calls qualifies). *)
let merged_snapshot () =
  assert_quiescent "merged_snapshot";
  let names, kinds = registry () in
  let totals = Array.make (Array.length names) 0 in
  let dstates = Mutex.protect lock (fun () -> !all_dstates) in
  List.iter
    (fun d ->
      let m = min (Array.length totals) (Array.length d.counts) in
      for i = 0 to m - 1 do
        match kinds.(i) with
        | Sum -> totals.(i) <- totals.(i) + d.counts.(i)
        | Max -> if d.counts.(i) > totals.(i) then totals.(i) <- d.counts.(i)
      done)
    dstates;
  snapshot_of_counts names totals

(* [before] and [after] are name-sorted; Sum counters subtract, Max
   counters report the new high-water mark (only when it moved). *)
let diff ~(before : snapshot) ~(after : snapshot) : snapshot =
  let names, kinds = registry () in
  let kind_of =
    let tbl = Hashtbl.create 64 in
    Array.iteri (fun i n -> Hashtbl.replace tbl n kinds.(i)) names;
    fun n -> try Hashtbl.find tbl n with Not_found -> Sum
  in
  let rec go b a acc =
    match (b, a) with
    | [], rest -> List.rev_append acc rest
    | _, [] -> List.rev acc
    | (nb, vb) :: tb, (na, va) :: ta ->
        let c = String.compare nb na in
        if c < 0 then go tb a acc (* counter went back to 0: drop *)
        else if c > 0 then go b ta ((na, va) :: acc)
        else
          let d = match kind_of na with Sum -> va - vb | Max -> va in
          let acc =
            if d <> 0 && (kind_of na = Sum || va > vb) then (na, d) :: acc
            else acc
          in
          go tb ta acc
  in
  go before after []

(* ---------- merged histograms ---------- *)

type hstats = {
  count : int;
  total : int;
  max_value : int;
  buckets : int array;
}

(* Quantile estimate from the merged buckets: the inclusive upper bound
   of the bucket where the cumulative count first reaches q * count,
   clamped to the exact maximum.  Deterministic in the observation
   multiset (sums of per-domain buckets commute). *)
let quantile (h : hstats) q =
  if h.count = 0 then 0
  else begin
    let want =
      let w = int_of_float (ceil (q *. float_of_int h.count)) in
      min (max w 1) h.count
    in
    let b = ref 0 and seen = ref 0 in
    (try
       for i = 0 to Array.length h.buckets - 1 do
         seen := !seen + h.buckets.(i);
         if !seen >= want then begin
           b := i;
           raise Exit
         end
       done
     with Exit -> ());
    min (bucket_hi !b) h.max_value
  end

let mean (h : hstats) =
  if h.count = 0 then 0.0
  else float_of_int h.total /. float_of_int h.count

(* Histograms merged across every domain: bucket counts, totals and
   counts add; maxima take the maximum.  Like [merged_snapshot], only
   meaningful (and only permitted) when no worker domain is live. *)
let merged_histograms () =
  assert_quiescent "merged_histograms";
  let names = hist_registry () in
  let out = Array.map (fun _ -> None) names in
  let dstates = Mutex.protect lock (fun () -> !all_dstates) in
  List.iter
    (fun d ->
      let m = min (Array.length out) (Array.length d.hists) in
      for i = 0 to m - 1 do
        match d.hists.(i) with
        | None -> ()
        | Some c ->
            let acc =
              match out.(i) with
              | Some acc -> acc
              | None ->
                  let acc =
                    {
                      count = 0;
                      total = 0;
                      max_value = 0;
                      buckets = Array.make hist_buckets 0;
                    }
                  in
                  out.(i) <- Some acc;
                  acc
            in
            let acc =
              {
                acc with
                count = acc.count + c.hcount;
                total = acc.total + c.htotal;
                max_value = max acc.max_value c.hmax;
              }
            in
            Array.iteri
              (fun b v -> acc.buckets.(b) <- acc.buckets.(b) + v)
              c.hbuckets;
            out.(i) <- Some acc
      done)
    dstates;
  let acc = ref [] in
  Array.iteri
    (fun i name ->
      match out.(i) with
      | Some h when h.count > 0 -> acc := (name, h) :: !acc
      | Some _ | None -> ())
    names;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !acc

(* ---------- GC / allocation accounting ---------- *)

(* Word counts come from [Gc.quick_stat] (no heap walk, no major slice);
   on OCaml 5 the mutable counters are those of the calling domain, so a
   span-scoped delta taken on one domain prices that domain's own
   allocation work. *)
type gc_cost = {
  minor_words : int;
  major_words : int;
  minor_collections : int;
  major_collections : int;
  top_heap_words : int;
}

(* [quick_stat.minor_words] only advances at minor-collection
   boundaries on OCaml 5, so a short span between two collections would
   read as zero allocation; [Gc.minor_words ()] reads the live bump
   pointer.  The major/collection counters keep quick_stat's
   collection-boundary resolution. *)
let gc_now () =
  let s = Gc.quick_stat () in
  {
    minor_words = int_of_float (Gc.minor_words ());
    major_words = int_of_float s.Gc.major_words;
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
    top_heap_words = s.Gc.top_heap_words;
  }

let gc_delta ~(before : gc_cost) ~(after : gc_cost) =
  {
    minor_words = after.minor_words - before.minor_words;
    major_words = after.major_words - before.major_words;
    minor_collections = after.minor_collections - before.minor_collections;
    major_collections = after.major_collections - before.major_collections;
    top_heap_words = after.top_heap_words;  (* a high-water mark *)
  }

(* The delta as name-sorted snapshot entries, so verdict costs can carry
   allocation next to counter movement; zero entries are omitted like
   everywhere else. *)
let gc_cost_entries (g : gc_cost) : snapshot =
  List.filter
    (fun (_, v) -> v <> 0)
    [
      ("gc.major_collections", g.major_collections);
      ("gc.major_words", g.major_words);
      ("gc.minor_collections", g.minor_collections);
      ("gc.minor_words", g.minor_words);
      ("gc.top_heap_words", g.top_heap_words);
    ]

let merge_snapshots (a : snapshot) (b : snapshot) : snapshot =
  List.sort (fun (x, _) (y, _) -> String.compare x y) (a @ b)

(* Counter movement plus the gc.* allocation delta of [f], both
   domain-local, so they are deterministic even when sibling work runs
   on other domains. *)
let measure f =
  if not (tracking ()) then (f (), None)
  else begin
    let before = domain_snapshot () in
    let gc_before = gc_now () in
    let r = f () in
    let gc_after = gc_now () in
    let after = domain_snapshot () in
    ( r,
      Some
        (merge_snapshots (diff ~before ~after)
           (gc_cost_entries (gc_delta ~before:gc_before ~after:gc_after))) )
  end

let reset () =
  Mutex.protect lock (fun () ->
      List.iter
        (fun d ->
          Array.fill d.counts 0 (Array.length d.counts) 0;
          Array.fill d.hists 0 (Array.length d.hists) None;
          d.evs <- [])
        !all_dstates)

(* ---------- human summary ---------- *)

let pp_snapshot fmt (snap : snapshot) =
  List.iter (fun (name, v) -> Format.fprintf fmt "  %-40s %d@." name v) snap

(* name -> (count, total_us, max_us), sorted by name *)
let span_aggregates () =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun e ->
      let c, tot, mx =
        try Hashtbl.find tbl e.sname with Not_found -> (0, 0.0, 0.0)
      in
      Hashtbl.replace tbl e.sname
        (c + 1, tot +. e.dur_us, Float.max mx e.dur_us))
    (events ());
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let pp_histograms fmt hists =
  Format.fprintf fmt "  %-40s %8s %10s %8s %8s %8s %8s@." "histogram" "count"
    "mean" "p50" "p90" "p99" "max";
  List.iter
    (fun (name, h) ->
      Format.fprintf fmt "  %-40s %8d %10.1f %8d %8d %8d %8d@." name h.count
        (mean h) (quantile h 0.5) (quantile h 0.9) (quantile h 0.99)
        h.max_value)
    hists

let pp_gc fmt () =
  let g = gc_now () in
  Format.fprintf fmt
    "  minor %.1f Mwords (%d collections), major %.1f Mwords (%d \
     collections), top heap %.1f Mwords@."
    (float_of_int g.minor_words /. 1e6)
    g.minor_collections
    (float_of_int g.major_words /. 1e6)
    g.major_collections
    (float_of_int g.top_heap_words /. 1e6)

let pp_summary fmt () =
  let counters = merged_snapshot () in
  if counters <> [] then begin
    Format.fprintf fmt "-- counters (merged over %d domain(s)) --@."
      (List.length !all_dstates);
    pp_snapshot fmt counters
  end;
  let hists = merged_histograms () in
  if hists <> [] then begin
    Format.fprintf fmt "-- histograms (log-bucketed, merged) --@.";
    pp_histograms fmt hists
  end;
  Format.fprintf fmt "-- gc (process totals) --@.";
  pp_gc fmt ();
  let spans = span_aggregates () in
  if spans <> [] then begin
    Format.fprintf fmt "-- spans --@.";
    Format.fprintf fmt "  %-40s %8s %12s %12s@." "span" "count" "total-ms"
      "max-ms";
    List.iter
      (fun (name, (c, tot, mx)) ->
        Format.fprintf fmt "  %-40s %8d %12.3f %12.3f@." name c (tot /. 1e3)
          (mx /. 1e3))
      spans
  end

(* ---------- Chrome trace export ---------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Trace-event format: a JSON array of "X" (complete) events with
   microsecond timestamps; pid is fixed, tid is the OCaml domain id.
   Loads in chrome://tracing and Perfetto. *)
let write_trace path =
  let evs = events () in
  let tids =
    List.sort_uniq compare (List.map (fun (e : span_event) -> e.tid) evs)
  in
  let buf = Buffer.create (4096 + (128 * List.length evs)) in
  Buffer.add_string buf "[\n";
  let first = ref true in
  let emit line =
    if not !first then Buffer.add_string buf ",\n";
    first := false;
    Buffer.add_string buf line
  in
  emit
    (Printf.sprintf
       "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"%s\"}}"
       (json_escape (Filename.basename Sys.executable_name)));
  List.iter
    (fun tid ->
      emit
        (Printf.sprintf
           "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"domain %d\"}}"
           tid tid))
    tids;
  List.iter
    (fun e ->
      emit
        (Printf.sprintf
           "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"depth\":%d}}"
           (json_escape e.sname) e.tid e.ts_us e.dur_us e.depth))
    evs;
  Buffer.add_string buf "\n]\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc

(* ---------- process-exit hook ---------- *)

(* Keyed on the environment variables only: a forced in-process enable
   (crcheck --stats) prints its own appendix and must not double-report,
   and the default run stays byte-identical on stdout AND stderr. *)
let finalized = ref false

let finalize () =
  if not !finalized then begin
    finalized := true;
    (match trace_env with
    | Some path -> (
        try
          write_trace path;
          Printf.eprintf "cr-obs: wrote trace %s (%d span(s))\n%!" path
            (List.length (events ()))
        with Sys_error msg -> Printf.eprintf "cr-obs: trace: %s\n%!" msg)
    | None -> ());
    if stats_env then Format.eprintf "cr-obs: run summary@.%a" pp_summary ()
  end

let () = at_exit finalize
