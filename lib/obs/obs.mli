(** Checker telemetry: domain-safe named counters and timed spans, with a
    [CR_STATS] human summary and [CR_TRACE] Chrome-trace export.

    Collection is disabled unless the [CR_STATS] or [CR_TRACE] environment
    variable is set (or {!force_enable}/{!force_collect} is called); when
    disabled every operation short-circuits on one branch, so instrumented
    hot paths stay within noise of the uninstrumented checker.

    Each OCaml domain accumulates into private storage; {!merged_snapshot}
    combines domains deterministically ([Sum] counters add, [Max] counters
    take the maximum), so merged totals are invariant under the [CR_JOBS]
    fan-out. *)

type kind =
  | Sum  (** additive; merged across domains by summation *)
  | Max  (** high-water mark; merged across domains by maximum *)

type counter

val counter : ?kind:kind -> string -> counter
(** Register a named counter (call once, at module initialization).
    Names should be globally unique, [module.metric]-style. *)

val tracking : unit -> bool
(** Is collection currently enabled? *)

val stats_enabled : unit -> bool
(** Should human-readable cost summaries be printed ([CR_STATS] set, or
    {!force_enable} called)? *)

val force_enable : unit -> unit
(** Turn on collection and summaries regardless of the environment
    (used by the [--stats] CLI flag). *)

val force_collect : unit -> unit
(** Turn on collection only (counters and spans accumulate, but nothing
    is printed unless the caller asks). *)

val incr : counter -> unit
val add : counter -> int -> unit

val record_max : counter -> int -> unit
(** Raise a [Max] counter to [v] if [v] is larger. *)

type histogram

val histogram : string -> histogram
(** Register a named log-bucketed histogram (call once, at module
    initialization).  Bucket 0 holds the value 0; bucket [k >= 1] holds
    values in [[2^(k-1), 2^k)].  Exact count, total and max ride along,
    so only the quantile estimates are quantized. *)

val observe : histogram -> int -> unit
(** Record one observation (negatives clamp to 0).  No-op unless
    collection is enabled.  Per-domain storage; merging sums bucket
    counts, so merged aggregates depend only on the observation
    multiset — identical for every [CR_JOBS] when the observations
    are. *)

type hstats = {
  count : int;
  total : int;
  max_value : int;
  buckets : int array;
}

val quantile : hstats -> float -> int
(** [quantile h q] estimates the [q]-quantile ([0 < q <= 1]) as the
    inclusive upper bound of the bucket where the cumulative count
    reaches [q * count], clamped to the exact maximum. *)

val mean : hstats -> float

val merged_histograms : unit -> (string * hstats) list
(** Histograms merged across every domain, sorted by name; empty ones
    omitted.  Raises [Invalid_argument] while a worker domain is live. *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] and, when tracking, records a timed span.
    Spans nest; re-raises any exception of [f] after closing the span. *)

type span_event = {
  sname : string;
  ts_us : float;  (** microseconds since process start *)
  dur_us : float;
  depth : int;  (** span-nesting depth at entry *)
  tid : int;  (** OCaml domain id *)
}

val events : unit -> span_event list
(** All recorded spans, sorted by (domain, start time).  Raises
    [Invalid_argument] while a worker domain is live (see
    {!workers_add}). *)

val now_us : unit -> float
(** Microseconds since an arbitrary process-local epoch (the clock spans
    use); cheap enough to bracket individual chunks. *)

val workers_add : int -> unit
(** Move the live-worker count by [k].  [Par] calls this around its
    domain fan-outs; the merging entry points ({!events},
    {!merged_snapshot}, {!merged_histograms}) refuse to run while the
    count is nonzero instead of silently racing with worker writes. *)

val live_workers : unit -> int

type snapshot = (string * int) list
(** Counter values, sorted by name; zero entries omitted. *)

val domain_snapshot : unit -> snapshot
(** Counters of the calling domain only.  Deltas of this around a
    single-domain computation are deterministic even when other domains
    are active. *)

val merged_snapshot : unit -> snapshot
(** Counters merged across every domain seen so far.  Raises
    [Invalid_argument] while a worker domain is live (e.g. call between
    checker calls, never from inside a [Par] fan-out). *)

val diff : before:snapshot -> after:snapshot -> snapshot
(** Counter movement between two snapshots of the same scope: [Sum]
    counters subtract, [Max] counters report the new high-water mark. *)

type gc_cost = {
  minor_words : int;
  major_words : int;
  minor_collections : int;
  major_collections : int;
  top_heap_words : int;
}
(** Allocation accounting from [Gc.quick_stat]: cheap to capture (no
    heap walk), per-domain word counters on OCaml 5, so a span-scoped
    delta on one domain prices that domain's own allocations. *)

val gc_now : unit -> gc_cost

val gc_delta : before:gc_cost -> after:gc_cost -> gc_cost
(** Word and collection counters subtract; [top_heap_words] reports the
    high-water mark of [after]. *)

val gc_cost_entries : gc_cost -> snapshot
(** The delta as name-sorted [gc.*] snapshot entries (zeros omitted),
    ready to merge into a verdict's cost snapshot. *)

val merge_snapshots : snapshot -> snapshot -> snapshot
(** Concatenate and re-sort by name (for mixing counter movement with
    [gc.*] entries in one cost snapshot). *)

val measure : (unit -> 'a) -> 'a * snapshot option
(** [measure f] runs [f] and, while {!tracking}, also returns its
    counter movement merged with the calling domain's [gc.*] allocation
    delta — the cost snapshot checkers attach to verdicts.  Outside a
    [Par] fan-out the counters are the merged (all-domain) movement, so
    the cost is the same for every job count; inside one, where nested
    fan-outs run sequentially, they are the calling domain's. *)

val reset : unit -> unit
(** Zero all counters and drop all spans (test support). *)

val pp_snapshot : Format.formatter -> snapshot -> unit

val pp_histograms : Format.formatter -> (string * hstats) list -> unit
(** One row per histogram: count, mean, p50/p90/p99 estimates, max. *)

val span_aggregates : unit -> (string * (int * float * float)) list
(** Per span name: (count, total microseconds, max microseconds),
    sorted by name. *)

val pp_summary : Format.formatter -> unit -> unit
(** The [CR_STATS] summary: merged counters, merged histograms, process
    GC totals, span aggregates. *)

val write_trace : string -> unit
(** Write every recorded span as a Chrome [chrome://tracing] / Perfetto
    trace-event JSON array, one track per OCaml domain. *)
