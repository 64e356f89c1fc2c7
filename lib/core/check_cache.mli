(** Content-addressed memoization of checker verdicts.

    {!Refine} and {!Stabilize} each own a {!Cr_kernel.Memo} table in the
    [check.cache] group.  The key fingerprints everything a verdict
    depends on: both systems' exact transition structure and initial
    states, the abstraction table, the fairness tables, the relation
    tag and any option the checker folds in.  Experiment tables that ask
    the same question twice share one check.  Counters are
    [check.cache.hits] / [check.cache.misses]; [CR_CACHE] switches every
    table (see {!Cr_kernel.Memo}).

    A cached report keeps the [cost] snapshot of the original (miss)
    run: that is what the verdict cost to establish. *)

type 'v t

val create : unit -> 'v t
(** A fresh verdict table.  Intended to be called once per checker
    module at initialization. *)

val bypass : (unit -> 'b) -> 'b
(** Run with every verdict table disabled in the calling domain
    (benchmarks and tests that need a guaranteed fresh verdict). *)

val clear_all : unit -> unit
(** Drop every completed verdict of every table (test/bench support). *)

val find_or_check :
  'v t ->
  tag:string ->
  ?extra:int ->
  alpha:int array ->
  fair:int array array option ->
  c:_ Cr_semantics.Explicit.t ->
  a:_ Cr_semantics.Explicit.t ->
  same:('v -> 'v -> bool) ->
  (unit -> 'v) ->
  'v * bool
(** [find_or_check t ~tag ~alpha ~fair ~c ~a ~same check] returns the
    verdict for the question, running [check] unless the table answers
    it, paired with [true] when [check] did not run.  [same] is the
    paranoid-mode comparison (equality modulo the cost snapshot);
    [extra] folds one more option into the key. *)

val emit_verdict :
  string ->
  cached:bool ->
  cost:Cr_obs.Obs.snapshot option ->
  (string * Cr_obs.Journal.field) list ->
  (string * Cr_obs.Journal.field) list ->
  unit
(** [emit_verdict ev ~cached ~cost fields tail] journals one verdict
    delivered to a caller: [fields], the [cached] flag, [tail], then the
    [cost] snapshot when present. *)
