(** Content-addressed, single-flight memo tables: the one cache
    implementation behind both the explicit-compile cache
    ([Cr_guarded.Program]) and the verdict cache ([Cr_core.Check_cache]).

    A table maps string keys (fingerprints built by the caller, usually
    with {!Fp}) to whole values.  Lookups are single-flight across
    domains: concurrent requesters of a missing key block while one
    domain computes, then count a hit — so the hit/miss counters are
    invariant under the [CR_JOBS] fan-out, like every other [Cr_obs]
    counter.  A computation that raises caches nothing; its waiters
    retry (and compute for themselves).

    Tables belong to a {!group}, named by a prefix [p]: the group owns
    the counters [p.hits] / [p.misses], the histogram [p.wait_us], the
    journal events [p.hit] / [p.miss] / [p.wait], and a per-domain
    {!bypass} switch.

    One environment knob, read on every lookup: [CR_CACHE=0] disables
    every table, [CR_CACHE=paranoid] recomputes on every hit and raises
    [Invalid_argument] unless the caller's [same] accepts the pair;
    unset (or [1]) means on.  Any other value means on, with a one-line
    warning on stderr (printed once per process). *)

type group

val group : string -> group
(** A new group with counters and events named from the prefix.  Create
    one per prefix, at module initialization. *)

val bypass : group -> (unit -> 'b) -> 'b
(** Run with this group's tables disabled in the calling domain
    (benchmarks and tests that need a guaranteed fresh computation).
    The previous setting is restored even if the callback raises. *)

type 'v t

val create : group -> 'v t
(** A fresh, empty table in the group. *)

val find_or_compute :
  'v t ->
  key:(unit -> string) ->
  ?on_hit:('v -> 'v) ->
  same:('v -> 'v -> bool) ->
  (unit -> 'v) ->
  'v
(** [find_or_compute t ~key ~same compute] returns the value stored
    under [key ()], or runs [compute], stores its result and returns it.
    [key] is only called when the table is in use (not bypassed, not
    [CR_CACHE=0]).  A hit is passed through [on_hit] (default identity)
    before it is returned — callers re-target a shared value there.  Under [CR_CACHE=paranoid] the
    re-targeted hit is compared with a fresh [compute ()] through
    [same]. *)

val length : _ t -> int
(** Number of completed entries (test support). *)

val clear : _ t -> unit
(** Drop every completed entry.  In-flight computations publish
    normally. *)

val clear_all : group -> unit
(** {!clear} every table of the group. *)

(** Rolling fingerprints for key construction: two independent
    FNV-style folds over native ints (about 126 bits), no allocation
    per step. *)
module Fp : sig
  type t

  val create : unit -> t
  val add_int : t -> int -> unit
  val add_string : t -> string -> unit

  val add_int_array : t -> int array -> unit
  (** Folds the length, then every element. *)

  val to_hex : t -> string
  (** ["h1.h2"] in hex. *)
end
