(* Content-addressed, single-flight memo tables (see memo.mli).

   Concurrency: a domain that misses publishes an in-flight marker,
   computes outside the lock, then broadcasts; concurrent requesters of
   the same key block until the value lands and count a hit.  Hit/miss
   totals are therefore exactly those of the sequential schedule.  The
   wait histogram is only populated under CR_JOBS > 1, so (unlike the
   totals) it is schedule-dependent — a distribution to eyeball, not an
   invariant. *)

module Obs = Cr_obs.Obs
module Journal = Cr_obs.Journal

type mode = Off | On | Paranoid

(* Same convention as CR_SPACE: a malformed value falls through to the
   default, and says so once (per process) on stderr. *)
let warned_bad_mode = Atomic.make false

let mode () =
  match Sys.getenv_opt "CR_CACHE" with
  | None -> On
  | Some s -> (
      match String.lowercase_ascii (String.trim s) with
      | "0" -> Off
      | "paranoid" -> Paranoid
      | "" | "1" -> On
      | _ ->
          if not (Atomic.exchange warned_bad_mode true) then
            Printf.eprintf
              "cr-cache: ignoring invalid CR_CACHE=%s (want 0, 1 or \
               paranoid)\n\
               %!"
              s;
          On)

type group = {
  prefix : string;
  hits : Obs.counter;
  misses : Obs.counter;
  wait : Obs.histogram;
  bypassed : bool Domain.DLS.key;
  mutable clearers : (unit -> unit) list;
      (* one per table; tables are created at module initialization
         (single domain), so no lock *)
}

let group prefix =
  {
    prefix;
    hits = Obs.counter (prefix ^ ".hits");
    misses = Obs.counter (prefix ^ ".misses");
    wait = Obs.histogram (prefix ^ ".wait_us");
    bypassed = Domain.DLS.new_key (fun () -> false);
    clearers = [];
  }

let enabled g = (not (Domain.DLS.get g.bypassed)) && mode () <> Off

let bypass g f =
  let saved = Domain.DLS.get g.bypassed in
  Domain.DLS.set g.bypassed true;
  Fun.protect ~finally:(fun () -> Domain.DLS.set g.bypassed saved) f

type 'v slot = Inflight | Done of 'v

type 'v t = {
  g : group;
  m : Mutex.t;
  cv : Condition.t;
  tbl : (string, 'v slot) Hashtbl.t;
}

let length t =
  Mutex.protect t.m (fun () ->
      Hashtbl.fold
        (fun _ v n -> match v with Done _ -> n + 1 | Inflight -> n)
        t.tbl 0)

let clear t =
  Mutex.protect t.m (fun () ->
      (* never drop an in-flight marker: its owner publishes into the
         (now smaller) table and broadcasts as usual *)
      Hashtbl.filter_map_inplace
        (fun _ v -> match v with Inflight -> Some v | Done _ -> None)
        t.tbl)

let create g =
  let t =
    { g; m = Mutex.create (); cv = Condition.create (); tbl = Hashtbl.create 64 }
  in
  g.clearers <- (fun () -> clear t) :: g.clearers;
  t

let clear_all g = List.iter (fun f -> f ()) g.clearers

let event t name key fields =
  Journal.emit (t.g.prefix ^ name) (("key", Journal.S key) :: fields)

(* Claim [key]: [`Hit v] once a value is published, [`Miss] after
   installing this domain's in-flight marker. *)
let claim t key =
  Mutex.lock t.m;
  let wait_start = ref None in
  let rec lookup () =
    match Hashtbl.find_opt t.tbl key with
    | Some (Done v) -> `Hit v
    | Some Inflight ->
        if !wait_start = None then wait_start := Some (Obs.now_us ());
        Condition.wait t.cv t.m;
        lookup ()
    | None ->
        Hashtbl.add t.tbl key Inflight;
        `Miss
  in
  let outcome = lookup () in
  Mutex.unlock t.m;
  (match !wait_start with
  | None -> ()
  | Some t0 ->
      let waited = Obs.now_us () -. t0 in
      Obs.observe t.g.wait (int_of_float waited);
      event t ".wait" key [ ("wait_us", Journal.F waited) ]);
  outcome

let publish t key slot =
  Mutex.protect t.m (fun () ->
      (match slot with
      | Some v -> Hashtbl.replace t.tbl key (Done v)
      | None -> Hashtbl.remove t.tbl key);
      Condition.broadcast t.cv)

let find_or_compute t ~key ?(on_hit = Fun.id) ~same compute =
  if not (enabled t.g) then compute ()
  else begin
    let key = key () in
    match claim t key with
    | `Hit v ->
        Obs.incr t.g.hits;
        event t ".hit" key [];
        let v = on_hit v in
        if mode () = Paranoid && not (same v (compute ())) then
          invalid_arg
            (Printf.sprintf
               "%s: paranoid mode: cached value differs from a fresh \
                computation (key %s)"
               t.g.prefix key);
        v
    | `Miss -> (
        Obs.incr t.g.misses;
        event t ".miss" key [];
        match compute () with
        | v ->
            publish t key (Some v);
            v
        | exception e ->
            (* let waiters retry (and re-raise for themselves) *)
            publish t key None;
            raise e)
  end

(* Two independent FNV-1a-style folds over native ints.  Native-int
   multiplication wraps silently, which is exactly what a rolling hash
   wants. *)
module Fp = struct
  let fnv1 = 0x100000001b3
  let fnv2 = 0x27d4eb2f165667c5

  type t = { mutable h1 : int; mutable h2 : int }

  let create () = { h1 = 0x3bf29ce484222325; h2 = 0x1e3779b97f4a7c15 }

  let add_int t x =
    t.h1 <- (t.h1 lxor x) * fnv1;
    t.h2 <- (t.h2 lxor x) * fnv2

  let add_string t s =
    add_int t (String.length s);
    String.iter (fun ch -> add_int t (Char.code ch)) s

  let add_int_array t a =
    add_int t (Array.length a);
    Array.iter (add_int t) a

  let to_hex t = Printf.sprintf "%x.%x" t.h1 t.h2
end
