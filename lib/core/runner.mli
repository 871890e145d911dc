(** Memoising campaign runner.

    The analyses reuse many campaigns (the Fig. 4/5 grids feed Table III,
    whose best configurations feed Table IV), so the runner caches results
    keyed by (workload, spec, n, seed).  Results are deterministic, which
    makes the cache semantically transparent.

    The runner itself is a thin client: campaigns it has not memoised are
    delegated to a {!dispatch} function.  The default dispatch runs the
    campaign sequentially in-process; [Engine.dispatch] substitutes a
    parallel, store-backed execution engine without the analyses having to
    change. *)

type t

type dispatch =
  keep_experiments:bool ->
  Workload.t -> Spec.t -> n:int -> seed:int64 ->
  Campaign.result * Obs.Snapshot.t
(** How a cache miss is computed: the campaign together with the
    accounting delta of computing it (store hits and executed shards
    for an engine dispatch; [Obs.Snapshot.zero] for {!sequential}).
    The dispatch counts its delta into the metrics registry itself;
    the runner folds it into its {!snapshot}. *)

val sequential : dispatch
(** The default: a plain in-process {!Campaign.run}. *)

val create : ?n:int -> ?seed:int64 -> ?dispatch:dispatch -> unit -> t
(** Default experiment count per campaign and base seed (defaults: 200
    experiments, seed 20170626 — the DSN'17 conference date).  The seed of
    a given campaign is derived from the base seed, the workload name and
    the spec label, so distinct campaigns never share experiment streams. *)

val n : t -> int

val campaign : t -> Workload.t -> Spec.t -> Campaign.result
(** Run (or recall) one campaign. *)

val campaign_kept : t -> Workload.t -> Spec.t -> Campaign.result
(** Like {!campaign} but with per-experiment records retained; cached
    separately, and never answered from a durable store (experiment
    records are not persisted). *)

val cache_size : t -> int

val snapshot : t -> Obs.Snapshot.t
(** The runner's accounting: its own memory hits and dispatched
    campaigns plus the deltas its dispatches returned.  The same totals
    appear process-wide in a metrics dump as the [onebit_runner_*_total]
    and [onebit_engine_*_total] counters. *)
