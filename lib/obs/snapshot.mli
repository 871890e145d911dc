(** Unified runner/engine execution statistics.

    The single value type behind [Core.Runner.snapshot] and the
    engine's per-run statistics.  Producers record deltas into the
    default metrics registry with {!count}; {!read} recovers the
    process-wide totals, so code and a metrics dump always agree. *)

type t = {
  mem_hits : int;
      (** campaigns answered from a runner's in-memory cache *)
  dispatched : int;  (** campaigns handed to a dispatch function *)
  shards_from_store : int;  (** shards answered by a durable store *)
  shards_executed : int;  (** shards actually executed *)
  experiments_from_store : int;
  experiments_executed : int;
}

val zero : t
val add : t -> t -> t

val count : t -> unit
(** Fold a delta into the obs counters
    ([onebit_runner_*_total], [onebit_engine_*_total]) of the default
    registry.  No-op while collection is disabled. *)

val read : unit -> t
(** The process-wide totals accumulated by {!count}. *)

val pp : t -> string
(** One-line human-readable rendering; experiment totals are printed
    only when nonzero. *)
