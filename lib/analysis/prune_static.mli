(** Static error-space pruning study (the [PS] experiment).

    For every workload, sizes the dynamic single-bit error space the
    injector samples from and how much of it {!Dataflow.Prune} discharges
    without a faulty run — either provably benign (the flipped bit is
    dead) or redundant (the experiment replays another site's outcome).

    The classifier is then validated dynamically: injections are forced
    at sampled provably-benign sites with {!Core.Experiment.run_at} and
    every outcome must be [Benign].  A nonzero [misclassified] count is a
    soundness bug in the bit-width analysis. *)

type row = {
  program : string;
  summary : Dataflow.Prune.summary;
  read_checked : int;
      (** injections forced at provably-benign inject-on-read sites *)
  write_checked : int;  (** same, inject-on-write *)
  misclassified : int;
      (** of those, outcomes that were not [Benign] — must be 0 *)
}

val collect_metas : Core.Workload.t -> Vm.Meta.t array * Vm.Meta.t array
(** The static identity of every read and every write candidate of the
    workload's golden run, indexed by candidate ordinal. *)

val pruned_fraction : Dataflow.Prune.summary -> float
(** Pruned share of the combined read+write error space. *)

val read_fraction : Dataflow.Prune.summary -> float
val write_fraction : Dataflow.Prune.summary -> float

val compute : ?validate_n:int -> ?seed:int64 -> Study.t -> row list
(** [validate_n] (default 40) injections per technique per program are
    forced at sampled benign sites, skipping techniques with no benign
    site.  Deterministic in [seed]. *)
