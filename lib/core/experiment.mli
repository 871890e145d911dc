(** One fault-injection experiment: a single faulty run of a workload. *)

type t = {
  outcome : Outcome.t;
  activated : int;  (** flips actually performed (RQ1) *)
  first : Injector.injection option;
      (** the first injection, or [None] if even it was never reached
          (cannot happen for the first injection by construction, but kept
          total for robustness) *)
  dyn_count : int;  (** dynamic length of the faulty run *)
  output : string;  (** the faulty run's output stream *)
}

val run_raw : ?checkpoint:bool -> Workload.t -> Injector.t -> Vm.Exec.result
(** Execute one faulty run of the workload's compiled code under the
    injector's event schedule ({!Injector.events}).  Building block for
    {!run}/{!run_at} and the CLI's replay commands.

    Handles the injector's domain binding: [Reg] runs the pristine
    code; [Mem] binds a run-private memory (a template clone, or the
    checkpoint working memory); [Code] binds a private program image
    whose flips are mirrored into a {!Vm.Code.fork} via
    {!Vm.Code.patch}.

    When [checkpoint] (default [true]) and {!Config.checkpointing} are
    both set, the golden prefix up to the first flip is restored from
    the workload's checkpoint set instead of re-executed, the run reuses
    the calling domain's undo-tracking working memory, and the VM's
    early exits apply — bit-identical results, O(dirty-page) reset.
    Pass [~checkpoint:false] to force full execution ([onebit
    reproduce] does, so a replay re-runs every instruction it
    reports). *)

val conclude : Workload.t -> Injector.t -> Vm.Exec.result -> t
(** Classify a finished faulty run against the workload's golden output
    and package it with the injector's activation record, bumping the
    experiment/activation/domain metrics. *)

val run :
  ?spacing:[ `Faulty | `Golden ] -> Workload.t -> Spec.t -> Prng.t -> t
(** Run one experiment with a private generator ([?spacing] as in
    {!Injector.create}). *)

val run_at : Workload.t -> Spec.t -> first:int * int * int -> Prng.t -> t
(** Like {!run} but forcing the first injection's (candidate ordinal,
    slot, bit) — the RQ5 location-replay mode. *)
