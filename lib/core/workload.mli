(** A workload: a loaded program plus its fault-free (golden) run.

    The golden run provides the reference output for SDC detection, the
    candidate counts the injector samples time-location pairs from
    (Table II), and the dynamic instruction count the watchdog budget is
    derived from. *)

type t = {
  name : string;
  modl : Ir.Func.modl;
      (** the source module the workload was made from; retained so the
          incremental scheduler can compute per-function fingerprints
          ([Ir.Fingerprint]) and propagation summaries *)
  prog : Vm.Program.t;
  code : Vm.Code.t;
      (** the program's compiled form, decoded once at workload creation
          (digest-keyed, so repeated loads of the same IR share it); every
          run of the workload executes it *)
  golden : Vm.Exec.result;
  profile : int array array;
      (** golden-run execution count of each (function, block), indexed
          [fidx].[bidx]; feeds the static candidate predictor
          ([Dataflow.Candidates]) and the pruning study *)
  budget : int;  (** watchdog budget for faulty runs *)
  digest : string;
      (** md5 hex digest of the printed IR; campaign results are only
          reusable across processes when the program text is unchanged, so
          the digest is part of every result-store key *)
  mem_addrs : int array;
      (** mapped arena addresses of the memory template, in address
          order — the [Mem] fault domain's location space *)
  code_sites : Vm.Codeflip.sites;
      (** the program's static instruction-field table — the [Code]
          fault domain's location space *)
}

val make : ?hang_factor:int -> ?expected_output:string -> name:string ->
  Ir.Func.modl -> t
(** Load the module, execute the golden run and derive the budget
    ([hang_factor] x golden dynamic count, default 10 — one order of
    magnitude, as LLFI's watchdog).

    @raise Invalid_argument if the golden run does not finish normally, or
    if [expected_output] is given and differs from the golden output. *)

val candidates : t -> Spec.t -> int
(** The spec's time-axis size: the number of dynamic injection
    candidates for its technique ([Reg] domain), or the golden dynamic
    instruction count ([Mem]/[Code] — their flips land between dynamic
    instructions). *)

val ensure_checkpoints : t -> Vm.Checkpoint.set option
(** The workload's golden-prefix checkpoint set ({!Vm.Checkpoint}),
    recording it on first use — one instrumented golden run per digest,
    process-wide, shared across engine domains.  [None] when
    checkpointing is disabled ({!Config.checkpointing}).  Cheap after the first call
    (lock-free cache lookup), so callers may invoke it per experiment;
    the engine calls it once up front so worker domains never contend on
    the recording lock. *)
