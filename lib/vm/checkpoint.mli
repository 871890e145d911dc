(** Golden-prefix checkpoints for the compiled VM.

    Every experiment is deterministic and fault-free up to its first
    flip, whose candidate ordinal is known at injector creation.  One
    instrumented golden run per program ({!Code.run} with a {!recorder})
    captures the complete VM state every [interval] candidate
    instructions; {!select} then finds the nearest checkpoint
    at-or-before an experiment's first target and {!Code.resume}
    executes only the suffix.

    A checkpoint is taken at the top of the interpreter loop — before
    the instruction's dyn increment and candidate blocks — and carries
    {e both} the read- and write-candidate ordinals consumed so far, so
    a single digest-keyed set serves both injection techniques.  The
    golden prefix fires no injector events and consumes no randomness,
    which is why a resumed run is bit-identical to a full one (enforced
    by test/suite_checkpoint.ml and the CI checkpoint smoke). *)

type frame_snap = {
  fs_fidx : int;  (** compiled-function index *)
  fs_pc : int;
      (** innermost frame: pc to resume at; outer frames: pc of the
          in-progress call instruction *)
  fs_call_dyn : int;
      (** outer frames: the call's dynamic index, used to replay its
          write-candidate post-block exactly; 0 for the innermost *)
  fs_ints : int array;
  fs_flts : float array;
  fs_lw : int array;
}
(** One frame of the captured call stack (private copies). *)

type point = {
  ck_dyn : int;  (** dynamic instructions executed before this point *)
  ck_rc : int;  (** read-candidate ordinals consumed *)
  ck_wc : int;  (** write-candidate ordinals consumed *)
  ck_out : string;  (** output emitted so far *)
  ck_stack : frame_snap array;  (** outermost first *)
  ck_pages : (int * bytes) array;
      (** dirty pages at capture; with the pristine template this is the
          whole memory image *)
}

type set = {
  interval : int;
  points : point array;
  final : Exec.result;
      (** the recording run's result: a run whose state equals a point's
          with no fault pending returns exactly this (the VM's
          convergence exit) *)
}
(** All checkpoints of one golden run; ordinals increase with index. *)

type recorder = {
  mutable interval : int;
  mutable next_rc : int;
  mutable next_wc : int;
  mutable rev_points : point list;
  mutable n_points : int;
}
(** Mutable capture state threaded through a recording {!Code.run}.
    Transparent so the run loop's trigger test ([rc >= next_rc || wc >=
    next_wc]) is two field loads; treat as opaque elsewhere. *)

val recorder : interval:int -> recorder
(** A fresh recorder capturing every [interval] candidate instructions
    (on either ordinal axis).  When a program accumulates more than an
    internal cap (1024 points) the set is thinned to every other point
    and the interval doubles, bounding memory for any program length.
    Raises [Invalid_argument] if [interval <= 0]. *)

val finish : recorder -> final:Exec.result -> set
(** The recorded points, with the recording run's [final] result. *)

val add : recorder -> point -> unit
(** Used by {!Code.run}'s capture path; re-arms the trigger thresholds. *)

val null_recorder : recorder
(** Thresholds pinned at [max_int]; never captures.  The run loop's
    placeholder for non-recording runs. *)

val select :
  set -> axis:[ `Read | `Write | `Dyn ] -> target:int -> point option
(** Greatest point whose consumed-ordinal count on [axis] is [<= target]
    (binary search), or [None] if even the first checkpoint lies beyond
    the target.  [`Dyn] selects on the raw dynamic-instruction counter —
    the [Mem]/[Code] fault domains' time axis; a captured call frame's
    call ran strictly before [ck_dyn], so resuming cannot skip the
    target's top-of-loop event. *)

val note_restore : point -> unit
(** Count a restore in [onebit_vm_checkpoint_hits_total], the
    [onebit_vm_checkpoint_restore_distance] histogram and
    [onebit_vm_checkpoint_pages_restored_total].  Captured points are
    counted in [onebit_vm_checkpoints_total] and
    [onebit_vm_checkpoint_pages_saved_total]. *)

(** {1 Process-wide cache}

    Like the decode cache, checkpoint sets are keyed by a string and
    shared across engine domains; [Core.Workload] keys them by IR digest
    and interval.  Lookups are lock-free (an immutable map behind an
    atomic); recording happens at most once per key under a lock. *)

val find : string -> set option
val store : string -> set -> unit

val ensure : string -> record:(unit -> set option) -> set option
(** [find], or run [record] (under the recording lock, double-checked)
    and cache its result.  [record] returning [None] — e.g. a golden run
    that did not finish — caches nothing and disables checkpointing for
    this key. *)

val working_mem : digest:string -> Memory.t -> Memory.t
(** The calling domain's reusable undo-tracking memory for [digest],
    created from [template] on first use (domain-local storage).  Callers
    must {!Memory.reset} or {!Memory.restore_pages} it before each run;
    domains execute their experiments sequentially, so one memory per
    (domain, program) suffices. *)
