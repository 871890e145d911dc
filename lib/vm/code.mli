(** Decode-once, run-many execution pipeline.

    {!compile} lowers a loaded {!Program.t} into flat per-function
    micro-op arrays: opcodes are pre-split into int/float variants with
    masks and shift counts baked in, operands are register-file slots
    (immediates interned into constant slots past the real registers, so
    every operand read is one array load), call targets and block
    successors are integer indices, and the per-site candidate metadata
    ({!Meta.t}) plus packed candidate flags ride alongside each micro-op.
    A program is decoded once — keyed by its IR digest — and the
    resulting code is immutable, shared freely across engine domains.

    {!run} executes compiled code with run-until-event fault scheduling,
    a straight-line segment at a time: a segment in which no event can
    fire and no threshold (watchdog, checkpoint capture, early-exit
    probe) falls runs with no per-instruction accounting, and the
    counters advance at its end by per-function prefix sums of the
    candidate flags.  Only where an event or a threshold falls inside a
    segment is each instruction accounted on its own, and the injector's
    slow path runs only at a scheduled event.  Golden runs and
    post-injection execution ([events] thresholds of [max_int] after the
    final flip) run almost wholly in segments; the instructions run
    inside segments are counted by [onebit_vm_segment_instructions_total].

    This is the VM every run executes on.  Behaviour is bit-identical to
    the reference interpreter {!Exec.run}: same outputs, statuses,
    dynamic counts, candidate ordinals, [last_write] contents at every
    hook, and [block_hook] call sequence.  The differential suites
    enforce this. *)

type t
(** Compiled form of a program.  Immutable — except through {!patch} on
    a private {!fork}, the code-domain fault injector's entry point. *)

type events = {
  watch : [ `Read | `Write | `Dyn ];
      (** which stream carries the scheduled events: a candidate stream,
          or ([`Dyn]) the raw dynamic-instruction stream — the
          [Mem]/[Code] fault domains' time axis *)
  mutable ev_cand : int;
      (** fire when the watched candidate ordinal reaches this
          (unused, keep at [max_int], for [`Dyn]) *)
  mutable ev_dyn : int;
      (** or when, at a watched candidate (any instruction for [`Dyn]),
          the dynamic index reaches this; either threshold triggers,
          [max_int] disables *)
  handle : dyn:int -> cand:int -> Exec.frame -> Meta.t -> unit;
      (** the slow path.  Fires at the same point the corresponding
          {!Exec.hooks} callback would ([pre] for [`Read], [post] for
          [`Write], [at] for [`Dyn], where [cand] is [-1]) and must
          refresh [ev_cand]/[ev_dyn] before returning. *)
}

val compile : ?digest:string -> Program.t -> t
(** Lower a loaded program.  When [digest] (the workload's IR digest) is
    given, compiled code is cached process-wide and shared: compiling the
    same digest again returns the existing code.  Thread-safe.  Decodes
    count in [onebit_vm_decodes_total], cache hits in
    [onebit_vm_decode_cache_hits_total]. *)

val program : t -> Program.t
(** The program this code was compiled from. *)

val run :
  ?events:events ->
  ?block_hook:(fidx:int -> bidx:int -> unit) ->
  ?record:Checkpoint.recorder ->
  ?exits:Checkpoint.set ->
  ?mem:Memory.t ->
  budget:int ->
  t ->
  Exec.result
(** Execute the entry function; semantics of [budget], traps, call depth
    and the result fields are exactly those of {!Exec.run}.

    [record] captures golden-prefix checkpoints into the recorder every
    time a candidate ordinal crosses its interval (see {!Checkpoint});
    recording runs execute on a private undo-tracking memory so each
    point can snapshot its dirty pages.

    [mem] supplies the memory to execute against instead of cloning the
    template — it must be in template state ({!Memory.reset} /
    {!Memory.restore_pages} it first); the caller retains ownership
    across runs.  This is what lets one per-domain memory serve a whole
    shard of experiments.

    [exits] (the program's golden checkpoint set) enables the early
    exits.  They apply only to a run with [events] and an undo-tracking
    [mem], without [block_hook] or [record], and only once no event is
    pending (both thresholds [max_int]: the last flip has fired):
    - {e convergence} (pristine code only, not a {!fork}): at each
      point's [ck_dyn], a state equal to the point's — counters, call
      stack, registers bit for bit, memory image and output so far —
      ends the run with [exits.final], when its [dyn_count <= budget];
    - {e cycle}: once the run is longer than [exits.final], a state at
      a block start that repeats exactly (stack, registers, memory,
      output length) is advanced by whole periods short of [budget],
      then executed to the watchdog.
    Either way the result is field for field the one full execution
    returns.  [onebit_vm_instructions_total] counts only the
    instructions executed; [onebit_vm_early_exits_total{kind}] counts
    the exits and [onebit_vm_early_exit_skipped_instructions_total] the
    instructions they skipped. *)

val each_candidate :
  watch:[ `Read | `Write ] ->
  budget:int ->
  t ->
  (dyn:int -> cand:int -> Exec.frame -> Meta.t -> unit) ->
  Exec.result
(** A fault-free {!run} that calls [f] at every candidate of the
    [watch] stream, in ordinal order ([cand] = 0, 1, ...), at the point
    the reference interpreter's [pre] ([`Read]) or [post] ([`Write])
    hook fires, with the same frame contents ([last_write] included). *)

val resume :
  events:events ->
  mem:Memory.t ->
  point:Checkpoint.point ->
  ?orig:t ->
  ?exits:Checkpoint.set ->
  budget:int ->
  t ->
  Exec.result
(** Restore [point] (counters, output prefix, call stack, dirty pages —
    [mem] must be the undo-tracking working memory for this program) and
    execute only the suffix.  The result is field-for-field what {!run}
    with the same [events] would return: [dyn_count]/candidate ordinals
    continue from the restored counters, so they count the whole logical
    run, not just the suffix.  [budget] keeps its whole-run meaning.

    When executing a {!fork} that {!patch} may rewrite mid-run (the code
    fault domain), pass the pristine original as [orig]: the restored
    stack's in-progress calls complete with their pre-flip destination
    registers, matching non-checkpoint execution, where the call record
    is destructured at dispatch and thus immune to later patches.
    [exits] is {!run}'s. *)

val fork : t -> t
(** A private copy whose micro-op arrays may be {!patch}ed — the
    decode-cache invalidation analog of the code fault domain: the
    digest-keyed decode cache only ever holds pristine code, and a
    mutated experiment runs on a throwaway fork (one array copy per
    function; flags, metas, segment tables, constant pools and the
    source program are shared). *)

val patch :
  t ->
  fidx:int ->
  bidx:int ->
  idx:int ->
  [ `Instr of Ir.Instr.t | `Term of Ir.Instr.terminator ] ->
  unit
(** Install a (bit-flipped) source instruction at its site, replacing
    the decoded micro-op with a generic interpreting fallback.  [idx] is
    the instruction index within the block ([Array.length instrs] for
    the terminator — {!Meta.t}'s numbering).  The site keeps its
    original candidate flags and metadata, so candidate ordinals and
    [last_write] bookkeeping still follow the golden program structure
    while execution follows the mutated instruction — mirroring the seed
    interpreter on a {!Codeflip} image, with which it stays
    bit-identical.  Only call on a {!fork}. *)

val site_reads : t -> int array array
(** [site_reads code].(fidx).(bidx) is the number of static
    inject-on-read candidate sites in that block (instructions and
    terminator with at least one register source). *)

val site_writes : t -> int array array
(** Static inject-on-write candidate sites per block (instructions with a
    destination register). *)

