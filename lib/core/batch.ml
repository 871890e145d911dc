(* Checkpoint-tree suffix batching.

   Checkpointing (PR 5) made the golden prefix of every experiment free;
   this scheduler makes the suffix cheap too.  An experiment's first-flip
   time is drawn at injector creation ([Injector.first_target]), so its
   restore point ([Checkpoint.select]) is known before anything runs.
   Instead of one full page-restore per experiment, a shard's experiments
   are sorted by restore point into a single event queue, consecutive
   experiments sharing a point form a group, and each group pays one full
   restore ([Memory.set_baseline]); members rewind between runs with an
   O(dirty) baseline reset ([Memory.reset_to_baseline]).

   Determinism argument: each experiment's result is a pure function of
   its injector (seeded by [Prng.split_at base index], independent of
   every other experiment) and the memory image at its start of
   execution.  [reset_to_baseline] leaves the arena byte-for-byte as
   [restore_pages] with the group's snapshot would, and the decoded code
   is immutable (Code-domain members run private forks), so each member
   observes exactly the state the one-at-a-time path would.  Results are
   collected into a position-indexed array and folded in original index
   order, making campaign results, injection logs, CSV and store records
   byte-identical with batching on or off. *)

let m_groups = Obs.Metrics.counter "onebit_batch_groups_total"
let m_members = Obs.Metrics.counter "onebit_batch_experiments_total"

let m_group_size =
  Obs.Metrics.histogram ~buckets:Obs.Metrics.count_buckets
    "onebit_batch_group_size"

(* Plain atomics so tests and the bench harness see group formation even
   with metrics collection disabled. *)
let groups_total = Atomic.make 0
let members_total = Atomic.make 0
let stats () = (Atomic.get groups_total, Atomic.get members_total)

(* One planned experiment.  Only the restore point survives planning:
   the injector created to learn [first_target] is dropped (it dies in
   the minor heap) and an identical one is re-created at run time from
   the same private generator — [Injector.create] is a fraction of a
   microsecond, while keeping ~shard-size injectors live across the
   planning/run boundary measurably promotes them all to the major
   heap. *)
type plan = {
  index : int;  (* campaign experiment index *)
  point : Vm.Checkpoint.point option;
  ord : int;  (* point's ck_dyn, or -1 for "no checkpoint precedes" *)
}

(* The checkpoint-selection axis is a function of the spec alone —
   candidate ordinals of the technique for Reg, raw dynamic indices for
   Mem/Code — so planning need not build the event schedule to know it
   (it must match [Injector.events]'s watch field, which the compiled
   loop drives). *)
let axis_of (spec : Spec.t) =
  match spec.Spec.domain with
  | Domain.Reg -> (
      match spec.technique with
      | Technique.Read -> `Read
      | Technique.Write -> `Write)
  | Domain.Mem | Domain.Code -> `Dyn

let run_one (w : Workload.t) mem exits p inj ev =
  (* Per-member setup mirrors [Experiment.run_raw]'s compiled checkpoint
     path: domain bindings first, then run.  The memory has already been
     positioned at the group's restore image (or template state for the
     ord = -1 group) by the group driver. *)
  let code =
    match Injector.domain inj with
    | Domain.Code ->
        let image = Vm.Codeflip.image w.Workload.prog in
        let fork = Vm.Code.fork w.Workload.code in
        Injector.bind_code inj ~sites:w.Workload.code_sites ~image
          ~apply:(fun ~fidx ~bidx ~idx patch ->
            Vm.Code.patch fork ~fidx ~bidx ~idx patch)
          ();
        fork
    | Domain.Reg | Domain.Mem -> w.Workload.code
  in
  (match Injector.domain inj with
  | Domain.Mem -> Injector.bind_mem inj ~addrs:w.Workload.mem_addrs ~mem
  | Domain.Reg | Domain.Code -> ());
  match p.point with
  | Some point ->
      Vm.Code.resume_prepared ~events:ev ~mem ~point ~orig:w.Workload.code
        ?exits ~budget:w.Workload.budget code
  | None -> Vm.Code.run ~events:ev ~mem ?exits ~budget:w.Workload.budget code

let run_plans ?spacing (w : Workload.t) spec ~seed plans out conclude =
  let n = Array.length plans in
  let base = Prng.of_seed seed in
  let candidates = Workload.candidates w spec in
  let mem =
    Vm.Checkpoint.working_mem ~digest:w.Workload.digest
      w.Workload.prog.Vm.Program.mem_template
  in
  (* The set the plans were selected from (cached): it also enables the
     VM's early exits, as on the one-at-a-time path. *)
  let exits = Workload.ensure_checkpoints w in
  (* The sorted event queue: experiments ordered by restore point (the
     ord = -1 "run from the top" pseudo-group first), original index as
     the tie-break so equal-point members keep a deterministic order. *)
  let perm = Array.init n (fun k -> k) in
  Array.sort
    (fun a b ->
      let c = compare plans.(a).ord plans.(b).ord in
      if c <> 0 then c else compare a b)
    perm;
  let cur_size = ref 0 in
  let group_ord = ref min_int in
  let flush () =
    let size = !cur_size in
    if size > 0 then begin
      Atomic.incr groups_total;
      ignore (Atomic.fetch_and_add members_total size);
      if Obs.Metrics.enabled () then begin
        Obs.Metrics.incr m_groups;
        Obs.Metrics.add m_members size;
        Obs.Metrics.observe m_group_size (float_of_int size)
      end
    end;
    cur_size := 0
  in
  Array.iter
    (fun k ->
      let p = plans.(k) in
      (match p.point with
      | None ->
          (* No checkpoint precedes the target: full execution from a
             template-state memory (the legacy fallback); nothing is
             shared, so each such member is its own group of one. *)
          flush ();
          Vm.Memory.reset mem
      | Some point ->
          if p.ord = !group_ord then
            (* Same group: O(dirty) rewind to the shared restore image. *)
            Vm.Memory.reset_to_baseline mem
          else begin
            (* New group: one full restore, remembered as the baseline.
               Sorting makes ords non-decreasing, so a point ordinal
               never recurs after its group has been flushed. *)
            flush ();
            group_ord := p.ord;
            Vm.Memory.set_baseline mem point.Vm.Checkpoint.ck_pages
          end);
      incr cur_size;
      (* Re-create the member's injector exactly as planning (and the
         one-at-a-time path) did: same private generator, same single
         first-flip draw, so the run is bit-identical. *)
      let inj =
        Injector.create ~spec ~candidates ?spacing (Prng.split_at base p.index)
      in
      let ev = Injector.events inj in
      out.(k) <- Some (conclude w inj (run_one w mem exits p inj ev)))
    perm;
  flush ();
  (* Leave the working memory in template state with the overlay dropped,
     as the one-at-a-time path's next [reset]/[restore_pages] expects. *)
  if n > 0 then Vm.Memory.reset mem

let plan_indices ?spacing (w : Workload.t) spec ~seed ~indices =
  if
    Config.active_backend () <> Config.Compiled
    || (not (Config.checkpointing ()))
    || not (Config.batching ())
  then None
  else
    match Workload.ensure_checkpoints w with
    | None -> None
    | Some set ->
        let base = Prng.of_seed seed in
        let candidates = Workload.candidates w spec in
        let axis = axis_of spec in
        Some
          (Array.map
             (fun i ->
               if i < 0 then invalid_arg "Batch: negative experiment index";
               let rng = Prng.split_at base i in
               let inj = Injector.create ~spec ~candidates ?spacing rng in
               let point =
                 match Injector.first_target inj with
                 | Some target -> Vm.Checkpoint.select set ~axis ~target
                 | None -> None
               in
               let ord =
                 match point with
                 | Some p -> p.Vm.Checkpoint.ck_dyn
                 | None -> -1
               in
               { index = i; point; ord })
             indices)

let run_with ?spacing w spec ~seed ~indices conclude =
  match plan_indices ?spacing w spec ~seed ~indices with
  | None -> None
  | Some plans ->
      let out = Array.make (Array.length plans) None in
      run_plans ?spacing w spec ~seed plans out conclude;
      Some
        (Array.map (function Some e -> e | None -> assert false) out)

let run_indices ?spacing w spec ~seed ~indices =
  run_with ?spacing w spec ~seed ~indices Experiment.conclude

let run_indices_logged ?spacing w spec ~seed ~indices =
  run_with ?spacing w spec ~seed ~indices (fun w inj res ->
      (Experiment.conclude w inj res, Injector.injections inj))
