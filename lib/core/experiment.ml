type t = {
  outcome : Outcome.t;
  activated : int;
  first : Injector.injection option;
  dyn_count : int;
  output : string;
}

let m_experiments = Obs.Metrics.counter "onebit_injector_experiments_total"
let m_activations = Obs.Metrics.counter "onebit_injector_activations_total"

(* Per-domain experiment counters, dense over Domain.all so the metrics
   smoke can assert every series exists. *)
let m_domain =
  Array.of_list
    (List.map
       (fun d ->
         Obs.Metrics.counter
           ~labels:[ ("domain", Domain.to_string d) ]
           "onebit_inj_domain_total")
       Domain.all)

(* A run with golden-prefix checkpoint reuse: restore the nearest
   checkpoint at-or-before the first flip's target — candidate ordinal
   (Reg) or dynamic index (Mem/Code), i.e. the event schedule's watch
   axis — and execute only the suffix.  Even when no checkpoint
   precedes the target, the per-domain undo-tracking working memory
   replaces the per-experiment arena clone — reset costs O(dirty pages).
   Results are bit-identical to full execution: the prefix fires no
   events and consumes no injector randomness.  [code] is the code to
   execute — the workload's pristine code, or the Code domain's private
   fork (same structure, so restored frames line up).  The checkpoint set
   also enables the VM's early exits (convergence back to the golden run,
   exact hang cycles), equally result-preserving; [~checkpoint:false]
   keeps every instruction executed. *)
let run_checkpointed (workload : Workload.t) inj ev code set =
  let mem =
    Vm.Checkpoint.working_mem ~digest:workload.Workload.digest
      workload.prog.Vm.Program.mem_template
  in
  (* Mem flips land in the working memory; they dirty their page, so the
     next experiment's reset/restore undoes them like any store. *)
  (match Injector.domain inj with
  | Domain.Mem -> Injector.bind_mem inj ~addrs:workload.Workload.mem_addrs ~mem
  | Domain.Reg | Domain.Code -> ());
  let point =
    match (set, Injector.first_target inj) with
    | Some set, Some target ->
        Vm.Checkpoint.select set ~axis:ev.Vm.Code.watch ~target
    | _ -> None
  in
  match point with
  | Some p ->
      Vm.Code.resume ~events:ev ~mem ~point:p ~orig:workload.Workload.code
        ?exits:set ~budget:workload.budget code
  | None ->
      Vm.Memory.reset mem;
      Vm.Code.run ~events:ev ~mem ?exits:set ~budget:workload.budget code

let run_raw ?(checkpoint = true) (workload : Workload.t) inj =
  let ev = Injector.events inj in
  let code =
    match Injector.domain inj with
    | Domain.Code ->
        (* Mutated experiments run on a throwaway fork; each image flip
           is mirrored as a micro-op patch — the decode-cache
           invalidation.  The digest-keyed cache only ever holds pristine
           code. *)
        let image = Vm.Codeflip.image workload.prog in
        let fork = Vm.Code.fork workload.code in
        Injector.bind_code inj ~sites:workload.Workload.code_sites ~image
          ~apply:(fun ~fidx ~bidx ~idx p -> Vm.Code.patch fork ~fidx ~bidx ~idx p)
          ();
        fork
    | Domain.Reg | Domain.Mem -> workload.code
  in
  if checkpoint && Config.checkpointing () then
    run_checkpointed workload inj ev code (Workload.ensure_checkpoints workload)
  else
    match Injector.domain inj with
    | Domain.Mem ->
        let mem = Vm.Memory.clone workload.prog.Vm.Program.mem_template in
        Injector.bind_mem inj ~addrs:workload.Workload.mem_addrs ~mem;
        Vm.Code.run ~events:ev ~mem ~budget:workload.budget code
    | Domain.Reg | Domain.Code ->
        Vm.Code.run ~events:ev ~budget:workload.budget code

(* Classification + bookkeeping of a finished faulty run. *)
let conclude (workload : Workload.t) inj (res : Vm.Exec.result) =
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.incr m_experiments;
    Obs.Metrics.add m_activations (Injector.activated inj);
    Obs.Metrics.incr m_domain.(Domain.index (Injector.domain inj))
  end;
  {
    outcome = Outcome.classify ~golden_output:workload.Workload.golden.output res;
    activated = Injector.activated inj;
    first = Injector.first_injection inj;
    dyn_count = res.dyn_count;
    output = res.output;
  }

let run_inj workload inj = conclude workload inj (run_raw workload inj)

let run ?spacing workload spec rng =
  let candidates = Workload.candidates workload spec in
  let inj = Injector.create ~spec ~candidates ?spacing rng in
  run_inj workload inj

let run_at workload spec ~first rng =
  let candidates = Workload.candidates workload spec in
  let inj = Injector.create ~spec ~candidates ~first rng in
  run_inj workload inj
