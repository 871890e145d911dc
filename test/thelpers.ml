(* Shared helpers for the test suites. *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  nn = 0 || at 0

(* Build, load and run a one-function module in one step. *)
let run_main ?budget build_body =
  let m = Ir.Build.create () in
  Ir.Build.func m "main" ~params:[] ~ret:None build_body;
  let prog = Vm.Program.load (Ir.Build.finish m) in
  Vm.Exec.run ?hooks:None ~budget:(Option.value budget ~default:Vm.Exec.golden_budget) prog

(* One faulty run on the reference interpreter: [Vm.Exec.run] under the
   injector's hooks, with the per-domain binding [Experiment.run_raw]
   does.  [Reg] runs the pristine program, [Mem] a template clone, and
   [Code] executes the injector's private image directly (a flip mutates
   its instruction arrays in place and is visible from the next fetch).
   The oracle the differential suites compare the compiled VM with. *)
let seed_run (w : Core.Workload.t) inj =
  let hooks = Core.Injector.hooks inj in
  match Core.Injector.domain inj with
  | Core.Domain.Reg -> Vm.Exec.run ~hooks ~budget:w.budget w.prog
  | Core.Domain.Mem ->
      let mem = Vm.Memory.clone w.prog.Vm.Program.mem_template in
      Core.Injector.bind_mem inj ~addrs:w.mem_addrs ~mem;
      Vm.Exec.run ~hooks ~mem ~budget:w.budget w.prog
  | Core.Domain.Code ->
      let image = Vm.Codeflip.image w.prog in
      Core.Injector.bind_code inj ~sites:w.code_sites ~image ();
      Vm.Exec.run ~hooks ~budget:w.budget image

(* Run [f] with metrics collection and tracing switched as asked, and
   restore both switches afterwards. *)
let with_collection ~metrics ~trace f =
  let m0 = Obs.Metrics.enabled () and t0 = Obs.Trace.enabled () in
  Obs.Metrics.set_enabled metrics;
  Obs.Trace.set_enabled trace;
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.set_enabled m0;
      Obs.Trace.set_enabled t0)
    f

(* Run [f] with metrics collection on; return its result and a function
   giving how far each of the named [(name, labels)] counters advanced
   during it. *)
let counter_deltas counters f =
  let read (name, labels) =
    match Obs.Metrics.find ~labels name with
    | Some (Obs.Metrics.Counter n) -> n
    | _ -> 0
  in
  with_collection ~metrics:true ~trace:false (fun () ->
      let before = List.map (fun c -> (c, read c)) counters in
      let r = f () in
      let deltas = List.map (fun (c, n) -> (c, read c - n)) before in
      (r, fun c -> List.assoc c deltas))

let converge_exits = ("onebit_vm_early_exits_total", [ ("kind", "converge") ])
let cycle_exits = ("onebit_vm_early_exits_total", [ ("kind", "cycle") ])

(* Convergence and cycle exits counted over [f]. *)
let early_exits f =
  let r, delta = counter_deltas [ converge_exits; cycle_exits ] f in
  (r, delta converge_exits, delta cycle_exits)

(* Little-endian encoders matching the VM's output stream format. *)
let le32 v =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int v);
  Bytes.to_string b

let le64_of_float x =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.bits_of_float x);
  Bytes.to_string b

let status_testable =
  let pp fmt (s : Vm.Exec.status) =
    Format.pp_print_string fmt
      (match s with
      | Finished -> "finished"
      | Trapped t -> "trapped:" ^ Vm.Trap.to_string t
      | Hung -> "hung")
  in
  Alcotest.testable pp ( = )
