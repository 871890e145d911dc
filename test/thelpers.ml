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
