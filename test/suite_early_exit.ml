(* Differential tests for the VM's early exits (Vm.Code: convergence
   back to the golden run, exact hang cycles).  With checkpointing on —
   the default, which enables the exits — every experiment must return
   the same Exec.result, injection log and Experiment.t as
   [~checkpoint:false] full execution, in every fault domain.  Pinned programs hold the edge cases: output that
   diverged before the state converged, a runaway counter that never
   repeats, and a cycle that must still report the watchdog's counts. *)

module B = Ir.Build

let with_checkpoint ?interval on f =
  let saved_on = Core.Config.checkpointing ()
  and saved_k = Core.Config.checkpoint_interval () in
  Core.Config.set_checkpoint ?interval on;
  Fun.protect
    ~finally:(fun () -> Core.Config.set_checkpoint ~interval:saved_k saved_on)
    f

let injection_equal (a : Core.Injector.injection) (b : Core.Injector.injection)
    =
  Core.Domain.equal a.inj_domain b.inj_domain
  && a.inj_dyn = b.inj_dyn && a.inj_cand = b.inj_cand
  && a.inj_loc = b.inj_loc && a.inj_ty = b.inj_ty && a.inj_slot = b.inj_slot
  && a.inj_bit = b.inj_bit && a.inj_weight = b.inj_weight

let experiment_equal (a : Core.Experiment.t) (b : Core.Experiment.t) =
  a.outcome = b.outcome && a.activated = b.activated
  && a.dyn_count = b.dyn_count
  && String.equal a.output b.output
  &&
  match (a.first, b.first) with
  | None, None -> true
  | Some x, Some y -> injection_equal x y
  | _ -> false

let result_equal (a : Vm.Exec.result) (b : Vm.Exec.result) =
  a.status = b.status
  && String.equal a.output b.output
  && a.dyn_count = b.dyn_count
  && a.read_cands = b.read_cands
  && a.write_cands = b.write_cands

let registry_workload name =
  let d = Option.get (Bench_suite.Registry.find name) in
  Core.Workload.make ~name ~expected_output:(d.reference ()) (d.build ())

let injector w spec ?first rng =
  Core.Injector.create ~spec ~candidates:(Core.Workload.candidates w spec)
    ?first rng

(* One experiment through [run_raw]: result, packaged experiment and
   full injection log. *)
let run_one ~checkpoint w spec ?first rng =
  let inj = injector w spec ?first rng in
  let res = Core.Experiment.run_raw ~checkpoint w inj in
  (res, Core.Experiment.conclude w inj res, Core.Injector.injections inj)

(* Exits on against [~checkpoint:false] for indices [0, n) of one cell;
   [false] on the first difference. *)
let cell_agrees w spec ~seed ~n =
  let base = Prng.of_seed seed in
  List.for_all
    (fun i ->
      let r0, e0, l0 =
        run_one ~checkpoint:false w spec (Prng.split_at base i)
      in
      let r1, e1, l1 = run_one ~checkpoint:true w spec (Prng.split_at base i) in
      result_equal r0 r1 && experiment_equal e0 e1
      && List.equal injection_equal l0 l1)
    (List.init n Fun.id)

let matrix_specs =
  let open Core in
  [
    Spec.single Read;
    Spec.single Write;
    Spec.single ~domain:Mem Write;
    Spec.single ~domain:Code Write;
    Spec.multi Read ~max_mbf:3 ~win:(Fixed 10);
    Spec.multi Write ~max_mbf:3 ~win:(Fixed 10);
    Spec.multi ~domain:Mem Write ~max_mbf:3 ~win:(Fixed 10);
    Spec.multi ~domain:Code Write ~max_mbf:3 ~win:(Fixed 10);
  ]

(* nn, dijkstra, stringsearch and qsort x reg read/write, mem, code x
   single and m=3. *)
let test_registry_matrix () =
  with_checkpoint true (fun () ->
      List.iter
        (fun (name, n) ->
          let w = registry_workload name in
          List.iter
            (fun spec ->
              Alcotest.(check bool)
                (name ^ " " ^ Core.Spec.label spec)
                true
                (cell_agrees w spec ~seed:20261017L ~n))
            matrix_specs)
        [ ("nn", 6); ("dijkstra", 16); ("stringsearch", 16); ("qsort", 16) ])

(* Whole campaigns, checkpointing off vs the default: equal results, and
   both exits fire (nn's register writes converge, dijkstra's code flips
   make exact cycles) — the differential above is not vacuous. *)
let test_exits_fire () =
  let (), converged, cycled =
    Thelpers.early_exits (fun () ->
        List.iter
          (fun (name, spec, n) ->
            let w = registry_workload name in
            let off =
              with_checkpoint false (fun () ->
                  Core.Campaign.run ~keep_experiments:true w spec ~n ~seed:11L)
            in
            let on =
              with_checkpoint true (fun () ->
                  Core.Campaign.run ~keep_experiments:true w spec ~n ~seed:11L)
            in
            Alcotest.(check bool)
              (name ^ " campaign equal") true
              (Core.Campaign.equal_result off on))
          [
            ("nn", Core.Spec.single Write, 40);
            ("dijkstra", Core.Spec.single ~domain:Code Write, 200);
          ])
  in
  Alcotest.(check bool) "convergence exits > 0" true (converged > 0);
  Alcotest.(check bool) "cycle exits > 0" true (cycled > 0)

(* ---- pinned programs ---- *)

(* The pinned programs are recorded, and run, with a checkpoint every
   [pinned_interval] candidates, so golden points fall all along them. *)
let pinned_interval = 4

let workload_of name build =
  let m = B.create () in
  B.global_zeros m "cell" 4;
  B.func m "main" ~params:[] ~ret:None build;
  with_checkpoint ~interval:pinned_interval true (fun () ->
      let w = Core.Workload.make ~name (B.finish m) in
      ignore (Core.Workload.ensure_checkpoints w : Vm.Checkpoint.set option);
      w)

(* x is output (read candidate 0) and stored (read candidate 1); then the
   stored word and x are overwritten and a loop runs past several
   checkpoints. *)
let converge_program =
  lazy
    (workload_of "ee-converge" (fun f ->
         let x = B.local_init f I32 (B.ci 5) in
         B.output f I32 (B.r x);
         B.store f I32 ~value:(B.r x) ~addr:(B.glob "cell");
         B.store f I32 ~value:(B.ci 9) ~addr:(B.glob "cell");
         B.set f x (B.ci 7);
         let acc = B.local_init f I32 (B.ci 0) in
         B.for_ f ~from_:(B.ci 0) ~below:(B.ci 300) (fun i ->
             B.set f acc (B.add f I32 (B.r acc) i));
         B.output f I32 (B.r acc)))

let forced ~checkpoint w spec first =
  with_checkpoint ~interval:pinned_interval checkpoint (fun () ->
      run_one ~checkpoint w spec ~first (Prng.of_seed 1L))

(* The same forced flip with full execution, then with the exits on, and
   the exits counted over both. *)
let forced_pair w spec first =
  Thelpers.early_exits (fun () ->
      let off = forced ~checkpoint:false w spec first in
      (off, forced ~checkpoint:true w spec first))

let check_same label (r0, e0, l0) (r1, e1, l1) =
  Alcotest.(check bool) (label ^ ": result") true (result_equal r0 r1);
  Alcotest.(check bool) (label ^ ": experiment") true (experiment_equal e0 e1);
  Alcotest.(check bool)
    (label ^ ": injection log") true
    (List.equal injection_equal l0 l1)

(* Flipping x as the output reads it: the registers and memory are back
   to golden two instructions later, but a corrupted byte is already
   out, so the run is SDC and must not take the convergence exit.  The
   same flip at the store, whose word is overwritten, converges and is
   Benign. *)
let test_output_then_converge () =
  let w = Lazy.force converge_program in
  let spec = Core.Spec.single Read in
  let (off, on), converged, _ = forced_pair w spec (0, 0, 3) in
  check_same "output flip" off on;
  let _, e, log = on in
  Alcotest.(check bool) "output flip is SDC" true (e.outcome = Core.Outcome.Sdc);
  Alcotest.(check int) "flip at the output" 1 (List.hd log).inj_dyn;
  Alcotest.(check int) "no convergence exit after an output diverged" 0
    converged;
  let (off, on), converged, _ = forced_pair w spec (1, 0, 3) in
  check_same "dead flip" off on;
  let _, e, _ = on in
  Alcotest.(check bool) "dead flip is Benign" true
    (e.outcome = Core.Outcome.Benign);
  Alcotest.(check int) "the dead flip converges" 1 converged

(* [n] is write candidate 0; the loop counts i up to n, stepping with
   [step]. *)
let counting_program name step =
  workload_of name (fun f ->
      let n = B.local_init f I32 (B.ci 10) in
      let i = B.local_init f I32 (B.ci 0) in
      B.while_ f
        ~cond:(fun () -> B.ne f I32 (B.r i) (B.r n))
        ~body:(fun () -> B.set f i (step f (B.r i)));
      B.output f I32 (B.r i))

(* Bit 20 of n: i counts towards 2^20 + 10, a new state every
   iteration, so the run reaches the watchdog with no cycle exit. *)
let test_runaway () =
  let w = counting_program "ee-runaway" (fun f i -> B.add f I32 i (B.ci 1)) in
  let spec = Core.Spec.single Write in
  let (off, on), _, cycled = forced_pair w spec (0, -1, 20) in
  check_same "runaway" off on;
  let r, _, _ = on in
  Alcotest.(check bool) "hung" true (r.status = Vm.Exec.Hung);
  Alcotest.(check int) "watchdog count" (w.budget + 1) r.dyn_count;
  Alcotest.(check int) "no cycle exit" 0 cycled

(* Bit 4 of n: i steps modulo 16 and never reaches 26 — an exact cycle.
   The exit skips whole periods, yet the run must report the watchdog's
   dyn_count and the full run's candidate counts. *)
let cycle_program =
  lazy
    (counting_program "ee-cycle" (fun f i ->
         B.band f I32 (B.add f I32 i (B.ci 1)) (B.ci 15)))

let test_cycle () =
  let w = Lazy.force cycle_program in
  let spec = Core.Spec.single Write in
  let (off, on), _, cycled = forced_pair w spec (0, -1, 4) in
  check_same "cycle" off on;
  let r0, _, _ = off and r, _, _ = on in
  Alcotest.(check bool) "hung" true (r.status = Vm.Exec.Hung);
  Alcotest.(check int) "dyn_count = budget + 1" (w.budget + 1) r.dyn_count;
  Alcotest.(check int) "read_cands" r0.read_cands r.read_cands;
  Alcotest.(check int) "write_cands" r0.write_cands r.write_cands;
  Alcotest.(check int) "one cycle exit" 1 cycled

(* A call to a float loop, so golden points fall inside the callee with
   the caller's frame outstanding and float registers live. *)
let float_call_program =
  lazy
    (let m = B.create () in
     B.global_zeros m "cell" 8;
     B.func m "f" ~params:[ I32 ] ~ret:(Some I32) (fun f ->
         let acc = B.local_init f F64 (B.cf 0.5) in
         B.for_ f ~from_:(B.ci 0) ~below:(B.ci 200) (fun i ->
             let x = B.cast f Sitofp ~from_ty:I32 ~to_ty:F64 i in
             B.set f acc (B.fadd f (B.r acc) x);
             B.store f F64 ~value:(B.r acc) ~addr:(B.glob "cell"));
         B.ret f (Some (B.cast f Fptosi ~from_ty:F64 ~to_ty:I32 (B.r acc))));
     B.func m "main" ~params:[] ~ret:None (fun f ->
         let r = B.call1 f "f" [ B.ci 3 ] in
         B.output f I32 r);
     with_checkpoint ~interval:8 true (fun () ->
         let w = Core.Workload.make ~name:"ee-float-call" (B.finish m) in
         (w, Option.get (Core.Workload.ensure_checkpoints w))))

(* The golden-point compare is exact.  A run with no fault pending
   against a set whose final result is marked: an untouched point makes
   it exit with the mark, and a point whose outer pc, float register or
   memory page differs from the run's state must not, nor may any point
   when the budget is below the golden length. *)
let test_compare_exact () =
  let w, set = Lazy.force float_call_program in
  let p =
    Array.to_list set.Vm.Checkpoint.points
    |> List.find (fun (p : Vm.Checkpoint.point) ->
           Array.length p.ck_stack = 2
           && Array.length p.ck_pages > 0
           && Array.exists
                (fun x -> x <> 0.0)
                p.ck_stack.(1).fs_flts)
  in
  let marked = { set.final with Vm.Exec.output = "marked" } in
  let run ?(budget = w.budget) (p : Vm.Checkpoint.point) =
    let events =
      {
        Vm.Code.watch = `Read;
        ev_cand = max_int;
        ev_dyn = max_int;
        handle = (fun ~dyn:_ ~cand:_ _ _ -> ());
      }
    in
    let mem = Vm.Memory.with_undo w.prog.Vm.Program.mem_template in
    let exits = { set with points = [| p |]; final = marked } in
    Vm.Code.run ~events ~exits ~mem ~budget w.code
  in
  let run_out ?budget p = (run ?budget p).Vm.Exec.output in
  let frame k f = Array.mapi (fun j fs -> if j = k then f fs else fs) in
  Alcotest.(check string) "equal state exits" "marked" (run_out p);
  (* The golden rest would overrun a budget below the golden length. *)
  Alcotest.(check bool)
    "budget below the golden length: no exit, the run hangs" true
    ((run ~budget:(set.final.dyn_count - 1) p).status = Vm.Exec.Hung);
  let outer_pc =
    {
      p with
      ck_stack =
        frame 0
          (fun (fs : Vm.Checkpoint.frame_snap) -> { fs with fs_pc = fs.fs_pc + 1 })
          p.ck_stack;
    }
  in
  let flt =
    {
      p with
      ck_stack =
        frame 1
          (fun (fs : Vm.Checkpoint.frame_snap) ->
            let flts = Array.copy fs.fs_flts in
            let k = ref 0 in
            while flts.(!k) = 0.0 do incr k done;
            flts.(!k) <- Float.neg flts.(!k);
            { fs with fs_flts = flts })
          p.ck_stack;
    }
  in
  let page =
    {
      p with
      ck_pages =
        Array.map
          (fun (pg, b) ->
            let b = Bytes.copy b in
            Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
            (pg, b))
          p.ck_pages;
    }
  in
  List.iter
    (fun (label, p) ->
      Alcotest.(check string) label w.golden.output (run_out p))
    [
      ("outer pc differs: no exit", outer_pc);
      ("float register differs: no exit", flt);
      ("memory page differs: no exit", page);
    ]

(* ---- random programs with loops ---- *)

(* Loop-body operations over four i32 registers r0..r3 and an 8-word
   global buffer, indexed by a register masked to 0..7.  [Spin (j, t)]
   runs an inner loop stepping a counter modulo 16 from [rj] until it
   meets [rt land 15]: always at most 16 iterations in the golden run,
   an exact cycle once a flip puts the target out of reach. *)
type lop =
  | Bin of int * int * int * int (* op, dst, a, b *)
  | Load of int * int (* dst, index register *)
  | Store of int * int (* value, index register *)
  | Call of int * int * int (* dst, a, b *)
  | Out of int
  | Spin of int * int

let loop_binops : Ir.Instr.binop array = [| Add; Sub; Mul; And; Or; Xor; Shl; Lshr |]

let build_loop_program (iters, body, seeds) =
  let seed k = List.nth seeds (k mod List.length seeds) land 0xFFFFFFFF in
  let m = B.create () in
  B.global_i32s m "buf" (Array.init 8 (fun k -> seed (k + 4)));
  B.func m "mix" ~params:[ I32; I32 ] ~ret:(Some I32) (fun f ->
      let a = B.param f 0 and b = B.param f 1 in
      let u = B.bxor f I32 (B.mul f I32 a (B.ci 31)) b in
      B.ret f (Some (B.add f I32 u (B.lshr f I32 a (B.ci 3)))));
  B.func m "main" ~params:[] ~ret:None (fun f ->
      let regs = Array.init 4 (fun k -> B.local_init f I32 (B.ci (seed k))) in
      let r k = B.r regs.(k land 3) in
      let slot k =
        B.gep f ~base:(B.glob "buf") ~index:(B.band f I32 (r k) (B.ci 7)) ~scale:4
      in
      B.for_ f ~from_:(B.ci 0) ~below:(B.ci iters) (fun _ ->
          List.iter
            (function
              | Bin (op, d, a, b) ->
                  B.set f regs.(d land 3)
                    (B.binop f loop_binops.(op mod 8) I32 (r a) (r b))
              | Load (d, ix) -> B.set f regs.(d land 3) (B.load f I32 (slot ix))
              | Store (v, ix) -> B.store f I32 ~value:(r v) ~addr:(slot ix)
              | Call (d, a, b) ->
                  B.set f regs.(d land 3) (B.call1 f "mix" [ r a; r b ])
              | Out a -> B.output f I32 (r a)
              | Spin (j0, t) ->
                  let c = B.band f I32 (r t) (B.ci 15) in
                  let j = B.local_init f I32 (B.band f I32 (r j0) (B.ci 15)) in
                  B.while_ f
                    ~cond:(fun () -> B.ne f I32 (B.r j) c)
                    ~body:(fun () ->
                      B.set f j
                        (B.band f I32 (B.add f I32 (B.r j) (B.ci 1)) (B.ci 15)));
                  B.set f regs.(j0 land 3) (B.add f I32 (r j0) (B.r j)))
            body);
      Array.iter (fun reg -> B.output f I32 (B.r reg)) regs;
      for k = 0 to 7 do
        B.output f I32 (B.load f I32 (B.off f (B.glob "buf") (4 * k)))
      done);
  B.finish m

let lop_gen =
  QCheck.Gen.(
    let reg = int_bound 3 in
    frequency
      [
        (4, map3 (fun op d (a, b) -> Bin (op, d, a, b)) (int_bound 7) reg (pair reg reg));
        (2, map2 (fun d ix -> Load (d, ix)) reg reg);
        (2, map2 (fun v ix -> Store (v, ix)) reg reg);
        (1, map3 (fun d a b -> Call (d, a, b)) reg reg reg);
        (1, map (fun a -> Out a) reg);
        (1, map2 (fun j t -> Spin (j, t)) reg reg);
      ])

let loop_case_gen =
  QCheck.Gen.(
    triple (int_range 1 12)
      (list_size (int_range 1 8) lop_gen)
      (list_size (int_range 4 8) (map (fun x -> x land 0xFFFFFFFF) int)))

let loop_specs =
  let open Core in
  [
    Spec.single Read;
    Spec.single Write;
    Spec.single ~domain:Mem Write;
    Spec.single ~domain:Code Write;
    Spec.multi Read ~max_mbf:3 ~win:(Fixed 5);
    Spec.multi ~domain:Mem Write ~max_mbf:3 ~win:(Fixed 5);
  ]

let prop_loops =
  QCheck.Test.make ~name:"early exits match full execution on loops"
    ~count:200 (QCheck.make loop_case_gen) (fun case ->
      match
        with_checkpoint ~interval:4 true (fun () ->
            Core.Workload.make ~name:"ee-loop" (build_loop_program case))
      with
      | exception Invalid_argument _ -> true (* no workload *)
      | w ->
          with_checkpoint ~interval:4 true (fun () ->
              List.for_all
                (fun spec -> cell_agrees w spec ~seed:5L ~n:4)
                loop_specs))

(* The property, on a fixed seed, and both exits must fire on these
   programs too. *)
let test_loops () =
  let (), converged, cycled =
    Thelpers.early_exits (fun () ->
        QCheck.Test.check_exn
          ~rand:(Random.State.make [| 20261017 |])
          prop_loops)
  in
  Alcotest.(check bool) "convergence exits > 0" true (converged > 0);
  Alcotest.(check bool) "cycle exits > 0" true (cycled > 0)

let suites =
  [
    ( "early exit",
      [
        Alcotest.test_case "registry matrix vs full execution" `Quick
          test_registry_matrix;
        Alcotest.test_case "both exits fire, campaigns equal" `Quick
          test_exits_fire;
        Alcotest.test_case "diverged output stays SDC" `Quick
          test_output_then_converge;
        Alcotest.test_case "runaway counter reaches the watchdog" `Quick
          test_runaway;
        Alcotest.test_case "cycle reports the watchdog's counts" `Quick
          test_cycle;
        Alcotest.test_case "golden-point compare is exact" `Quick
          test_compare_exact;
        Alcotest.test_case "random loop programs" `Quick test_loops;
      ] );
  ]
