(* Differential tests for the compiled execution pipeline (Vm.Code): the
   decode-once micro-op VM must be bit-identical to the reference
   interpreter (Vm.Exec) on golden runs, under fault injection, and
   across whole campaigns — same outputs, statuses, dynamic counts,
   candidate ordinals and injection logs. *)

let golden_equal name (a : Vm.Exec.result) (b : Vm.Exec.result) =
  Alcotest.(check bool) (name ^ " status") true (a.status = b.status);
  Alcotest.(check string) (name ^ " output") a.output b.output;
  Alcotest.(check int) (name ^ " dyn") a.dyn_count b.dyn_count;
  Alcotest.(check int) (name ^ " read cands") a.read_cands b.read_cands;
  Alcotest.(check int) (name ^ " write cands") a.write_cands b.write_cands

(* Every registry program (small and large inputs): golden runs, block
   profiles and packed site tables agree between backends. *)
let test_registry_golden () =
  List.iter
    (fun (d : Bench_suite.Desc.t) ->
      let p = Vm.Program.load (d.build ()) in
      let code = Vm.Code.compile p in
      let profile_of run =
        let profile =
          Array.map
            (fun (f : Vm.Program.lfunc) -> Array.make (Array.length f.blocks) 0)
            p.funcs
        in
        let block_hook ~fidx ~bidx =
          profile.(fidx).(bidx) <- profile.(fidx).(bidx) + 1
        in
        (run ~block_hook, profile)
      in
      let seed, sp =
        profile_of (fun ~block_hook ->
            Vm.Exec.run ~block_hook ~budget:Vm.Exec.golden_budget p)
      in
      let comp, cp =
        profile_of (fun ~block_hook ->
            Vm.Code.run ~block_hook ~budget:Vm.Exec.golden_budget code)
      in
      golden_equal d.name seed comp;
      Alcotest.(check bool) (d.name ^ " profile") true (sp = cp))
    (Bench_suite.Registry.all @ Bench_suite.Registry.large)

(* The packed per-block site tables must reproduce what a walk over the
   loaded program's metadata counts. *)
let test_site_tables () =
  let d = Option.get (Bench_suite.Registry.find "crc32") in
  let p = Vm.Program.load (d.build ()) in
  let code = Vm.Code.compile p in
  let reads = Vm.Code.site_reads code and writes = Vm.Code.site_writes code in
  Array.iteri
    (fun fidx (f : Vm.Program.lfunc) ->
      Array.iteri
        (fun bidx (b : Vm.Program.lblock) ->
          let r = ref 0 and w = ref 0 in
          Array.iter
            (fun (m : Vm.Meta.t) ->
              if Array.length m.srcs > 0 then incr r;
              if m.dst >= 0 then incr w)
            b.metas;
          Alcotest.(check int) "site reads" !r reads.(fidx).(bidx);
          Alcotest.(check int) "site writes" !w writes.(fidx).(bidx))
        f.blocks)
    p.funcs

(* Random straight-line programs (the generator of the seed-vs-evaluator
   differential suite) through both backends. *)
let prop_random_programs =
  QCheck.Test.make ~name:"compiled pipeline matches seed interpreter"
    ~count:300
    (QCheck.make Suite_differential.case_gen)
    (fun (ops, seeds) ->
      let seeds = if seeds = [] then [ 1L ] else seeds in
      let ops = Suite_differential.sanitize ops seeds in
      let m = Suite_differential.build_program ops seeds in
      let p = Vm.Program.load m in
      let seed = Vm.Exec.run ~budget:Vm.Exec.golden_budget p in
      let comp =
        Vm.Code.run ~budget:Vm.Exec.golden_budget (Vm.Code.compile p)
      in
      seed.status = comp.status
      && String.equal seed.output comp.output
      && seed.dyn_count = comp.dyn_count
      && seed.read_cands = comp.read_cands
      && seed.write_cands = comp.write_cands)

(* ---- fault-injection differential ---- *)

let injection_equal (a : Core.Injector.injection) (b : Core.Injector.injection)
    =
  a.inj_dyn = b.inj_dyn && a.inj_cand = b.inj_cand && a.inj_loc = b.inj_loc && Core.Domain.equal a.inj_domain b.inj_domain
  && a.inj_ty = b.inj_ty && a.inj_slot = b.inj_slot && a.inj_bit = b.inj_bit
  && a.inj_weight = b.inj_weight

let workload =
  lazy
    (let d = Option.get (Bench_suite.Registry.find "crc32") in
     Core.Workload.make ~name:d.name ~expected_output:(d.reference ())
       (d.build ()))

(* One experiment, same (spec, seed, index), run through hooks on the
   seed interpreter and through the event schedule on the compiled
   pipeline: runs and full injection logs must be bit-identical. *)
let check_experiment w spec ~spacing ~base i =
  let mk () =
    let cands = Core.Workload.candidates w spec in
    Core.Injector.create ~spec ~candidates:cands ~spacing
      (Prng.split_at base i)
  in
  let inj_s = mk () in
  let r_s =
    Vm.Exec.run
      ~hooks:(Core.Injector.hooks inj_s)
      ~budget:w.Core.Workload.budget w.prog
  in
  let inj_c = mk () in
  let r_c =
    Vm.Code.run
      ~events:(Core.Injector.events inj_c)
      ~budget:w.Core.Workload.budget w.code
  in
  let label = Printf.sprintf "%s #%d" (Core.Spec.label spec) i in
  golden_equal label r_s r_c;
  Alcotest.(check int)
    (label ^ " activated")
    (Core.Injector.activated inj_s)
    (Core.Injector.activated inj_c);
  let log_s = Core.Injector.injections inj_s
  and log_c = Core.Injector.injections inj_c in
  Alcotest.(check int) (label ^ " log length") (List.length log_s)
    (List.length log_c);
  List.iter2
    (fun a b ->
      Alcotest.(check bool) (label ^ " injection") true (injection_equal a b))
    log_s log_c

let test_experiments_differential () =
  let w = Lazy.force workload in
  let base = Prng.of_seed 424242L in
  let specs =
    [
      Core.Spec.single Read;
      Core.Spec.single Write;
      Core.Spec.multi Read ~max_mbf:3 ~win:(Fixed 0);
      Core.Spec.multi Write ~max_mbf:3 ~win:(Fixed 0);
      Core.Spec.multi Read ~max_mbf:3 ~win:(Fixed 1);
      Core.Spec.multi Write ~max_mbf:3 ~win:(Fixed 1);
      Core.Spec.multi Read ~max_mbf:3 ~win:(Fixed 100);
      Core.Spec.multi Write ~max_mbf:3 ~win:(Fixed 100);
      Core.Spec.multi Read ~max_mbf:4 ~win:(Rnd (2, 50));
    ]
  in
  List.iter
    (fun spec ->
      List.iter
        (fun spacing ->
          for i = 0 to 14 do
            check_experiment w spec ~spacing ~base i
          done)
        [ `Faulty; `Golden ])
    specs

(* Whole campaigns on the compiled VM (checkpointing at its default):
   every kept experiment must equal the reference interpreter's run of
   the same (seed, index) — outcome, activation count, dynamic length,
   output and first injection. *)
let test_campaign_differential () =
  let w = Lazy.force workload in
  let n = 60 and seed = 99L in
  List.iter
    (fun spec ->
      let r = Core.Campaign.run ~keep_experiments:true w spec ~n ~seed in
      Alcotest.(check int) "kept experiments" n
        (Array.length r.Core.Campaign.experiments);
      let base = Prng.of_seed seed in
      Array.iteri
        (fun i (e : Core.Experiment.t) ->
          let inj =
            Core.Injector.create ~spec
              ~candidates:(Core.Workload.candidates w spec)
              (Prng.split_at base i)
          in
          let s = Core.Experiment.conclude w inj (Thelpers.seed_run w inj) in
          let label = Printf.sprintf "%s #%d" (Core.Spec.label spec) i in
          Alcotest.(check bool)
            (label ^ " outcome") true (s.outcome = e.outcome);
          Alcotest.(check int) (label ^ " activated") s.activated e.activated;
          Alcotest.(check int) (label ^ " dyn") s.dyn_count e.dyn_count;
          Alcotest.(check string) (label ^ " output") s.output e.output;
          Alcotest.(check bool)
            (label ^ " first injection")
            true
            (Option.equal injection_equal s.first e.first))
        r.experiments)
    [
      Core.Spec.single Read;
      Core.Spec.multi Write ~max_mbf:3 ~win:(Fixed 10);
      Core.Spec.multi Read ~max_mbf:5 ~win:(Rnd (2, 10));
    ]

(* A campaign on the reference interpreter: every experiment through
   [Thelpers.seed_run], folded into a result the way [Campaign] folds
   its shards. *)
let seed_campaign w spec ~n ~seed =
  let base = Prng.of_seed seed in
  let exps =
    Array.init n (fun i ->
        let inj =
          Core.Injector.create ~spec
            ~candidates:(Core.Workload.candidates w spec)
            (Prng.split_at base i)
        in
        Core.Experiment.conclude w inj (Thelpers.seed_run w inj))
  in
  let count f =
    Array.fold_left
      (fun k (e : Core.Experiment.t) -> if f e then k + 1 else k)
      0 exps
  in
  let outcome o (e : Core.Experiment.t) = e.outcome = o in
  let traps = Hashtbl.create 8 and activation = Stats.Histogram.create () in
  let wsdc = ref 0.0 and wtotal = ref 0.0 in
  Array.iter
    (fun (e : Core.Experiment.t) ->
      (match e.outcome with
      | Detected t ->
          Hashtbl.replace traps t
            (1 + Option.value ~default:0 (Hashtbl.find_opt traps t))
      | _ -> ());
      Stats.Histogram.add activation e.activated;
      match e.first with
      | Some j ->
          let wt = float_of_int j.inj_weight in
          wtotal := !wtotal +. wt;
          if Core.Outcome.is_sdc e.outcome then wsdc := !wsdc +. wt
      | None -> ())
    exps;
  let profile =
    {
      Core.Campaign.p_exps = n;
      p_benign = count (outcome Benign);
      p_detected =
        count (fun e -> match e.outcome with Detected _ -> true | _ -> false);
      p_hang = count (outcome Hang);
      p_no_output = count (outcome No_output);
      p_sdc = count (outcome Sdc);
      p_traps = List.sort compare (List.of_seq (Hashtbl.to_seq traps));
      p_activation = Stats.Histogram.to_alist activation;
      p_weighted_sdc = !wsdc;
      p_weighted_total = !wtotal;
    }
  in
  ( Core.Campaign.result_of_profiles ~workload_name:w.Core.Workload.name spec
      ~n ~seed [ profile ],
    exps )

(* The CLI cells of the seed-vs-compiled pipeline check: crc32 and qsort
   at [-t read -m 3 -w 10 -n 40] on the reference interpreter and on the
   engine at jobs = 4 (shards of 5) must give the same CSV row and the
   same result, and the crc32 [-t write] replay of experiment 3 must
   match the engine's record of it. *)
let test_pipeline_cells () =
  let seed = 20170626L and n = 40 in
  let load name =
    let d = Option.get (Bench_suite.Registry.find name) in
    Core.Workload.make ~name ~expected_output:(d.reference ()) (d.build ())
  in
  List.iter
    (fun name ->
      let w = load name in
      let spec = Core.Spec.multi Read ~max_mbf:3 ~win:(Fixed 10) in
      let reference, _ = seed_campaign w spec ~n ~seed in
      let engine =
        Engine.run_campaign ~jobs:4 ~shard_size:5 w spec ~n ~seed
      in
      Alcotest.(check string)
        (name ^ " CSV row") (Core.Csv.row reference) (Core.Csv.row engine);
      Alcotest.(check bool)
        (name ^ " result") true
        (Core.Campaign.equal_result reference engine))
    [ "crc32"; "qsort" ];
  let w = load "crc32" in
  let spec = Core.Spec.multi Write ~max_mbf:3 ~win:(Fixed 10) in
  let _, exps = seed_campaign w spec ~n ~seed in
  let engine =
    Engine.run_campaign ~jobs:4 ~shard_size:5 ~keep_experiments:true w spec
      ~n ~seed
  in
  let s = exps.(3) and e = engine.experiments.(3) in
  Alcotest.(check bool) "replay outcome" true (s.outcome = e.outcome);
  Alcotest.(check int) "replay activated" s.activated e.activated;
  Alcotest.(check int) "replay dyn" s.dyn_count e.dyn_count;
  Alcotest.(check string) "replay output" s.output e.output;
  Alcotest.(check bool) "replay first injection" true
    (Option.equal injection_equal s.first e.first)

(* ---- segments ---- *)

(* Code.run runs fault-free stretches a straight-line segment at a time
   and advances the counters at the segment's end; the cases below put
   every place where an exact counter is read inside a segment — a trap,
   the watchdog, a golden point, a Brent mark, a patched site, a flip
   of a multi-flip run — and compare every result field with the
   reference interpreter. *)

module B = Ir.Build

(* An event that stays pending but never fires inside these runs:
   segments still run, and keep [last_write] up to date. *)
let pending watch =
  {
    Vm.Code.watch;
    ev_cand = max_int - 1;
    ev_dyn = max_int - 1;
    handle = (fun ~dyn:_ ~cand:_ _ _ -> ());
  }

(* One module at one budget: the reference run, compared field for
   field with the compiled run with no events and with an event pending
   on each stream. *)
let same_runs ?(budget = Vm.Exec.golden_budget) label m =
  let p = Vm.Program.load m in
  let reference = Vm.Exec.run ~budget p in
  let code = Vm.Code.compile p in
  golden_equal label reference (Vm.Code.run ~budget code);
  List.iter
    (fun (name, watch) ->
      golden_equal
        (label ^ " (" ^ name ^ " event pending)")
        reference
        (Vm.Code.run ~events:(pending watch) ~budget code))
    [ ("read", `Read); ("write", `Write); ("dyn", `Dyn) ];
  reference

(* [work i] runs a call, then a straight-line stretch with read and
   write candidates and an output, then a uop that traps at i = 3 when
   [kind] is given, then more of the stretch.  [main] loops i over 0..5
   calling it, so the trap lies at a non-first uop of a segment that
   starts where a call returned, with counters from earlier iterations
   and the caller's frame outstanding. *)
let trap_program kind =
  let m = B.create () in
  B.global_zeros m "cell" 8;
  B.func m "id" ~params:[ I32 ] ~ret:(Some I32) (fun f ->
      B.ret f (Some (B.param f 0)));
  B.func m "work" ~params:[ I32 ] ~ret:(Some I32) (fun f ->
      let i = B.param f 0 in
      let a = B.call1 f "id" [ i ] in
      let b = B.add f I32 a (B.ci 5) in
      B.output f I32 b;
      let c = B.mul f I32 b (B.ci 3) in
      B.store f I32 ~value:c ~addr:(B.glob "cell");
      let at3 = B.cast f Zext ~from_ty:I1 ~to_ty:I32 (B.eq f I32 i (B.ci 3)) in
      let t =
        match kind with
        | None -> c
        | Some Vm.Trap.Segfault ->
            B.load f I32
              (B.gep f ~base:(B.glob "cell")
                 ~index:(B.mul f I32 at3 (B.ci 1_000_000))
                 ~scale:4)
        | Some Misaligned ->
            B.load f I32 (B.gep f ~base:(B.glob "cell") ~index:at3 ~scale:1)
        | Some Div_by_zero -> B.sdiv f I32 c (B.sub f I32 (B.ci 3) i)
        | Some Guard_violation ->
            B.guard f I32 at3 (B.ci 0);
            c
        | Some Abort_called ->
            B.if_then f (B.ne f I32 at3 (B.ci 0)) (fun () ->
                let d = B.add f I32 c (B.ci 1) in
                B.output f I32 d;
                B.abort_ f);
            c
        | Some (Stack_overflow | Ill_instr) -> assert false
      in
      let e = B.bxor f I32 t b in
      B.output f I32 e;
      B.ret f (Some (B.add f I32 e (B.ci 1))));
  B.func m "main" ~params:[] ~ret:None (fun f ->
      B.for_ f ~from_:(B.ci 0) ~below:(B.ci 6) (fun i ->
          B.output f I32 (B.call1 f "work" [ i ])));
  B.finish m

let test_segment_traps () =
  ignore (same_runs "no trap" (trap_program None) : Vm.Exec.result);
  List.iter
    (fun kind ->
      let label = Vm.Trap.to_string kind in
      let r = same_runs label (trap_program (Some kind)) in
      Alcotest.(check Thelpers.status_testable)
        (label ^ " traps") (Vm.Exec.Trapped kind) r.status)
    [ Segfault; Misaligned; Div_by_zero; Guard_violation; Abort_called ]

(* A loop whose body is one block of about 50 uops: the watchdog, swept
   over every budget up to past the golden length, lands in every
   position of a segment. *)
let test_segment_watchdog () =
  let m = B.create () in
  B.func m "main" ~params:[] ~ret:None (fun f ->
      let x = B.local_init f I32 (B.ci 1) in
      B.for_ f ~from_:(B.ci 0) ~below:(B.ci 4) (fun i ->
          for k = 1 to 12 do
            let y = B.add f I32 (B.r x) i in
            let z = B.mul f I32 y (B.ci (2 * k + 1)) in
            B.set f x (B.band f I32 z (B.ci 0xFFFFF))
          done;
          B.output f I32 (B.r x)));
  let m = B.finish m in
  let golden = same_runs "full" m in
  for budget = 0 to golden.dyn_count + 2 do
    ignore
      (same_runs ~budget (Printf.sprintf "budget %d" budget) m
        : Vm.Exec.result)
  done

(* Each site of a program with long blocks, patched on a fork by a flip
   of one of its first bits: eventless runs of the fork, whose segments
   cross the patched site, against the reference on the flipped image. *)
let test_segment_patched_sites () =
  let m = trap_program None in
  let p = Vm.Program.load m in
  let code = Vm.Code.compile p in
  let sites = Vm.Codeflip.sites p in
  let budget = 10 * (Vm.Exec.run ~budget:Vm.Exec.golden_budget p).dyn_count in
  let patched = ref 0 in
  for site = 0 to Vm.Codeflip.site_count sites - 1 do
    for bit = 0 to min 3 (Vm.Codeflip.site_bits sites site - 1) do
      let image = Vm.Codeflip.image p in
      match Vm.Codeflip.flip sites image ~site ~bit with
      | exception Vm.Trap.Trap _ -> ()
      | patch ->
          let fidx, bidx, idx = Vm.Codeflip.site_coords sites site in
          let fork = Vm.Code.fork code in
          Vm.Code.patch fork ~fidx ~bidx ~idx patch;
          incr patched;
          golden_equal
            (Printf.sprintf "site %d bit %d" site bit)
            (Vm.Exec.run ~budget image) (Vm.Code.run ~budget fork)
    done
  done;
  Alcotest.(check bool) "sites patched" true (!patched > 50)

(* Loops whose bodies are long straight-line blocks, checkpointed every
   few candidates so golden points fall inside segments.  [filler] only
   depends on the counter, so a counter that can no longer reach its
   bound repeats the state exactly: a Brent cycle whose marks fall
   inside segments too. *)
let segment_workload =
  lazy
    (let m = B.create () in
     B.global_zeros m "cell" 16;
     B.func m "main" ~params:[] ~ret:None (fun f ->
         let n = B.local_init f I32 (B.ci 12) in
         let i = B.local_init f I32 (B.ci 0) in
         let acc = B.local_init f I32 (B.ci 0) in
         B.while_ f
           ~cond:(fun () -> B.ne f I32 (B.r i) (B.r n))
           ~body:(fun () ->
             let y = ref (B.r i) in
             for k = 1 to 10 do
               y := B.bxor f I32 (B.mul f I32 !y (B.ci (2 * k + 1))) (B.ci k)
             done;
             B.store f I32 ~value:!y ~addr:(B.glob "cell");
             B.set f acc (B.add f I32 (B.r acc) (B.band f I32 !y (B.ci 1)));
             B.set f i (B.band f I32 (B.add f I32 (B.r i) (B.ci 1)) (B.ci 31)));
         B.output f I32 (B.r acc);
         B.output f I32 (B.load f I32 (B.glob "cell")));
     Suite_early_exit.with_checkpoint ~interval:3 true (fun () ->
         let w = Core.Workload.make ~name:"segments" (B.finish m) in
         ignore (Core.Workload.ensure_checkpoints w : Vm.Checkpoint.set option);
         w))

(* Experiments of [spec] with checkpoints on — restores, convergence
   compares and cycle snapshots — against the reference run of the same
   injector, on every result field and the injection log. *)
let check_reference w spec ~seed ~n =
  let base = Prng.of_seed seed in
  for i = 0 to n - 1 do
    let mk () =
      Core.Injector.create ~spec
        ~candidates:(Core.Workload.candidates w spec)
        (Prng.split_at base i)
    in
    let inj_r = mk () and inj_c = mk () in
    let reference = Thelpers.seed_run w inj_r in
    let compiled =
      Suite_early_exit.with_checkpoint ~interval:3 true (fun () ->
          Core.Experiment.run_raw ~checkpoint:true w inj_c)
    in
    let label = Printf.sprintf "%s #%d" (Core.Spec.label spec) i in
    golden_equal label reference compiled;
    Alcotest.(check bool)
      (label ^ " injection log") true
      (List.equal injection_equal
         (Core.Injector.injections inj_r)
         (Core.Injector.injections inj_c))
  done

let test_segment_exits () =
  let w = Lazy.force segment_workload in
  let (), converged, cycled =
    Thelpers.early_exits (fun () ->
        List.iter
          (fun spec -> check_reference w spec ~seed:31L ~n:60)
          [
            Core.Spec.single Read;
            Core.Spec.single Write;
            Core.Spec.single ~domain:Mem Write;
            Core.Spec.single ~domain:Code Write;
            Core.Spec.multi ~domain:Code Read ~max_mbf:3 ~win:(Fixed 7);
          ])
  in
  Alcotest.(check bool) "convergence exits > 0" true (converged > 0);
  Alcotest.(check bool) "cycle exits > 0" true (cycled > 0)

(* m = 30: the events re-arm between flips, so runs switch between
   segments and per-instruction stretches up to 30 times. *)
let test_segment_multi_flip () =
  let w = Lazy.force workload in
  let base = Prng.of_seed 3030L in
  List.iter
    (fun spec ->
      for i = 0 to 9 do
        check_experiment w spec ~spacing:`Faulty ~base i
      done)
    [
      Core.Spec.multi Read ~max_mbf:30 ~win:(Fixed 1);
      Core.Spec.multi Write ~max_mbf:30 ~win:(Fixed 7);
      Core.Spec.multi Read ~max_mbf:30 ~win:(Rnd (1, 200));
    ];
  let sw = Lazy.force segment_workload in
  List.iter
    (fun spec -> check_reference sw spec ~seed:17L ~n:20)
    [
      Core.Spec.multi Write ~max_mbf:30 ~win:(Fixed 3);
      Core.Spec.multi ~domain:Mem Write ~max_mbf:30 ~win:(Fixed 5);
      Core.Spec.multi ~domain:Code Write ~max_mbf:30 ~win:(Rnd (1, 40));
    ]

(* Random programs at random budgets: straight-line programs whose
   divisions may trap (the evaluator-mirroring generator, unsanitised),
   and loop programs with calls, memory and inner loops. *)
let prop_segment_budgets =
  QCheck.Test.make ~name:"segments match the reference at any budget"
    ~count:300
    (QCheck.make
       QCheck.Gen.(
         triple Suite_differential.case_gen Suite_early_exit.loop_case_gen
           (float_bound_inclusive 1.2)))
    (fun ((ops, seeds), loop_case, frac) ->
      let seeds = if seeds = [] then [ 1L ] else seeds in
      List.for_all
        (fun m ->
          let p = Vm.Program.load m in
          let full = Vm.Exec.run ~budget:Vm.Exec.golden_budget p in
          let budget = int_of_float (frac *. float_of_int full.dyn_count) in
          let reference = Vm.Exec.run ~budget p in
          let code = Vm.Code.compile p in
          let same (r : Vm.Exec.result) =
            r.status = reference.status
            && String.equal r.output reference.output
            && r.dyn_count = reference.dyn_count
            && r.read_cands = reference.read_cands
            && r.write_cands = reference.write_cands
          in
          same (Vm.Code.run ~budget code)
          && same (Vm.Code.run ~events:(pending `Read) ~budget code))
        [
          Suite_differential.build_program ops seeds;
          Suite_early_exit.build_loop_program loop_case;
        ])

(* ---- decode cache ---- *)

let test_decode_cache () =
  let d = Option.get (Bench_suite.Registry.find "fft") in
  let m = d.build () in
  let digest = Digest.to_hex (Digest.string (Ir.Pp.modl m)) in
  let decodes = ("onebit_vm_decodes_total", [])
  and hits = ("onebit_vm_decode_cache_hits_total", []) in
  let (c1, c2), delta =
    Thelpers.counter_deltas [ decodes; hits ] (fun () ->
        let c1 = Vm.Code.compile ~digest (Vm.Program.load m) in
        (c1, Vm.Code.compile ~digest (Vm.Program.load (d.build ()))))
  in
  Alcotest.(check bool) "cache returns same code" true (c1 == c2);
  Alcotest.(check bool) "at most one decode" true (delta decodes <= 1);
  Alcotest.(check bool) "at least one hit" true (delta hits >= 1);
  (* uncached compiles always decode *)
  let p = Vm.Program.load m in
  let (), delta =
    Thelpers.counter_deltas [ decodes ] (fun () ->
        ignore (Vm.Code.compile p : Vm.Code.t);
        ignore (Vm.Code.compile p : Vm.Code.t))
  in
  Alcotest.(check int) "uncached compiles decode" 2 (delta decodes)

let suites =
  [
    ( "vm_code",
      [
        Alcotest.test_case "registry golden differential" `Quick
          test_registry_golden;
        Alcotest.test_case "packed site tables" `Quick test_site_tables;
        QCheck_alcotest.to_alcotest prop_random_programs;
        Alcotest.test_case "experiment differential" `Quick
          test_experiments_differential;
        Alcotest.test_case "campaign differential" `Quick
          test_campaign_differential;
        Alcotest.test_case "pipeline CLI cells: reference vs engine" `Quick
          test_pipeline_cells;
        Alcotest.test_case "decode cache" `Quick test_decode_cache;
        Alcotest.test_case "segments: traps inside a segment" `Quick
          test_segment_traps;
        Alcotest.test_case "segments: watchdog at every budget" `Quick
          test_segment_watchdog;
        Alcotest.test_case "segments: patched sites" `Quick
          test_segment_patched_sites;
        Alcotest.test_case "segments: golden points and Brent marks" `Quick
          test_segment_exits;
        Alcotest.test_case "segments: m = 30 multi-flip runs" `Quick
          test_segment_multi_flip;
        QCheck_alcotest.to_alcotest prop_segment_budgets;
      ] );
  ]
