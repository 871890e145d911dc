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

(* ---- decode cache ---- *)

let test_decode_cache () =
  let d = Option.get (Bench_suite.Registry.find "fft") in
  let m = d.build () in
  let digest = Digest.to_hex (Digest.string (Ir.Pp.modl m)) in
  let decodes0, hits0 = Vm.Code.cache_stats () in
  let c1 = Vm.Code.compile ~digest (Vm.Program.load m) in
  let c2 = Vm.Code.compile ~digest (Vm.Program.load (d.build ())) in
  let decodes1, hits1 = Vm.Code.cache_stats () in
  Alcotest.(check bool) "cache returns same code" true (c1 == c2);
  Alcotest.(check bool) "at most one decode" true (decodes1 <= decodes0 + 1);
  Alcotest.(check bool) "at least one hit" true (hits1 >= hits0 + 1);
  (* uncached compiles always decode *)
  let p = Vm.Program.load m in
  let _ = Vm.Code.compile p and _ = Vm.Code.compile p in
  let decodes2, _ = Vm.Code.cache_stats () in
  Alcotest.(check int) "uncached compiles decode" (decodes1 + 2) decodes2

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
      ] );
  ]
