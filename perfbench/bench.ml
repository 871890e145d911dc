(* Campaign benchmark for onebit.

   Runs one named workload through the public campaign path
   ([Core.Workload.make], [Core.Workload.ensure_checkpoints],
   [Engine.run_campaign]) and writes what it measured as one JSON object.
   [run.py] builds this program, runs it and turns the measurements into
   the benchmark's metrics; README.md describes both.

   Subcommands:
     setup  --workload W
         one fresh set-up of every program of W; prints its seconds
     run    --workload W --seed S --seconds T --trace 0|1
            --digests DIR --out FILE
         untraced (trace 0) or traced (trace 1) measurement
     record --workload W --seed S --digests DIR
         write the reference digests of W's cells for seed S

   Every cell's result is checked outside the timed region against its
   reference: a recorded digest of its CSV row when DIR holds one for the
   seed, else an untimed jobs=1 [Core.Campaign.run] of the cell.

   Timed passes run at jobs=1.  On a 2-vCPU host, identical jobs=2
   passes of paper-grid ranged from 2.4 s to 8.2 s, at times slower than
   jobs=1, so a jobs=nproc figure cannot hold a bound.  The engine at
   jobs=nproc is measured by one traced pass instead. *)

let now = Unix.gettimeofday

(* ---- workloads ---- *)

type workload = {
  wname : string;
  programs : string list;
  specs : Core.Spec.t list;  (* every program runs every spec *)
  copies : int;
      (* campaigns per (program, spec), each with its own seed: short
         campaigns keep each calibrated stretch short (see [clock]) *)
  n : int;  (* experiments per campaign *)
}

let nproc = Domain.recommended_domain_count ()

let workloads =
  let open Core in
  [
    (* The paper's 182-campaign plan on short programs: many small
       campaigns, so per-campaign dispatch, restore and multi-flip
       scheduling dominate. *)
    {
      wname = "paper-grid";
      programs = [ "qsort"; "fft"; "sha"; "crc32"; "bfs" ];
      specs = Table1.all_specs;
      copies = 2;
      n = 50;
    };
    (* Long Benign suffixes on the largest image, single-threaded. *)
    {
      wname = "benign-tail";
      programs = [ "nn-large" ];
      specs =
        [
          Spec.single Technique.Read;
          Spec.single Technique.Write;
          Spec.single ~domain:Domain.Mem Technique.Read;
        ];
      copies = 45;
      n = 10;
    };
    (* Code-domain flips: the hang tail and per-experiment code forks. *)
    {
      wname = "code-hang";
      programs = [ "dijkstra"; "crc32"; "stringsearch"; "sha" ];
      specs = [ Spec.single ~domain:Domain.Code Technique.Read ];
      copies = 30;
      n = 100;
    };
  ]

let find_workload name =
  match List.find_opt (fun w -> w.wname = name) workloads with
  | Some w -> w
  | None -> failwith ("unknown workload " ^ name)

type cell = {
  prog : string;
  spec : Core.Spec.t;
  seed : int64;
  key : string;  (* "<program>\t<spec label>\t<copy>" *)
}

(* Cell [i]'s campaign seed is drawn from the i-th split of the
   benchmark seed, so one seed fixes every input of the workload. *)
let cells wl ~seed =
  let base = Prng.of_seed seed in
  let copies = List.init wl.copies Fun.id in
  List.concat_map
    (fun p -> List.concat_map (fun s -> List.map (fun k -> (p, s, k)) copies) wl.specs)
    wl.programs
  |> List.mapi (fun i (prog, spec, k) ->
         {
           prog;
           spec;
           seed = Prng.next_int64 (Prng.split_at base i);
           key = Printf.sprintf "%s\t%s\t%d" prog (Core.Spec.label spec) k;
         })
  |> Array.of_list

let desc name =
  match Bench_suite.Registry.find name with
  | Some d -> d
  | None -> failwith ("unknown program " ^ name)

(* ---- set-up ---- *)

let setup wl =
  List.map
    (fun name ->
      let w = Core.Workload.make ~name ((desc name).build ()) in
      ignore (Core.Workload.ensure_checkpoints w);
      (name, w))
    wl.programs

(* The same set-up, timed per layer: IR build, decode (load + compile,
   keyed by the IR digest so [Workload.make] reuses it), the golden run
   inside [Workload.make], and checkpoint recording. *)
let traced_setup wl =
  let acc = Array.make 4 0.0 in
  let timed k f =
    let t0 = now () in
    let r = f () in
    acc.(k) <- acc.(k) +. (now () -. t0);
    r
  in
  let ws =
    List.map
      (fun name ->
        let m = timed 0 (desc name).build in
        timed 1 (fun () ->
            let prog = Vm.Program.load m in
            ignore (Vm.Code.compile ~digest:(Ir.Fingerprint.modl m) prog));
        let w = timed 2 (fun () -> Core.Workload.make ~name m) in
        timed 3 (fun () -> ignore (Core.Workload.ensure_checkpoints w));
        (name, w))
      wl.programs
  in
  (ws, acc)

(* ---- references and checks ---- *)

(* A cell's recorded digest: the first 8 hex digits of the md5 of its
   CSV row, enough to catch any change while keeping a 1820-cell file at
   16 KB. *)
let row_digest r = String.sub (Digest.to_hex (Digest.string (Core.Csv.row r))) 0 8

(* The first line of a digest file names the cell layout it was recorded
   for, so a file left over from another layout is refused. *)
let layout cells =
  let keys = Array.to_list (Array.map (fun c -> c.key) cells) in
  "# " ^ Digest.to_hex (Digest.string (String.concat "\n" keys))

let digest_file dir wl seed =
  Filename.concat dir (Printf.sprintf "%s.%Ld.txt" wl.wname seed)

type reference = Recorded of string | Computed of Core.Campaign.result | Broken of string

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let load_digests path cells =
  match read_lines path with
  | first :: digests
    when first = layout cells && List.length digests = Array.length cells ->
      Array.of_list (List.map (fun d -> Recorded d) digests)
  | _ -> failwith (path ^ ": recorded for another cell layout")

let compute_reference ws wl c =
  match Core.Campaign.run (List.assoc c.prog ws) c.spec ~n:wl.n ~seed:c.seed with
  | r -> Computed r
  | exception e -> Broken (Printexc.to_string e)

let references ~dir ws wl ~seed cells =
  let path = digest_file dir wl seed in
  if Sys.file_exists path then (load_digests path cells, true)
  else (Array.map (compute_reference ws wl) cells, false)

type outcome = (Core.Campaign.result, string) result

let matches reference (got : outcome) =
  match (reference, got) with
  | Recorded d, Ok r -> String.equal d (row_digest r)
  | Computed x, Ok r -> Core.Campaign.equal_result x r
  | Broken _, _ | _, Error _ -> false

(* Running tally of checks; the first few failures are kept for the
   report. *)
type checks = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;
}

let check ck ok note =
  ck.attempted <- ck.attempted + 1;
  if not ok then begin
    ck.failed <- ck.failed + 1;
    if List.length ck.notes < 10 then ck.notes <- note () :: ck.notes
  end

(* Each program's golden output must equal its native reference. *)
let check_golden ck ws =
  List.iter
    (fun (name, (w : Core.Workload.t)) ->
      check ck
        (String.equal w.golden.Vm.Exec.output ((desc name).reference ()))
        (fun () -> name ^ ": golden output differs from the reference"))
    ws

(* Every pass's results must equal the first pass's, and the first
   pass's must equal the references, checked only after all timing so
   that computing a reference neither delays the passes nor adds to
   their peak memory. *)
type verifier = { ck : checks; vcells : cell array; mutable first : outcome array option }

let describe c got what =
  match got with
  | Error e -> c.key ^ ": raised " ^ e
  | Ok _ -> c.key ^ ": result differs from " ^ what

let verify v results =
  match v.first with
  | None -> v.first <- Some results
  | Some r0 ->
      Array.iteri
        (fun i got ->
          check v.ck
            (match (r0.(i), got) with
            | Ok a, Ok b -> Core.Campaign.equal_result a b
            | _ -> false)
            (fun () -> describe v.vcells.(i) got "the first pass"))
        results

let verify_references v refs =
  Array.iteri
    (fun i got ->
      check v.ck (matches refs.(i) got) (fun () ->
          describe v.vcells.(i) got "the reference"))
    (Option.get v.first)

(* ---- host-speed calibration ---- *)

(* On the shared 2-vCPU host this benchmark was built on, the same code
   ran up to 1.7x slower at some times than at others, in phases of
   seconds to minutes, with no steal time recorded: CPU time slowed as
   much as wall time, so no choice of clock or of samples within a run
   could hide it.  Every timed interval is therefore also reported
   normalised by calibration kernels timed right before and right after
   it.  The kernels call nothing of onebit, so no change to the program
   can change their time.  A normalised time is the measured time times
   [cal_ref_s] over the mean of the two calibrations around it: what the
   work would take on a host where a calibration takes [cal_ref_s],
   about its fastest time on the host above.

   A calibration is the geometric mean of two kernels that a slow phase
   slows differently: a loop of loads, stores and branches over a 32 KB
   buffer, and an interpreter that dispatches on variant tags fetched
   from an array, as [Vm.Code] does.  Within single runs of code-hang,
   benign-tail and paper-grid, pass times normalised by the first alone
   stayed within +-8%, +-5% and +-6% of their mean, by the second alone
   within +-3%, +-7% and +-5%, and by the geometric mean within +-5%,
   +-2.4% and +-2%, while the measured ones moved by +-3%, +-20% and
   +-17%. *)
let cal_ref_s = 5e-4

let cal_buf = Bytes.make 32768 '\000'

let memory_kernel () =
  let acc = ref 0 in
  for i = 0 to 160_000 do
    let a = (i * 40503) land 0x7fff in
    let v = Bytes.get_uint8 cal_buf a in
    (match i land 3 with
    | 0 -> acc := !acc + v
    | 1 -> acc := !acc lxor (v lsl 3)
    | 2 -> acc := !acc - (v * 7)
    | _ -> acc := (!acc lsr 1) + v);
    Bytes.set_uint8 cal_buf ((a + v + 1) land 0x7fff) ((v + !acc) land 0xff)
  done;
  ignore (Sys.opaque_identity !acc)

type kop =
  | Kadd of int * int * int
  | Kxor of int * int * int
  | Kmul of int * int * int
  | Kload of int * int
  | Kstore of int * int
  | Kbranch of int * int  (* if the register is odd, jump forward *)

(* A fixed 256-op program; branches jump 1-16 ops forward, wrapping. *)
let kprog =
  let st = Random.State.make [| 7 |] in
  let r () = Random.State.int st 16 in
  Array.init 256 (fun i ->
      match Random.State.int st 6 with
      | 0 -> Kadd (r (), r (), r ())
      | 1 -> Kxor (r (), r (), r ())
      | 2 -> Kmul (r (), r (), r ())
      | 3 -> Kload (r (), r ())
      | 4 -> Kstore (r (), r ())
      | _ -> Kbranch (r (), (i + 1 + Random.State.int st 16) land 255))

let dispatch_kernel () =
  let regs = Array.init 16 (fun i -> (i * 7919) + 1) in
  let pc = ref 0 in
  for _ = 1 to 100_000 do
    let i = !pc in
    let next = (i + 1) land 255 in
    pc :=
      match Array.unsafe_get kprog i with
      | Kadd (d, a, b) -> regs.(d) <- regs.(a) + regs.(b) + 1; next
      | Kxor (d, a, b) -> regs.(d) <- regs.(a) lxor (regs.(b) lsr 1); next
      | Kmul (d, a, b) -> regs.(d) <- regs.(a) * regs.(b) land 0xffffffff; next
      | Kload (d, a) ->
          regs.(d) <- regs.(d) + Bytes.get_uint8 cal_buf (regs.(a) land 0x7fff);
          next
      | Kstore (a, b) ->
          Bytes.set_uint8 cal_buf (regs.(a) land 0x7fff) (regs.(b) land 0xff);
          next
      | Kbranch (r, target) -> if regs.(r) land 1 = 1 then target else next
  done;
  ignore (Sys.opaque_identity regs)

(* Each kernel's fastest of three runs, so that one interrupt does not
   count as a slow phase. *)
let fastest kernel =
  let run () =
    let t = now () in
    kernel ();
    now () -. t
  in
  Float.min (run ()) (Float.min (run ()) (run ()))

let calibrate () = Float.sqrt (fastest memory_kernel *. fastest dispatch_kernel)

(* Timed intervals, each measured and normalised.  Intervals are summed
   into segments; a calibration closes a segment once it holds
   [cal_every_s] of measured time, and at [stop]. *)
let cal_every_s = 0.1

type clock = {
  raw : float array;  (* per interval: measured seconds *)
  norm : float array;  (* normalised seconds, once its segment is closed *)
  mutable first_open : int;  (* the open segment's first interval *)
  mutable seg : float;  (* the open segment's measured seconds *)
  mutable cal : float;  (* the calibration that opened it *)
}

let clock n =
  {
    raw = Array.make n 0.0;
    norm = Array.make n 0.0;
    first_open = 0;
    seg = 0.0;
    cal = calibrate ();
  }

let close k upto =
  let c = calibrate () in
  let f = cal_ref_s /. ((k.cal +. c) /. 2.0) in
  for i = k.first_open to upto - 1 do
    k.norm.(i) <- k.raw.(i) *. f
  done;
  k.first_open <- upto;
  k.seg <- 0.0;
  k.cal <- c

(* Times [f] as interval [i]; intervals are timed in order. *)
let timed k i f =
  let t = now () in
  let r = f () in
  k.raw.(i) <- now () -. t;
  k.seg <- k.seg +. k.raw.(i);
  if k.seg >= cal_every_s then close k (i + 1);
  r

let stop k = if k.first_open < Array.length k.raw then close k (Array.length k.raw)

let sum = Array.fold_left ( +. ) 0.0

(* ---- the campaign phase ---- *)

(* One pass over the workload's cells: each cell's result, the pass's
   measured campaign-phase time, and each cell's normalised time. *)
let pass ?(jobs = 1) ws wl cells =
  let k = clock (Array.length cells) in
  let results =
    Array.mapi
      (fun i c ->
        timed k i (fun () ->
            match
              Engine.run_campaign ~jobs (List.assoc c.prog ws) c.spec ~n:wl.n
                ~seed:c.seed
            with
            | r -> Ok r
            | exception e -> Error (Printexc.to_string e)))
      cells
  in
  stop k;
  (results, sum k.raw, k.norm)

(* Repeat whole passes until [seconds] have gone and at least [min]
   passes ran; [f] runs one pass and returns its campaign-phase time. *)
let repeat ~seconds ~min f =
  let t0 = now () in
  let rec go acc k =
    if k >= min && now () -. t0 >= seconds then List.rev acc
    else go (f () :: acc) (k + 1)
  in
  go [] 0

(* ---- Obs read-outs ---- *)

(* Every series of the default registry summed over its labels:
   counters and gauges by name, histograms as "<name>_count" and
   "<name>_sum". *)
let obs_totals () =
  let tbl = Hashtbl.create 64 in
  let add k v =
    let old = Option.value ~default:0.0 (Hashtbl.find_opt tbl k) in
    Hashtbl.replace tbl k (old +. v)
  in
  List.iter
    (fun (s : Obs.Metrics.sample) ->
      match s.value with
      | Obs.Metrics.Counter c -> add s.name (float_of_int c)
      | Obs.Metrics.Gauge g -> add s.name g
      | Obs.Metrics.Histogram h ->
          add (s.name ^ "_count") (float_of_int (Obs.Metrics.hvalue_total h));
          add (s.name ^ "_sum") h.sum)
    (Obs.Metrics.snapshot ());
  tbl

let delta before after k =
  let get t = Option.value ~default:0.0 (Hashtbl.find_opt t k) in
  get after -. get before

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Logical instructions (whole-run dyn counts) and instructions skipped
   by checkpoint restores, for one experiment's delta. *)
let instr_counters () =
  let logical =
    match Obs.Metrics.find "onebit_vm_instructions_total" with
    | Some (Obs.Metrics.Counter c) -> float_of_int c
    | _ -> 0.0
  in
  let skipped =
    match Obs.Metrics.find "onebit_vm_checkpoint_restore_distance" with
    | Some (Obs.Metrics.Histogram h) -> h.sum
    | _ -> 0.0
  in
  (logical, skipped)

(* ---- per-experiment split ---- *)

let outcomes = [| "benign"; "sdc"; "hang"; "detected"; "no_output" |]

let outcome_index = function
  | Core.Outcome.Benign -> 0
  | Core.Outcome.Sdc -> 1
  | Core.Outcome.Hang -> 2
  | Core.Outcome.Detected _ -> 3
  | Core.Outcome.No_output -> 4

let result_counts (r : Core.Campaign.result) =
  [| r.benign; r.sdc; r.hang; r.detected; r.no_output |]

type per_exp = {
  times : float list array;  (* per outcome: whole-experiment seconds *)
  executed : float array;  (* per outcome: executed instructions *)
  mutable setup_s : float;
  mutable run_s : float;
  mutable classify_s : float;
  mutable exps : int;
}

(* Every experiment of every cell at jobs=1, with
   [Workload.candidates] + [Injector.create], [Experiment.run_raw] and
   [Experiment.conclude] timed separately.  Experiment [i] of a cell
   uses [Prng.split_at base i], as [Core.Campaign] does, so each cell's
   outcome tally must equal its campaign counts. *)
let per_experiment ck ws wl cells (campaign : outcome array) =
  let pe =
    {
      times = Array.make 5 [];
      executed = Array.make 5 0.0;
      setup_s = 0.0;
      run_s = 0.0;
      classify_s = 0.0;
      exps = 0;
    }
  in
  Array.iteri
    (fun ci c ->
      let w = List.assoc c.prog ws in
      let base = Prng.of_seed c.seed in
      let tally = Array.make 5 0 in
      for i = 0 to wl.n - 1 do
        let l0, s0 = instr_counters () in
        let t0 = now () in
        let candidates = Core.Workload.candidates w c.spec in
        let inj = Core.Injector.create ~spec:c.spec ~candidates (Prng.split_at base i) in
        let t1 = now () in
        let res = Core.Experiment.run_raw w inj in
        let t2 = now () in
        let e = Core.Experiment.conclude w inj res in
        let t3 = now () in
        let l1, s1 = instr_counters () in
        let o = outcome_index e.outcome in
        tally.(o) <- tally.(o) + 1;
        pe.times.(o) <- (t3 -. t0) :: pe.times.(o);
        pe.executed.(o) <- pe.executed.(o) +. (l1 -. l0) -. (s1 -. s0);
        pe.setup_s <- pe.setup_s +. (t1 -. t0);
        pe.run_s <- pe.run_s +. (t2 -. t1);
        pe.classify_s <- pe.classify_s +. (t3 -. t2);
        pe.exps <- pe.exps + 1
      done;
      check ck
        (match campaign.(ci) with Ok r -> result_counts r = tally | Error _ -> false)
        (fun () -> c.key ^ ": per-experiment tally differs from the campaign counts"))
    cells;
  pe

(* Nearest-rank percentile of an ascending array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let k = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(max 1 (min n k) - 1)

(* The highest percentile with at least ten samples beyond it, or (0, 0)
   when there are too few samples for any. *)
let tail sorted =
  let n = Array.length sorted in
  let beyond p = n - int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  let candidates = [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ] in
  match List.find_opt (fun p -> beyond p >= 10) candidates with
  | Some p -> (p, percentile sorted p)
  | None -> (0.0, 0.0)

let per_exp_metrics pe =
  let total = Array.fold_left (fun a l -> List.fold_left ( +. ) a l) 0.0 pe.times in
  let us s = s *. 1e6 in
  let per_outcome =
    List.concat
      (List.mapi
         (fun o name ->
           let sorted = Array.of_list pe.times.(o) in
           Array.sort compare sorted;
           let pct, t = tail sorted in
           [
             ("core.exps." ^ name, float_of_int (Array.length sorted));
             ("core.time_share." ^ name, ratio (Array.fold_left ( +. ) 0.0 sorted) total);
             ("core.exp_p50_us." ^ name, us (percentile sorted 50.0));
             ("core.exp_tail_us." ^ name, us t);
             ("core.exp_tail_pct." ^ name, pct);
           ])
         (Array.to_list outcomes))
  in
  let executed = Array.fold_left ( +. ) 0.0 pe.executed in
  let exps = float_of_int pe.exps in
  [
    ("core.inject_setup_us", us (ratio pe.setup_s exps));
    ("vm.run_us", us (ratio pe.run_s exps));
    ("core.classify_us", us (ratio pe.classify_s exps));
    ("vm.hang_instr_share", ratio pe.executed.(outcome_index Core.Outcome.Hang) executed);
    ("vm.minstr_per_s", ratio executed pe.run_s /. 1e6);
  ]
  @ per_outcome

(* ---- traced campaign pass ---- *)

(* Counters that do not depend on scheduling: every traced pass of a run
   must reproduce the first pass's values exactly. *)
let exact_counters =
  [
    "vm.instructions";
    "vm.pages_restored";
    "vm.restores_full";
    "vm.hangs";
    "core.batch_groups";
  ]

let same_counters ck m0 m1 what =
  List.iter
    (fun k ->
      check ck
        (List.assoc k m0 = List.assoc k m1)
        (fun () -> k ^ " differs between " ^ what))
    exact_counters

let traced_pass ?(jobs = 1) ws wl cells =
  let b = obs_totals () and g0 = Gc.quick_stat () in
  let results, wall, norm = pass ~jobs ws wl cells in
  let norm = sum norm in
  let a = obs_totals () and g1 = Gc.quick_stat () in
  let d = delta b a in
  let exps = float_of_int (wl.n * Array.length cells) in
  let logical = d "onebit_vm_instructions_total" in
  let executed = logical -. d "onebit_vm_checkpoint_restore_distance_sum" in
  let busy = d "onebit_engine_worker_busy_seconds" in
  let idle = d "onebit_engine_worker_idle_seconds" in
  let campaigns = float_of_int (Array.length cells) in
  let scheduled =
    Array.fold_left
      (fun acc c -> acc +. float_of_int (wl.n * c.spec.Core.Spec.max_mbf))
      0.0 cells
  in
  let metrics =
    [
      ("vm.instructions", executed);
      ("vm.instructions_per_exp", ratio executed exps);
      ("vm.executed_over_logical", ratio executed logical);
      ("vm.hangs", d "onebit_vm_hangs_total");
      ("vm.checkpoint_hits", d "onebit_vm_checkpoint_hits_total");
      ( "vm.restore_distance_mean",
        ratio
          (d "onebit_vm_checkpoint_restore_distance_sum")
          (d "onebit_vm_checkpoint_restore_distance_count") );
      ("vm.pages_restored", d "onebit_vm_checkpoint_pages_restored_total");
      ("vm.restores_full", d "onebit_vm_restores_full_total");
      ("vm.resets_undo", d "onebit_vm_resets_undo_total");
      ("vm.dirty_pages_reset", d "onebit_vm_dirty_pages_reset_total");
      ("core.batch_groups", d "onebit_batch_groups_total");
      ( "core.batch_mean_group",
        ratio (d "onebit_batch_experiments_total") (d "onebit_batch_groups_total") );
      ("core.activation_ratio", ratio (d "onebit_injector_activations_total") scheduled);
      ("engine.campaigns", campaigns);
      ("engine.tasks", d "onebit_engine_tasks_total");
      ("engine.steals", d "onebit_engine_steals_total");
      ("engine.busy_share", ratio busy (busy +. idle));
      ( "engine.overhead_ms_per_campaign",
        1e3 *. ratio (wall -. (busy /. float_of_int jobs)) campaigns );
      ("gc.minor_words_per_exp", ratio (g1.minor_words -. g0.minor_words) exps);
      ("gc.promoted_words_per_exp", ratio (g1.promoted_words -. g0.promoted_words) exps);
      ( "gc.major_collections",
        float_of_int (g1.major_collections - g0.major_collections) );
    ]
  in
  (results, wall, norm, metrics)

(* ---- output ---- *)

type json =
  | Num of float
  | Int of int
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let json_string b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | ('"' | '\\') as c -> Buffer.add_char b '\\'; Buffer.add_char b c
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let rec emit b = function
  | Num f ->
      Buffer.add_string b
        (if Float.is_finite f then Printf.sprintf "%.17g" f else "null")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Str s -> json_string b s
  | Arr l ->
      Buffer.add_char b '[';
      List.iteri (fun i j -> if i > 0 then Buffer.add_char b ','; emit b j) l;
      Buffer.add_char b ']'
  | Obj l ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, j) ->
          if i > 0 then Buffer.add_char b ',';
          json_string b k;
          Buffer.add_char b ':';
          emit b j)
        l;
      Buffer.add_char b '}'

let write_json path j =
  let b = Buffer.create 4096 in
  emit b j;
  Buffer.add_char b '\n';
  Out_channel.with_open_text path (fun oc -> Buffer.output_buffer oc b)

(* Peak resident set of this process, from /proc. *)
let peak_rss_mb () =
  read_lines "/proc/self/status"
  |> List.find_map (fun l ->
         Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0))
  |> Option.value ~default:0.0

let floats l = Arr (List.map (fun f -> Num f) l)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ---- subcommands ---- *)

(* The set-up's measured and normalised seconds. *)
let timed_setup wl =
  let k = clock 1 in
  let ws = timed k 0 (fun () -> setup wl) in
  stop k;
  (ws, (k.raw.(0), k.norm.(0)))

let cmd_setup wl =
  let _, (raw, norm) = timed_setup wl in
  Printf.printf "%.17g %.17g\n" raw norm

let cmd_record wl ~seed ~dir =
  let ws = setup wl in
  let cells = cells wl ~seed in
  let lines =
    Array.map
      (fun c ->
        match compute_reference ws wl c with
        | Computed r -> row_digest r
        | Recorded _ | Broken _ -> failwith (c.key ^ ": reference run failed"))
      cells
  in
  Out_channel.with_open_text (digest_file dir wl seed) (fun oc ->
      output_string oc (layout cells ^ "\n");
      Array.iter (fun l -> output_string oc (l ^ "\n")) lines)

let common wl ~seed ck ws setup_s =
  check_golden ck ws;
  let cells = cells wl ~seed in
  [
    ("workload", Str wl.wname);
    ("seed", Str (Int64.to_string seed));
    ("jobs", Int 1);
    ("engine_jobs", Int nproc);
    ("nproc", Int nproc);
    ("ocaml", Str Sys.ocaml_version);
    ("cells", Int (Array.length cells));
    ("exps_per_pass", Int (wl.n * Array.length cells));
    ("setup_s", Num setup_s);
  ],
  cells

let finish ck fields =
  Obj
    (fields
    @ [
        ("attempted", Int ck.attempted);
        ("failed", Int ck.failed);
        ("failures", Arr (List.rev_map (fun s -> Str s) ck.notes));
      ])

(* Passes repeat for [seconds], at least three.  The campaign-phase time
   is the sum over cells of each cell's median normalised time: a slow
   phase the calibration misjudges then counts only if it hits a cell
   in half of the passes. *)
let cmd_run wl ~seed ~seconds ~dir =
  let ck = { attempted = 0; failed = 0; notes = [] } in
  let ws, (setup_s, _) = timed_setup wl in
  let fields, cells = common wl ~seed ck ws setup_s in
  let v = { ck; vcells = cells; first = None } in
  let times =
    repeat ~seconds ~min:3 (fun () ->
        let results, raw, norm = pass ws wl cells in
        verify v results;
        (raw, norm))
  in
  let peak = peak_rss_mb () in
  let refs, recorded = references ~dir ws wl ~seed cells in
  verify_references v refs;
  let cell_median i = median (List.map (fun (_, norm) -> norm.(i)) times) in
  finish ck
    (fields
    @ [
        ("recorded_reference", Int (Bool.to_int recorded));
        ("campaign_s", floats (List.map fst times));
        ("campaign_norm_s", floats (List.map (fun (_, norm) -> sum norm) times));
        ("campaign_cell_median_s", Num (sum (Array.init (Array.length cells) cell_median)));
        ("peak_rss_mb", Num peak);
      ])

let cmd_trace wl ~seed ~seconds ~dir =
  let ck = { attempted = 0; failed = 0; notes = [] } in
  Obs.set_enabled true;
  let t0 = now () in
  let b = obs_totals () in
  let ws, layer = traced_setup wl in
  let setup_s = now () -. t0 in
  let a = obs_totals () in
  let setup_metrics =
    [
      ("ir.build_s", layer.(0));
      ("vm.decode_s", layer.(1));
      ("vm.golden_s", layer.(2));
      ("vm.checkpoint_record_s", layer.(3));
      ("vm.checkpoint_points", delta b a "onebit_vm_checkpoints_total");
      ("vm.checkpoint_pages_saved", delta b a "onebit_vm_checkpoint_pages_saved_total");
    ]
  in
  let fields, cells = common wl ~seed ck ws setup_s in
  let v = { ck; vcells = cells; first = None } in
  (* Untraced and traced passes alternate, so drift on the host hits
     both sides of trace.overhead alike. *)
  let m0 = ref [] in
  let pairs =
    repeat ~seconds ~min:2 (fun () ->
        Obs.set_enabled false;
        let results, _, untraced = pass ws wl cells in
        let untraced = sum untraced in
        verify v results;
        Obs.set_enabled true;
        let results, _, traced, metrics = traced_pass ws wl cells in
        verify v results;
        if !m0 = [] then m0 := metrics
        else same_counters ck !m0 metrics "two traced passes";
        (untraced, traced))
  in
  let untraced = List.map fst pairs and traced = List.map snd pairs in
  (* The engine layer at jobs=nproc, from one more traced pass; its
     scheduling-independent counters must equal the jobs=1 ones. *)
  let results, _, par_norm, par = traced_pass ~jobs:nproc ws wl cells in
  verify v results;
  same_counters ck !m0 par "the jobs=1 and jobs=nproc passes";
  let engine (k, _) = String.starts_with ~prefix:"engine." k in
  let pass_metrics =
    List.filter (fun m -> not (engine m)) !m0
    @ List.filter engine par
    @ [ ("engine.speedup", median traced /. par_norm) ]
  in
  let pe = per_experiment ck ws wl cells (Option.get v.first) in
  let refs, recorded = references ~dir ws wl ~seed cells in
  verify_references v refs;
  let metrics =
    setup_metrics @ pass_metrics @ per_exp_metrics pe
    @ [
        ("trace.overhead", (median traced /. median untraced) -. 1.0);
        ("failed_frac", ratio (float_of_int ck.failed) (float_of_int ck.attempted));
      ]
  in
  finish ck
    (fields
    @ [
        ("recorded_reference", Int (Bool.to_int recorded));
        ("untraced_s", floats untraced);
        ("traced_s", floats traced);
        ("metrics", Obj (List.map (fun (k, v) -> (k, Num v)) metrics));
      ])

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | a :: _ -> failwith ("bad argument " ^ a)
  in
  match args with
  | [] -> prerr_endline "usage: bench.exe setup|run|record --workload W ..."; exit 2
  | cmd :: rest -> (
      let o = opts [] rest in
      let get k =
        match List.assoc_opt k o with
        | Some v -> v
        | None -> failwith ("missing --" ^ k)
      in
      let wl = find_workload (get "workload") in
      let seed () = Int64.of_string (get "seed") in
      match cmd with
      | "setup" -> cmd_setup wl
      | "record" -> cmd_record wl ~seed:(seed ()) ~dir:(get "digests")
      | "run" ->
          let seconds = float_of_string (get "seconds") and dir = get "digests" in
          let j =
            if get "trace" = "1" then cmd_trace wl ~seed:(seed ()) ~seconds ~dir
            else cmd_run wl ~seed:(seed ()) ~seconds ~dir
          in
          write_json (get "out") j
      | c -> failwith ("unknown subcommand " ^ c))
