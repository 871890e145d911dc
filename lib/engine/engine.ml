(* Multicore campaign execution engine.

   A campaign of n experiments is split into fixed-size shards; shards are
   the unit of parallel dispatch (Pool, over work-stealing deques) and of
   durable storage (Store).  Results are bit-identical at any worker
   count because experiment i always runs on the private generator
   [Prng.split_at base i] and shard merging is exact (Campaign.merge).

   Shard boundaries depend only on (n, shard_size) — never on [jobs] — so
   a store populated by one run is hit by any later run, whatever its
   parallelism, and a killed run resumes by re-executing only the shards
   that never made it to the store. *)

module Deque = Deque
module Pool = Pool
module Progress = Progress
module Incremental = Incremental
module Adaptive = Adaptive

let default_shard_size = 25

let resolve_jobs = Core.Config.resolve_jobs

let shards_of = Shards.tile

type run_stats = Obs.Snapshot.t = {
  mem_hits : int;
  dispatched : int;
  shards_from_store : int;
  shards_executed : int;
  experiments_from_store : int;
  experiments_executed : int;
}

let span_if_tracing name f =
  if Obs.Trace.enabled () then Obs.Trace.with_span name f else f ()

let run_campaign_stats ?(jobs = 1) ?shard_size ?store ?progress
    ?(keep_experiments = false) workload spec ~n ~seed =
  if n <= 0 then invalid_arg "Engine.run_campaign: n must be positive";
  let jobs = resolve_jobs jobs in
  let shard_size =
    match shard_size with
    | Some s -> max 1 s
    | None -> (Core.Config.of_env ()).Core.Config.shard_size
  in
  let label = workload.Core.Workload.name ^ " " ^ Core.Spec.label spec in
  span_if_tracing ("campaign " ^ label) @@ fun () ->
  let ranges = Array.of_list (shards_of ~n ~shard_size) in
  let nshards = Array.length ranges in
  let results : Core.Campaign.shard option array = Array.make nshards None in
  (* Kept experiment records are never persisted, so a kept campaign is
     computed in full (still in parallel) rather than read back. *)
  let store = if keep_experiments then None else store in
  (* Hold a writer lease for the run: `onebit engine gc` refuses to
     compact segments out from under a live writer. *)
  (match store with Some st -> Store.lease st | None -> ());
  Fun.protect
    ~finally:(fun () ->
      match store with Some st -> Store.release_lease st | None -> ())
  @@ fun () ->
  let key_of (lo, hi) =
    match store with
    | None -> None
    | Some st ->
        Some
          ( st,
            Store.key ~program:workload.Core.Workload.name
              ~digest:workload.Core.Workload.digest ~spec ~n ~seed ~lo ~hi )
  in
  (match progress with
  | Some p -> Progress.begin_campaign p ~label ~total:n
  | None -> ());
  let from_store = ref 0 and exp_from_store = ref 0 in
  let todo = ref [] in
  Array.iteri
    (fun i range ->
      let hit =
        match key_of range with
        | Some (st, key) -> Store.lookup st key
        | None -> None
      in
      match hit with
      | Some shard ->
          results.(i) <- Some shard;
          incr from_store;
          exp_from_store := !exp_from_store + (shard.hi - shard.lo);
          (match progress with
          | Some p -> Progress.record_shard p ~from_store:true shard
          | None -> ())
      | None -> todo := i :: !todo)
    ranges;
  let todo = Array.of_list (List.rev !todo) in
  let task i ~worker =
    let lo, hi = ranges.(i) in
    span_if_tracing (Printf.sprintf "shard %d-%d %s" lo hi label) @@ fun () ->
    let t0 = Unix.gettimeofday () in
    let shard =
      Core.Campaign.run_shard ~keep_experiments workload spec ~seed ~lo ~hi
    in
    results.(i) <- Some shard;
    (match key_of ranges.(i) with
    | Some (st, key) -> Store.add st key shard
    | None -> ());
    match progress with
    | Some p ->
        Progress.record_shard p ~worker
          ~busy:(Unix.gettimeofday () -. t0)
          ~from_store:false shard
    | None -> ()
  in
  (* Warm the workload's golden-prefix checkpoint set (recorded once per
     digest, process-wide) before spawning workers, so domains share it
     from their first experiment instead of queueing on the recording
     lock. *)
  if Array.length todo > 0 then
    ignore (Core.Workload.ensure_checkpoints workload : Vm.Checkpoint.set option);
  Pool.run ~jobs (Array.map (fun i -> task i) todo);
  let shards =
    Array.to_list results
    |> List.map (function Some s -> s | None -> assert false)
  in
  let result =
    Core.Campaign.merge ~workload_name:workload.Core.Workload.name spec ~n
      ~seed shards
  in
  let stats =
    {
      Obs.Snapshot.zero with
      shards_from_store = !from_store;
      shards_executed = Array.length todo;
      experiments_from_store = !exp_from_store;
      experiments_executed = n - !exp_from_store;
    }
  in
  Obs.Snapshot.count stats;
  (result, stats)

let run_campaign ?jobs ?shard_size ?store ?progress ?keep_experiments
    workload spec ~n ~seed =
  fst
    (run_campaign_stats ?jobs ?shard_size ?store ?progress ?keep_experiments
       workload spec ~n ~seed)

let dispatch ?(jobs = 1) ?shard_size ?store ?progress () :
    Core.Runner.dispatch =
 fun ~keep_experiments workload spec ~n ~seed ->
  run_campaign_stats ~jobs ?shard_size ?store ?progress ~keep_experiments
    workload spec ~n ~seed

let runner ?n ?seed ?(jobs = 1) ?shard_size ?store ?progress () =
  Core.Runner.create ?n ?seed
    ~dispatch:(dispatch ~jobs ?shard_size ?store ?progress ())
    ()
