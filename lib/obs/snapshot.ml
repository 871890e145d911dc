(* Unified runner/engine execution statistics.

   One value type for Core.Runner (memo-cache hits, dispatches) and
   Engine (store/shard accounting).  Producers fold deltas into the obs counters below with [count]; [read]
   recovers the process-wide totals from the default registry, so the
   same numbers are visible in a metrics dump and in code. *)

type t = {
  mem_hits : int;  (* campaigns answered from a runner's in-memory cache *)
  dispatched : int;  (* campaigns handed to a dispatch function *)
  shards_from_store : int;  (* shards answered by a durable store *)
  shards_executed : int;  (* shards actually executed *)
  experiments_from_store : int;
  experiments_executed : int;
}

let zero =
  {
    mem_hits = 0;
    dispatched = 0;
    shards_from_store = 0;
    shards_executed = 0;
    experiments_from_store = 0;
    experiments_executed = 0;
  }

let add a b =
  {
    mem_hits = a.mem_hits + b.mem_hits;
    dispatched = a.dispatched + b.dispatched;
    shards_from_store = a.shards_from_store + b.shards_from_store;
    shards_executed = a.shards_executed + b.shards_executed;
    experiments_from_store = a.experiments_from_store + b.experiments_from_store;
    experiments_executed = a.experiments_executed + b.experiments_executed;
  }

let names =
  [
    "onebit_runner_mem_hits_total";
    "onebit_runner_dispatched_total";
    "onebit_engine_shards_from_store_total";
    "onebit_engine_shards_executed_total";
    "onebit_engine_experiments_from_store_total";
    "onebit_engine_experiments_executed_total";
  ]

let counters = lazy (List.map (fun n -> Metrics.counter n) names)

let count d =
  match Lazy.force counters with
  | [ mem; disp; sfs; sx; efs; ex ] ->
      if d.mem_hits <> 0 then Metrics.add mem d.mem_hits;
      if d.dispatched <> 0 then Metrics.add disp d.dispatched;
      if d.shards_from_store <> 0 then Metrics.add sfs d.shards_from_store;
      if d.shards_executed <> 0 then Metrics.add sx d.shards_executed;
      if d.experiments_from_store <> 0 then
        Metrics.add efs d.experiments_from_store;
      if d.experiments_executed <> 0 then Metrics.add ex d.experiments_executed
  | _ -> assert false

let read () =
  ignore (Lazy.force counters);
  let v n =
    match Metrics.find n with Some (Metrics.Counter c) -> c | _ -> 0
  in
  match List.map v names with
  | [ mem; disp; sfs; sx; efs; ex ] ->
      {
        mem_hits = mem;
        dispatched = disp;
        shards_from_store = sfs;
        shards_executed = sx;
        experiments_from_store = efs;
        experiments_executed = ex;
      }
  | _ -> assert false

let pp s =
  let p n word rest =
    Printf.sprintf "%d %s%s%s" n word (if n = 1 then "" else "s") rest
  in
  let base =
    [
      p s.mem_hits "memory hit" "";
      p s.dispatched "campaign" " dispatched";
      p s.shards_from_store "shard" " from store";
      p s.shards_executed "shard" " executed";
    ]
  in
  let extra =
    (if s.experiments_from_store > 0 then
       [ p s.experiments_from_store "experiment" " from store" ]
     else [])
    @
    if s.experiments_executed > 0 then
      [ p s.experiments_executed "experiment" " executed" ]
    else []
  in
  String.concat ", " (base @ extra)
