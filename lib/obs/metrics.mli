(** Lock-free-per-domain metrics registry.

    Metrics shard their mutable state over a fixed number of slots
    indexed by domain id, so recording is one uncontended atomic
    operation in the common case and never takes a lock; snapshots fold
    the per-domain slots together, making the read-out independent of
    how work was distributed over domains.  Registration is idempotent
    (same name and labels return the same handle) and cheap enough to do
    at module-initialisation time.

    All recording is gated on a process-global enabled flag: a disabled
    probe costs one atomic load and a branch, which is what keeps
    always-present instrumentation essentially free.  What collection
    costs when it is on is perfbench's [trace.overhead]. *)

val enabled : unit -> bool
val set_enabled : bool -> unit
(** Switch collection on/off.  Registration, snapshots and rendering
    work regardless; only recording is gated. *)

type t
(** A registry. *)

val create : unit -> t
val default : t
(** The process-wide registry that all built-in instrumentation uses. *)

type counter
type gauge
type histogram

val counter :
  ?registry:t -> ?labels:(string * string) list -> string -> counter
(** Monotonic integer counter.  Idempotent: registering the same
    (name, labels) twice returns the same handle; re-registering a name
    with a different metric kind raises [Invalid_argument]. *)

val gauge : ?registry:t -> ?labels:(string * string) list -> string -> gauge
(** Float-valued gauge (set or accumulate). *)

val histogram :
  ?registry:t ->
  ?labels:(string * string) list ->
  ?buckets:float array ->
  string -> histogram
(** Fixed-bucket histogram; [buckets] are strictly increasing upper
    bounds (default {!default_buckets}, a latency scale in seconds); an
    implicit +inf bucket is appended. *)

val default_buckets : float array

val count_buckets : float array
(** Decade-scale bounds (1 .. 1e8) for count-valued observations —
    skipped instructions, copied pages — where the latency default is
    meaningless. *)

val incr : counter -> unit
val add : counter -> int -> unit
val set : gauge -> float -> unit
val gadd : gauge -> float -> unit
val observe : histogram -> float -> unit

(** {1 Snapshots} *)

type hvalue = {
  le : float array;  (** bucket upper bounds *)
  counts : int array;  (** per-bucket counts; one extra final +inf slot *)
  sum : float;  (** sum of observed values *)
}

type value = Counter of int | Gauge of float | Histogram of hvalue

type sample = {
  name : string;
  labels : (string * string) list;
  value : value;
}

val snapshot : ?registry:t -> unit -> sample list
(** A consistent-enough read of every metric, sorted by (name, labels)
    so the output is deterministic for deterministic workloads. *)

val find :
  ?registry:t -> ?labels:(string * string) list -> string -> value option

val hvalue_total : hvalue -> int
(** Total observation count (sum of [counts]). *)

val merge_hvalue : hvalue -> hvalue -> hvalue
(** Bucket-wise sum; raises [Invalid_argument] on bucket mismatch.
    Associative and commutative on integer counts; sums are float
    additions (exact while the observations are integer-valued). *)

val merge_value : value -> value -> value
(** Kind-wise merge: counters and gauges add, histograms
    {!merge_hvalue}; raises [Invalid_argument] on kind mismatch. *)

val render : sample list -> string
(** Prometheus-style text exposition: [# TYPE] comments, one
    [name{labels} value] line per sample, histograms expanded into
    cumulative [_bucket{le="..."}] series plus [_sum]/[_count]. *)
