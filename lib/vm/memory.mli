(** Byte-addressable segmented memory.

    The loader lays globals out with guard gaps between them and a 4 KiB
    null page at address 0; any access touching an unmapped byte raises
    {!Trap.Trap}[ Segfault], and accesses not aligned to
    [min (size, 4)] bytes raise [Misaligned] (the paper counts 4-byte
    alignment violations as hardware exceptions).  All multi-byte accesses
    are little-endian. *)

type t

val create_template : size:int -> regions:(int * bytes) list -> t
(** A template with the given initialised, mapped regions.  Regions must be
    disjoint and in-bounds.  Templates are never executed against directly;
    every run gets a [clone]. *)

val clone : t -> t
(** Copy the arena (cheap, a single [Bytes.copy]); the mapped-byte table is
    immutable and shared.  The clone does not track dirty pages. *)

val with_undo : t -> t
(** An executable copy of a {e template} that additionally records which
    256-byte pages are written, keeping a shared reference to the
    template's pristine arena.  {!reset} rewinds exactly the dirty pages
    — O(dirty) instead of [clone]'s O(arena) — which is what lets one
    long-lived per-domain memory be reused across experiments. *)

val page_size : int
(** Dirty-tracking granularity in bytes (256). *)

val tracks_undo : t -> bool

val dirty_pages : t -> int
(** Number of pages written since the last {!reset} (0 for plain
    clones). *)

val reset : t -> unit
(** Rewind every dirty page to the template image and clear the dirty
    set.  Exact regardless of how the previous run ended (normal end,
    trap mid-run, hang): never-written pages already equal the template.
    If a baseline overlay is installed, its pages are rewound to the
    template too and the overlay is dropped.  Raises [Invalid_argument]
    on a memory without undo tracking. *)

val snapshot_pages : t -> (int * bytes) array
(** Copies of the currently dirty pages, sorted by page index.  Together
    with the template this is a complete mid-run memory image: restoring
    it onto a [reset] memory reproduces the arena byte-for-byte. *)

val restore_pages : t -> (int * bytes) array -> unit
(** [reset] followed by blitting the snapshot pages back in (re-marking
    them dirty, so a later [reset] rewinds them too).  Counted as a
    {e full} restore in {!restore_stats}. *)

val set_baseline : t -> (int * bytes) array -> unit
(** Like {!restore_pages}, but additionally installs the snapshot as the
    memory's {e baseline overlay} — the shared restore point of a batch
    group — and empties the dirty set, so the undo log tracks only pages
    written {e since} the baseline.  Subsequent {!reset_to_baseline}
    calls rewind to this image in O(pages written since the baseline)
    without touching the snapshot again.  The overlay is
    dropped by the next {!reset}, {!restore_pages} or {!set_baseline};
    while installed, {!snapshot_pages} is refused (recording and batch
    execution never share a memory). *)

val reset_to_baseline : t -> unit
(** Rewind every dirty page to the baseline image — overlay bytes for
    baseline pages, template bytes for the rest — leaving the arena
    byte-for-byte as {!restore_pages} with the baseline snapshot would,
    at undo-log cost.  This is the intra-group step between batch
    members.  Raises [Invalid_argument] if no baseline is installed. *)

val image : t -> (int * bytes) array
(** Copies of every page that may differ from the template — the dirty
    set plus, while a baseline is installed, the baseline's pages —
    sorted by page index.  Like {!snapshot_pages}, but valid under a
    baseline overlay: with the template it is the complete arena. *)

val matches_image : t -> (int * bytes) array -> bool
(** Whether the arena equals, byte for byte, the template overlaid with
    [pages] (sorted by page index, as {!snapshot_pages} and {!image}
    return them).  Compares the image's pages and every dirty or
    baseline page, so the cost is O(those pages), not O(arena); the page
    that failed the previous call is compared first.  Raises
    [Invalid_argument] on a memory without undo tracking. *)

val restore_stats : unit -> int * int
(** [(full, undo)] — process-wide counts of full page-restores
    ({!restore_pages} / {!set_baseline}) and O(dirty) baseline resets
    ({!reset_to_baseline}) since process start; counted even when metrics
    collection is disabled.  The Obs mirrors are
    [onebit_vm_restores_full_total] and [onebit_vm_resets_undo_total]. *)

val size : t -> int

val read_int : t -> width:int -> addr:int -> int
(** [width] is 1, 2, 4 or 8 bytes; the result is the zero-extended value
    (an 8-byte read yields the low 63 bits). Raises {!Trap.Trap}. *)

val write_int : t -> width:int -> addr:int -> int -> unit
val read_f64 : t -> addr:int -> float
val write_f64 : t -> addr:int -> float -> unit

val flip_bit : t -> addr:int -> bit:int -> unit
(** Flip bit [bit] (0–7) of the mapped arena byte at [addr] — the
    memory-domain fault effector.  No alignment check (faults ignore the
    ABI); the touched page is marked dirty so undo-tracking memories
    rewind the flip on {!reset} exactly like a program store.  Raises
    [Invalid_argument] on an out-of-bounds or unmapped address. *)

val mapped_addrs : t -> int array
(** All mapped arena addresses in increasing order — the memory-domain
    fault target space.  Determined entirely by the program's global
    layout (shared by every clone of a template), so it can be computed
    once per workload. *)

val peek_bytes : t -> addr:int -> len:int -> bytes
(** Unchecked snapshot for tests and debugging (still bounds-checked). *)
