(* Decode-once, run-many execution pipeline.

   [compile] lowers a loaded {!Program.t} into flat per-function micro-op
   arrays: opcodes are pre-split into int/float variants with their
   masks/shift counts precomputed, every operand is resolved to a slot in
   the frame's register file (immediates are interned into constant slots
   appended after the real registers, so an operand read is always one
   array load — no [Reg|Imm|Glob] match), call targets and block
   successors are integer indices, and list-typed call arguments are
   arrays.  The per-site candidate metadata ({!Meta.t}) and packed
   candidate flags ride alongside each micro-op.

   [run] is an event-driven loop over straight-line segments: a segment
   in which no event can fire and no threshold falls runs with no
   per-instruction accounting, its counters advanced at its end by
   per-function prefix sums of the candidate flags.  The hooked slow
   path (the fault injector) is entered only at a scheduled event, met
   one instruction at a time.  Golden runs and post-final-flip
   execution see thresholds of [max_int] and run almost wholly in
   segments.

   The decode is behaviour-preserving by construction: every micro-op's
   semantics is the specialisation of the corresponding [Exec.step] case
   with the operand resolution and type dispatch hoisted to decode time.
   The differential suites (test/suite_vm_code.ml, test/suite_domain.ml)
   hold it bit-identical to the reference interpreter [Exec.run]. *)

type events = {
  watch : [ `Read | `Write | `Dyn ];
      (* which stream is monitored for events: a candidate stream, or
         (`Dyn) the raw dynamic-instruction stream — the Mem/Code fault
         domains' time axis, firing via ev_dyn with cand = -1 *)
  mutable ev_cand : int;
      (* fire when the watched candidate ordinal reaches this *)
  mutable ev_dyn : int;
      (* or when, at a watched candidate, dyn reaches this *)
  handle : dyn:int -> cand:int -> Exec.frame -> Meta.t -> unit;
      (* the slow path; must refresh ev_cand/ev_dyn before returning *)
}

type callrec = {
  c_dst : int; (* destination register; -1 = result discarded *)
  c_dst_f : bool; (* callee returns f64 *)
  c_callee : int; (* cfunc index *)
  c_args : int array; (* caller slots, one per callee parameter *)
  c_arg_f : bool array; (* per parameter: float register file *)
}

(* Micro-ops.  All fields are immediate ints (slots, masks, shift counts,
   pc targets) except the builtin closures and the call record, so a
   fetched micro-op costs one tag dispatch and unboxed field reads.
   Naming: [m] = result mask (-1 when the type is full-width), [k] = the
   sign-extension shift (63 - width, 0 when full-width), [w] = width. *)
type uop =
  | Uadd of int * int * int * int (* dst, a, b, m *)
  | Usub of int * int * int * int
  | Umul of int * int * int * int
  | Usdiv of int * int * int * int * int (* dst, a, b, k, m *)
  | Uudiv_s of int * int * int (* dst, a, b; width <= 32 *)
  | Uudiv_l of int * int * int * int (* dst, a, b, m; 64-bit path *)
  | Usrem of int * int * int * int * int (* dst, a, b, k, m *)
  | Uurem_s of int * int * int
  | Uurem_l of int * int * int * int
  | Uand of int * int * int
  | Uor of int * int * int
  | Uxor of int * int * int
  | Ushl of int * int * int * int * int (* dst, a, b, w, m *)
  | Ulshr of int * int * int * int (* dst, a, b, w *)
  | Uashr of int * int * int * int * int * int (* dst, a, b, w, k, m *)
  | Uicmp of int * int * int * int * int (* op, k, dst, a, b *)
  | Ufadd of int * int * int (* dst, a, b over flts *)
  | Ufsub of int * int * int
  | Ufmul of int * int * int
  | Ufdiv of int * int * int
  | Ufcmp of int * int * int * int (* op, dst, a, b *)
  | Usel_i of int * int * int * int (* dst, cond, a, b *)
  | Usel_f of int * int * int * int
  | Umask of int * int * int (* dst, a, m: trunc/ptrtoint/inttoptr *)
  | Usext of int * int * int * int (* dst, a, k(from), m(to) *)
  | Ufptosi of int * int * int (* dst, a(f), m(to) *)
  | Usitofp of int * int * int (* dst(f), a, k(from) *)
  | Umov_i of int * int (* dst, a; also zext *)
  | Umov_f of int * int
  | Uload_i of int * int * int (* dst, addr, width-bytes *)
  | Uload_f of int * int
  | Ustore_i of int * int * int (* value, addr, width-bytes *)
  | Ustore_f of int * int
  | Ugep of int * int * int * int (* dst, base, index, scale *)
  | Ucall of callrec
  | Ucall_b1 of int * (float -> float) * int (* dst(-1 = none), f, a *)
  | Ucall_b2 of int * (float -> float -> float) * int * int
  | Uout_i of int * int (* slot, size tag 0:u8 1:u16 2:u32 3:u64 *)
  | Uout_f of int
  | Uguard_i of int * int
  | Uguard_f of int * int
  | Uabort (* Abort instruction and Unreachable terminator *)
  | Ujmp of int * int (* pc, bidx *)
  | Ucbr of int * int * int * int * int (* cond, tpc, tbidx, fpc, fbidx *)
  | Uret
  | Uret_i of int
  | Uret_f of int
  (* Generic fallback uops holding a (possibly bit-flipped) source
     instruction, installed by [patch] when the code domain mutates a
     site of a forked copy.  They interpret the IR instruction directly
     against the frame — semantics shared with the reference interpreter
     via the Exec.exec_* helpers, so a flipped instruction means exactly
     the same thing on both interpreters.  Slow, but a code-domain
     experiment executes at most [max_mbf] of them per dynamic
     occurrence. *)
  | Uinterp of Ir.Instr.t
  | Uinterp_t of Ir.Instr.terminator

type cfunc = {
  name : string;
  uops : uop array; (* blocks flattened in order; block b at block_off.(b) *)
  flags : int array;
      (* per-uop: bit0 read-candidate, bit1 write-candidate,
         bits 2.. destination register + 1 (0 = no destination) *)
  metas : Meta.t array; (* per-uop; only touched on the slow path *)
  block_off : int array;
  int_init : int array; (* nslots; constant slots pre-filled *)
  flt_init : float array;
  lw_init : int array; (* nregs of -1 *)
  reg_ty : Ir.Ty.t array; (* the real registers only *)
  site_reads : int array; (* per block: static read-candidate sites *)
  site_writes : int array;
  seg_len : int array;
      (* per-uop: the length of the segment starting there, up to and
         including the next call, terminator or abort *)
  rc_pre : int array;
      (* [rc_pre.(k)]: read candidates among uops 0..k-1 (length n+1) *)
  wc_pre : int array; (* the same for write candidates *)
}

type t = {
  funcs : cfunc array;
  main : int;
  mem_template : Memory.t;
  source : Program.t;
  pristine : bool;
      (* false for a {!fork}: its micro-ops may be patched, so reaching a
         golden state no longer implies the golden future *)
}

let program t = t.source

(* ---- decode ---- *)

let mask_of ty =
  let w = Ir.Ty.width ty in
  if w >= 63 then -1 else (1 lsl w) - 1

let sext_shift ty =
  let w = Ir.Ty.width ty in
  if w >= 63 then 0 else 63 - w

let icmp_tag : Ir.Instr.icmp -> int = function
  | Eq -> 0
  | Ne -> 1
  | Slt -> 2
  | Sle -> 3
  | Sgt -> 4
  | Sge -> 5
  | Ult -> 6
  | Ule -> 7
  | Ugt -> 8
  | Uge -> 9

let fcmp_tag : Ir.Instr.fcmp -> int = function
  | Foeq -> 0
  | Fone -> 1
  | Folt -> 2
  | Fole -> 3
  | Fogt -> 4
  | Foge -> 5

let out_tag : Ir.Ty.t -> int = function
  | I1 | I8 -> 0
  | I16 -> 1
  | I32 | Ptr -> 2
  | I64 -> 3
  | F64 -> assert false

let compile_func (p : Program.t) (f : Program.lfunc) : cfunc =
  let nregs = Array.length f.reg_ty in
  let next = ref nregs in
  let iconsts : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let fconsts : (int64, int) Hashtbl.t = Hashtbl.create 4 in
  let ivals = ref [] and fvals = ref [] in
  let reg r =
    assert (r >= 0 && r < nregs);
    r
  in
  let islot (op : Ir.Instr.operand) =
    match op with
    | Reg r -> reg r
    | Imm n -> (
        match Hashtbl.find_opt iconsts n with
        | Some s -> s
        | None ->
            let s = !next in
            incr next;
            Hashtbl.add iconsts n s;
            ivals := (s, n) :: !ivals;
            s)
    | FImm _ | Glob _ -> assert false (* canonicalised by Program.load *)
  in
  let fslot (op : Ir.Instr.operand) =
    match op with
    | Reg r -> reg r
    | FImm x -> (
        let bits = Int64.bits_of_float x in
        match Hashtbl.find_opt fconsts bits with
        | Some s -> s
        | None ->
            let s = !next in
            incr next;
            Hashtbl.add fconsts bits s;
            fvals := (s, x) :: !fvals;
            s)
    | Imm _ | Glob _ -> assert false
  in
  let block_off = Array.make (Array.length f.blocks) 0 in
  let total = ref 0 in
  Array.iteri
    (fun b (blk : Program.lblock) ->
      block_off.(b) <- !total;
      total := !total + Array.length blk.instrs + 1)
    f.blocks;
  let decode_instr (ins : Ir.Instr.t) : uop =
    match ins with
    | Binop { op; ty; dst; a; b } -> (
        let dst = reg dst and a = islot a and b = islot b in
        let m = mask_of ty and k = sext_shift ty and w = Ir.Ty.width ty in
        match op with
        | Add -> Uadd (dst, a, b, m)
        | Sub -> Usub (dst, a, b, m)
        | Mul -> Umul (dst, a, b, m)
        | Sdiv -> Usdiv (dst, a, b, k, m)
        | Udiv -> if w <= 32 then Uudiv_s (dst, a, b) else Uudiv_l (dst, a, b, m)
        | Srem -> Usrem (dst, a, b, k, m)
        | Urem -> if w <= 32 then Uurem_s (dst, a, b) else Uurem_l (dst, a, b, m)
        | And -> Uand (dst, a, b)
        | Or -> Uor (dst, a, b)
        | Xor -> Uxor (dst, a, b)
        | Shl -> Ushl (dst, a, b, w, m)
        | Lshr -> Ulshr (dst, a, b, w)
        | Ashr -> Uashr (dst, a, b, w, k, m))
    | Fbinop { op; dst; a; b } -> (
        let dst = reg dst and a = fslot a and b = fslot b in
        match op with
        | Fadd -> Ufadd (dst, a, b)
        | Fsub -> Ufsub (dst, a, b)
        | Fmul -> Ufmul (dst, a, b)
        | Fdiv -> Ufdiv (dst, a, b))
    | Icmp { op; ty; dst; a; b } ->
        Uicmp (icmp_tag op, sext_shift ty, reg dst, islot a, islot b)
    | Fcmp { op; dst; a; b } -> Ufcmp (fcmp_tag op, reg dst, fslot a, fslot b)
    | Select { ty; dst; cond; a; b } ->
        if Ir.Ty.is_float ty then
          Usel_f (reg dst, islot cond, fslot a, fslot b)
        else Usel_i (reg dst, islot cond, islot a, islot b)
    | Cast { op; from_ty; to_ty; dst; a } -> (
        match op with
        | Trunc | Ptrtoint | Inttoptr -> Umask (reg dst, islot a, mask_of to_ty)
        | Zext -> Umov_i (reg dst, islot a)
        | Sext -> Usext (reg dst, islot a, sext_shift from_ty, mask_of to_ty)
        | Fptosi -> Ufptosi (reg dst, fslot a, mask_of to_ty)
        | Sitofp -> Usitofp (reg dst, islot a, sext_shift from_ty))
    | Mov { ty; dst; a } ->
        if Ir.Ty.is_float ty then Umov_f (reg dst, fslot a)
        else Umov_i (reg dst, islot a)
    | Load { ty; dst; addr } ->
        if Ir.Ty.is_float ty then Uload_f (reg dst, islot addr)
        else Uload_i (reg dst, islot addr, Ir.Ty.bytes ty)
    | Store { ty; value; addr } ->
        if Ir.Ty.is_float ty then Ustore_f (fslot value, islot addr)
        else Ustore_i (islot value, islot addr, Ir.Ty.bytes ty)
    | Gep { dst; base; index; scale } ->
        Ugep (reg dst, islot base, islot index, scale)
    | Call { dst; callee; args } -> (
        match Hashtbl.find_opt p.targets callee with
        | None -> assert false (* validated *)
        | Some (B1 fn) ->
            Ucall_b1
              ( (match dst with Some d -> reg d | None -> -1),
                fn,
                fslot (List.hd args) )
        | Some (B2 fn) -> (
            match args with
            | [ a; b ] ->
                Ucall_b2
                  ( (match dst with Some d -> reg d | None -> -1),
                    fn,
                    fslot a,
                    fslot b )
            | _ -> assert false)
        | Some (Fn cidx) ->
            let cf = p.funcs.(cidx) in
            let c_arg_f = Array.map Ir.Ty.is_float cf.params in
            let c_args =
              Array.of_list
                (List.mapi
                   (fun i arg -> if c_arg_f.(i) then fslot arg else islot arg)
                   args)
            in
            let c_dst, c_dst_f =
              match (dst, cf.ret) with
              | Some d, Some rt -> (reg d, Ir.Ty.is_float rt)
              | _ -> (-1, false)
            in
            Ucall { c_dst; c_dst_f; c_callee = cidx; c_args; c_arg_f })
    | Output { ty; value } ->
        if Ir.Ty.is_float ty then Uout_f (fslot value)
        else Uout_i (islot value, out_tag ty)
    | Guard { ty; a; b } ->
        if Ir.Ty.is_float ty then Uguard_f (fslot a, fslot b)
        else Uguard_i (islot a, islot b)
    | Abort -> Uabort
  in
  let decode_term (t : Ir.Instr.terminator) : uop =
    match t with
    | Br l -> Ujmp (block_off.(l), l)
    | Cbr { cond; if_true; if_false } ->
        Ucbr (islot cond, block_off.(if_true), if_true, block_off.(if_false),
              if_false)
    | Ret None -> Uret
    | Ret (Some v) -> (
        match f.ret with
        | Some rt when Ir.Ty.is_float rt -> Uret_f (fslot v)
        | Some _ -> Uret_i (islot v)
        | None -> Uret)
    | Unreachable -> Uabort
  in
  let uops = Array.make !total Uret in
  let metas = Array.make !total Meta.no_operands in
  let flags = Array.make !total 0 in
  let nblocks = Array.length f.blocks in
  let site_reads = Array.make nblocks 0 in
  let site_writes = Array.make nblocks 0 in
  Array.iteri
    (fun b (blk : Program.lblock) ->
      let off = block_off.(b) in
      let n = Array.length blk.instrs in
      for k = 0 to n - 1 do
        uops.(off + k) <- decode_instr blk.instrs.(k)
      done;
      uops.(off + n) <- decode_term blk.term;
      for k = 0 to n do
        let m = blk.metas.(k) in
        metas.(off + k) <- m;
        let rd = if Array.length m.srcs > 0 then 1 else 0 in
        let wr = if m.dst >= 0 then 2 else 0 in
        flags.(off + k) <- rd lor wr lor ((m.dst + 1) lsl 2);
        site_reads.(b) <- site_reads.(b) + rd;
        if wr <> 0 then site_writes.(b) <- site_writes.(b) + 1
      done)
    f.blocks;
  (* Segment tables: every block ends in a jump, return or abort, so a
     segment never crosses a block end. *)
  let ends_segment = function
    | Ucall _ | Ujmp _ | Ucbr _ | Uret | Uret_i _ | Uret_f _ | Uabort -> true
    | _ -> false
  in
  let seg_len = Array.make !total 1 in
  for k = !total - 2 downto 0 do
    if not (ends_segment uops.(k)) then seg_len.(k) <- seg_len.(k + 1) + 1
  done;
  let rc_pre = Array.make (!total + 1) 0 in
  let wc_pre = Array.make (!total + 1) 0 in
  for k = 0 to !total - 1 do
    rc_pre.(k + 1) <- rc_pre.(k) + (flags.(k) land 1);
    wc_pre.(k + 1) <- wc_pre.(k) + ((flags.(k) lsr 1) land 1)
  done;
  let nslots = !next in
  let int_init = Array.make nslots 0 in
  let flt_init = Array.make nslots 0.0 in
  List.iter (fun (s, v) -> int_init.(s) <- v) !ivals;
  List.iter (fun (s, v) -> flt_init.(s) <- v) !fvals;
  {
    name = f.name;
    uops;
    flags;
    metas;
    block_off;
    int_init;
    flt_init;
    lw_init = Array.make nregs (-1);
    reg_ty = f.reg_ty;
    site_reads;
    site_writes;
    seg_len;
    rc_pre;
    wc_pre;
  }

(* ---- decode cache ---- *)

let m_decodes = Obs.Metrics.counter "onebit_vm_decodes_total"
let m_cache_hits = Obs.Metrics.counter "onebit_vm_decode_cache_hits_total"
let m_cache_entries = Obs.Metrics.gauge "onebit_vm_decode_cache_entries"

let cache : (string, t) Hashtbl.t = Hashtbl.create 16
let cache_lock = Mutex.create ()

let compile_uncached (p : Program.t) : t =
  if Obs.Metrics.enabled () then Obs.Metrics.incr m_decodes;
  {
    funcs = Array.map (compile_func p) p.funcs;
    main = p.main;
    mem_template = p.mem_template;
    source = p;
    pristine = true;
  }

let compile ?digest (p : Program.t) : t =
  match digest with
  | None -> compile_uncached p
  | Some dg ->
      Mutex.protect cache_lock (fun () ->
          match Hashtbl.find_opt cache dg with
          | Some c ->
              if Obs.Metrics.enabled () then Obs.Metrics.incr m_cache_hits;
              c
          | None ->
              let c = compile_uncached p in
              Hashtbl.replace cache dg c;
              if Obs.Metrics.enabled () then
                Obs.Metrics.set m_cache_entries
                  (float_of_int (Hashtbl.length cache));
              c)

let site_reads t = Array.map (fun cf -> Array.copy cf.site_reads) t.funcs
let site_writes t = Array.map (fun cf -> Array.copy cf.site_writes) t.funcs

(* ---- code-domain mutation ---- *)

(* A private copy whose uop arrays may be patched: the decode-cache
   invalidation analog.  Everything else (flags, metas, segment tables,
   inits, source) is immutable and shared, so a fork costs one array copy
   per function.
   The digest-keyed cache only ever holds pristine code — forks are
   created per experiment and dropped. *)
let fork t =
  {
    t with
    funcs = Array.map (fun cf -> { cf with uops = Array.copy cf.uops }) t.funcs;
    pristine = false;
  }

(* Install a mutated instruction (from Codeflip) at its site.  The site
   keeps its original flags/metas: candidate accounting and last_write
   bookkeeping follow the golden program structure while execution
   follows the flipped instruction, exactly like the reference
   interpreter running the mutated image (whose metas are also
   untouched).  [seg_len] stays the pristine one: a patched site closes
   the segment it lies in when it runs, so the pristine length is an
   upper bound on the segment actually run. *)
let patch t ~fidx ~bidx ~idx p =
  let cf = t.funcs.(fidx) in
  let off = cf.block_off.(bidx) + idx in
  cf.uops.(off) <-
    (match p with `Instr ins -> Uinterp ins | `Term tm -> Uinterp_t tm)

(* ---- execution ---- *)

exception Hang_exn
exception Converge_exn

(* Instructions run inside segments, with no per-instruction accounting:
   added once per run, from [rstate.seg_instrs]. *)
let m_segment_instrs =
  Obs.Metrics.counter "onebit_vm_segment_instructions_total"

type rstate = {
  mutable dyn : int;
  mutable rc : int;
  mutable wc : int;
  mutable ret_i : int;
  mutable ret_f : float;
  mutable probe : int;
      (* the top of the loop enters [probe] once dyn reaches this — the
         recorder's capture test, or the early exits' checkpoint compare
         and cycle snapshots; max_int = never *)
  mutable limit : int;
      (* [min probe budget]: segments end at or below it, and the
         per-instruction path's one test covers the probe and the
         watchdog *)
  mutable on_block : bool;
      (* jumps look further: the block hook, or a watched cycle snapshot *)
  mutable watch_pc : int;
      (* a jump to this pc compares the state with the cycle snapshot;
         -1 = none *)
  mutable lw_on : bool;
      (* segments keep last_write: a recorder captures it, or an event,
         which may read it, is pending *)
  mutable seg_instrs : int; (* instructions run inside segments *)
  mutable trap_pc : int;
      (* the pc of the last straight-line uop that could trap, recorded
         before it runs: where a trap inside a segment happened *)
  budget : int;
}

let rearm st probe =
  st.probe <- probe;
  st.limit <- min probe st.budget

(* Account for uops [s..i] of [cf], run as one segment, exactly as the
   per-instruction path would have by uop [i]'s write post-block: every
   uop's dyn increment and read candidate, and the write candidates of
   [s..i-1].  At the segment's end (a call, jump, return or patched
   site) that post-block then runs as usual; when uop [i] trapped it
   never runs. *)
let[@inline] account_segment st cf s i =
  let n = i + 1 - s in
  st.dyn <- st.dyn + n;
  st.rc <-
    st.rc + Array.unsafe_get cf.rc_pre (i + 1) - Array.unsafe_get cf.rc_pre s;
  st.wc <- st.wc + Array.unsafe_get cf.wc_pre i - Array.unsafe_get cf.wc_pre s;
  st.seg_instrs <- st.seg_instrs + n

(* Trap [t] at straight-line uop [i]. *)
let trap_at st i t =
  st.trap_pc <- i;
  raise (Trap.Trap t)

(* The shadow call stack: one entry per in-progress call, outermost
   first — the calling function, its frame, the call's pc and dynamic
   index.  Preallocated to the call-depth limit and reused by each
   domain's runs, so a call pushes with four stores and allocates
   nothing.  Kept only by recording runs and runs with early exits. *)
type shadow = {
  mutable sp : int;
  mutable busy : bool;
  sh_fidx : int array;
  sh_frame : Exec.frame array;
  sh_pc : int array;
  sh_calld : int array;
}

let no_frame =
  { Exec.ints = [||]; flts = [||]; reg_ty = [||]; last_write = [||] }

let new_shadow ?(n = Exec.max_call_depth + 1) () =
  {
    sp = 0;
    busy = false;
    sh_fidx = Array.make n 0;
    sh_frame = Array.make n no_frame;
    sh_pc = Array.make n 0;
    sh_calld = Array.make n 0;
  }

(* Never pushed: runs that keep no shadow stack share it. *)
let no_shadow = new_shadow ~n:0 ()
let shadow_key = Domain.DLS.new_key (fun () -> new_shadow ())

(* The domain's stack, or a fresh one if a run is already using it. *)
let acquire_shadow () =
  let s = Domain.DLS.get shadow_key in
  let s = if s.busy then new_shadow () else s in
  s.busy <- true;
  s.sp <- 0;
  s

(* A run that raised out of calls leaves frames below [sp]. *)
let release_shadow s =
  Array.fill s.sh_frame 0 s.sp no_frame;
  s.busy <- false

(* Popping drops the frame too: a returned frame left in the (major
   heap) array would be promoted by the next minor collection. *)
let pop sh =
  let k = sh.sp - 1 in
  sh.sp <- k;
  Array.unsafe_set sh.sh_frame k no_frame

let push sh fidx frame pc calld =
  let k = sh.sp in
  Array.unsafe_set sh.sh_fidx k fidx;
  Array.unsafe_set sh.sh_frame k frame;
  Array.unsafe_set sh.sh_pc k pc;
  Array.unsafe_set sh.sh_calld k calld;
  sh.sp <- k + 1

(* ---- early exits ---- *)

type exits = {
  golden : Checkpoint.set;
  st : rstate;
  sh : shadow;
  out : Buffer.t;
  mem : Memory.t;
  ev : events;
  code : t;
  mutable armed : bool; (* no injector event is pending *)
  mutable conv : bool; (* the convergence exit may still fire *)
  mutable next_pt : int; (* the golden point to compare with next *)
  mutable out_ok : int; (* output bytes checked against the golden output *)
  mutable cyc : bool; (* the cycle exit is armed *)
  mutable mark : int; (* next snapshot: first block start with dyn >= mark *)
  mutable window : int;
  mutable snap : Checkpoint.point option; (* the Brent snapshot *)
  mutable snap_out : int; (* output length at the snapshot *)
  mutable skipped : int; (* instructions a fast-forward skipped *)
  (* Witness of the last failed state compare — a register (frame index,
     0 = outermost; slot; float file?) or the memory — checked first
     next time: a diverged value usually stays diverged, so a run that
     never converges pays O(stack depth) per compare after the first. *)
  mutable w_frame : int; (* -1: no register witness *)
  mutable w_slot : int;
  mutable w_flt : bool;
  mutable w_mem : bool;
}

(* First Brent window, in dynamic instructions; it doubles per
   snapshot. *)
let cycle_window0 = 256

let m_exit_converge =
  Obs.Metrics.counter ~labels:[ ("kind", "converge") ]
    "onebit_vm_early_exits_total"

let m_exit_cycle =
  Obs.Metrics.counter ~labels:[ ("kind", "cycle") ] "onebit_vm_early_exits_total"

let m_exit_skipped =
  Obs.Metrics.counter "onebit_vm_early_exit_skipped_instructions_total"

let note_exit m skipped =
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.incr m;
    Obs.Metrics.add m_exit_skipped skipped
  end

(* Whether pc [i] starts a block of [cf]: only those are jump targets. *)
let is_block_start cf i =
  let off = cf.block_off in
  let lo = ref 0 and hi = ref (Array.length off - 1) and found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if off.(mid) = i then found := true
    else if off.(mid) < i then lo := mid + 1
    else hi := mid - 1
  done;
  !found

(* First slot where two register files differ, or -1. *)
let ints_diff (a : int array) (b : int array) =
  let n = Array.length a in
  if n <> Array.length b then 0
  else
    let rec go k =
      if k >= n then -1
      else if Array.unsafe_get a k <> Array.unsafe_get b k then k
      else go (k + 1)
    in
    go 0

(* Bit for bit: NaN payloads and signed zeros count. *)
let flt_differs (a : float array) (b : float array) k =
  Int64.bits_of_float (Array.unsafe_get a k)
  <> Int64.bits_of_float (Array.unsafe_get b k)

let flts_diff (a : float array) (b : float array) =
  let n = Array.length a in
  if n <> Array.length b then 0
  else
    let rec go k =
      if k >= n then -1 else if flt_differs a b k then k else go (k + 1)
    in
    go 0

(* Shared placeholder for eventless runs; its thresholds are never read
   because the watch flags are false, and it is never mutated. *)
let no_events =
  {
    watch = `Read;
    ev_cand = max_int;
    ev_dyn = max_int;
    handle = (fun ~dyn:_ ~cand:_ _ _ -> ());
  }

let to_u64 v = Int64.logand (Int64.of_int v) 0x7FFFFFFFFFFFFFFFL

(* Operand reads for the generic [Uinterp] path.  Register slots
   0..nregs-1 of a compiled frame hold exactly the reference
   interpreter's register values (the interpreters' core bit-identity
   invariant), so reading a flipped register index out of them matches
   the reference run on the mutated image. *)
let igeti (frame : Exec.frame) (op : Ir.Instr.operand) =
  match op with
  | Ir.Instr.Reg r -> frame.Exec.ints.(r)
  | Imm n -> n
  | FImm _ | Glob _ -> assert false (* canonicalised; flips preserve kind *)

let igetf (frame : Exec.frame) (op : Ir.Instr.operand) =
  match op with
  | Ir.Instr.Reg r -> frame.Exec.flts.(r)
  | FImm x -> x
  | Imm _ | Glob _ -> assert false

(* The VM state at the top of the loop ([i] the pc about to run): a
   golden checkpoint when recording ([full]), a cycle snapshot otherwise
   — which needs neither the output bytes (only their count,
   [snap_out]) nor the [last_write] tables. *)
let snapshot st sh out fidx (frame : Exec.frame) i ~pages ~full =
  let snap_of fidx (fr : Exec.frame) pc calld =
    {
      Checkpoint.fs_fidx = fidx;
      fs_pc = pc;
      fs_call_dyn = calld;
      fs_ints = Array.copy fr.Exec.ints;
      fs_flts = Array.copy fr.Exec.flts;
      fs_lw = (if full then Array.copy fr.Exec.last_write else [||]);
    }
  in
  let n = sh.sp in
  {
    Checkpoint.ck_dyn = st.dyn;
    ck_rc = st.rc;
    ck_wc = st.wc;
    ck_out = (if full then Buffer.contents out else "");
    ck_stack =
      Array.init (n + 1) (fun k ->
          if k = n then snap_of fidx frame i 0
          else
            snap_of sh.sh_fidx.(k) sh.sh_frame.(k) sh.sh_pc.(k)
              sh.sh_calld.(k));
    ck_pages = pages;
  }

let golden_dyn x = x.golden.Checkpoint.final.Exec.dyn_count

(* The next dyn the top of the loop must stop at: the next golden point
   while convergence is possible, then the cycle exit's arming (past
   the golden length) or its next snapshot mark. *)
let set_probe x =
  let pts = x.golden.Checkpoint.points in
  let conv_at =
    if x.conv && x.next_pt < Array.length pts then pts.(x.next_pt).ck_dyn
    else max_int
  in
  rearm x.st (min conv_at (if x.cyc then x.mark else golden_dyn x + 1))

let event_pending (ev : events) = ev.ev_cand <> max_int || ev.ev_dyn <> max_int

(* The last flip has fired: compare from the first point at or after the
   next top of the loop. *)
let arm x =
  let pts = x.golden.Checkpoint.points in
  x.armed <- true;
  x.conv <- x.code.pristine && golden_dyn x <= x.st.budget;
  let lo = ref 0 and hi = ref (Array.length pts) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if pts.(mid).ck_dyn < x.st.dyn then lo := mid + 1 else hi := mid
  done;
  x.next_pt <- !lo;
  set_probe x

let after_event x = if (not x.armed) && not (event_pending x.ev) then arm x

(* Emitted bytes cannot be taken back: once the output leaves the golden
   output's prefix, the run can never converge. *)
let check_output x =
  let g = x.golden.Checkpoint.final.Exec.output in
  let n = Buffer.length x.out in
  if n > String.length g then x.conv <- false
  else begin
    let k = ref x.out_ok in
    while x.conv && !k < n do
      if Buffer.nth x.out !k <> String.unsafe_get g !k then x.conv <- false;
      incr k
    done;
    x.out_ok <- n
  end

(* Registers of frames 0..n (n = the current [frame], the others on the
   shadow stack) against [stk]: the witness first, then a scan that
   records the first difference as the new witness.  The compares run at
   every golden point of a run that has not converged, so they are loops
   over refs and allocate nothing. *)
let regs_match x n (frame : Exec.frame) (stk : Checkpoint.frame_snap array) =
  let sh = x.sh in
  let k = x.w_frame and s = x.w_slot in
  let witness_differs =
    k >= 0 && k <= n
    &&
    let fr = if k = n then frame else sh.sh_frame.(k) in
    if x.w_flt then
      let a = fr.Exec.flts and b = stk.(k).fs_flts in
      s < Array.length a && s < Array.length b && flt_differs a b s
    else
      let a = fr.Exec.ints and b = stk.(k).fs_ints in
      s < Array.length a && s < Array.length b && a.(s) <> b.(s)
  in
  (not witness_differs)
  &&
  let ok = ref true and k = ref n in
  while !ok && !k >= 0 do
    let fr = if !k = n then frame else sh.sh_frame.(!k) in
    let si = ints_diff fr.Exec.ints stk.(!k).fs_ints in
    let sf = if si >= 0 then -1 else flts_diff fr.Exec.flts stk.(!k).fs_flts in
    if si >= 0 || sf >= 0 then begin
      x.w_frame <- !k;
      x.w_slot <- max si sf;
      x.w_flt <- sf >= 0;
      ok := false
    end
    else decr k
  done;
  !ok

let mem_match x (p : Checkpoint.point) =
  Memory.matches_image x.mem p.ck_pages
  ||
  (x.w_mem <- true;
   false)

(* The current state against [p], counters and output aside, cheapest
   first: the stack's shape (functions and pcs), then registers bit for
   bit and the memory image — memory first when it held the last
   difference.  [last_write] and the outer frames' call dyns are not
   compared: they only feed injector events (an injection's weight, a
   write-candidate event's dyn), none can fire after the last flip, and
   neither reaches [Exec.result]. *)
let state_matches x fidx (frame : Exec.frame) i (p : Checkpoint.point) =
  let sh = x.sh in
  let stk = p.ck_stack and n = sh.sp in
  Array.length stk = n + 1
  && stk.(n).fs_fidx = fidx
  && stk.(n).fs_pc = i
  && (let ok = ref true and k = ref 0 in
      while !ok && !k < n do
        ok := stk.(!k).fs_fidx = sh.sh_fidx.(!k) && stk.(!k).fs_pc = sh.sh_pc.(!k);
        incr k
      done;
      !ok)
  &&
  if x.w_mem then
    mem_match x p
    && begin
         x.w_mem <- false;
         regs_match x n frame stk
       end
  else regs_match x n frame stk && mem_match x p

(* The top of the loop at the armed threshold: a golden point's compare
   (convergence), the cycle exit's arming past the golden length, or a
   Brent snapshot. *)
let exit_probe x fidx frame i d =
  let st = x.st and pts = x.golden.Checkpoint.points in
  let npts = Array.length pts in
  if x.conv then begin
    check_output x;
    while x.next_pt < npts && pts.(x.next_pt).ck_dyn < d do
      x.next_pt <- x.next_pt + 1
    done;
    if x.conv && x.next_pt < npts && pts.(x.next_pt).ck_dyn = d then begin
      let p = pts.(x.next_pt) in
      (* The output so far is the golden prefix, so with equal lengths
         it is the point's. *)
      if
        st.rc = p.ck_rc && st.wc = p.ck_wc
        && Buffer.length x.out = String.length p.ck_out
        && state_matches x fidx frame i p
      then raise Converge_exn;
      x.next_pt <- x.next_pt + 1
    end
  end;
  if (not x.cyc) && d > golden_dyn x then begin
    (* Past the golden length: arm the cycle exit. *)
    x.cyc <- true;
    x.mark <- d
  end;
  if x.cyc && d >= x.mark then
    (* Brent: a snapshot at the first block start past each doubling
       mark — jumps compare at block starts only — then a wider
       window. *)
    if is_block_start x.code.funcs.(fidx) i then begin
      x.snap <-
        Some
          (snapshot st x.sh x.out fidx frame i
             ~pages:(Memory.snapshot_pages x.mem) ~full:false);
      x.snap_out <- Buffer.length x.out;
      st.watch_pc <- i;
      st.on_block <- true;
      x.mark <- d + x.window;
      x.window <- 2 * x.window
    end
    else x.mark <- d + 1;
  set_probe x

(* A jump to the snapshot's pc.  A state that repeats exactly after P
   instructions, with no event pending and no output in between, repeats
   forever: whole periods are skipped, keeping short of the watchdog,
   and the rest executes normally to it. *)
let cycle_entry x fidx frame pc =
  let st = x.st in
  match x.snap with
  | Some s
    when Buffer.length x.out = x.snap_out && state_matches x fidx frame pc s ->
      let d = st.dyn in
      let period = d - s.ck_dyn in
      let k = (st.budget - d) / period in
      let drc = st.rc - s.ck_rc and dwc = st.wc - s.ck_wc in
      st.dyn <- d + (k * period);
      st.rc <- st.rc + (k * drc);
      st.wc <- st.wc + (k * dwc);
      x.skipped <- k * period;
      x.snap <- None;
      x.mark <- max_int;
      st.watch_pc <- -1;
      st.on_block <- false;
      set_probe x
  | _ -> ()

(* The one interpreter loop behind [run] and [resume].

   Segments.  The loop runs a function's code a segment at a time: from
   the pc to the next call, jump, return or abort ([seg_len]), or to a
   patched site.  A segment's straight-line uops run back to back with
   no per-instruction accounting ([straight]) when it ends at or below
   [st.limit] and no event can fire inside it — its dyns stay below
   [ev_dyn] and its watched candidates below [ev_cand].  At its end
   [dyn] advances by its length and [rc]/[wc] by the prefix sums of the
   candidate flags, and [last_write] is brought up to date when a reader
   is left ([st.lw_on]: a recorder, or a pending event).  Its last uop
   then runs with its write post-block as usual.  A trap inside a
   segment rebuilds the exact counters from the trapping pc
   ([st.trap_pc]): its read candidate counts, its write does not.
   Otherwise the loop runs one instruction with per-instruction
   accounting: the threshold, the dyn increment, the candidate blocks
   and the events.  So every threshold and event is met at its exact
   dyn, and every counter is exact wherever it is read.

   The threshold, [dyn >= st.limit], covers the watchdog and both of
   the slow paths below; [rearm] moves it.

   Recording ([record]): a golden run additionally maintains the shadow
   call stack and, at the top of the loop whenever a candidate-ordinal
   counter crosses the recorder's threshold, captures a {!Checkpoint.point}
   — before the instruction's dyn increment and candidate blocks, so the
   point is valid for both the read and the write ordinal axis.  Each
   instruction moves rc and wc by at most one, so the capture test can
   first hold [min (next_rc - rc) (next_wc - wc)] instructions later:
   probing there instead of every instruction captures the same points,
   and segments run up to it.

   Early exits ([exits], the golden checkpoint set): once no injector
   event is pending — the last flip has fired — the run may stop early
   with the result full execution would return.  Convergence (pristine
   code only): at each golden point's [ck_dyn], a state equal to the
   point's means the rest of the run is the golden run's rest, so the
   result is the golden result.  Cycle: past the golden length, Brent
   snapshots at block starts, compared at later jumps to the same pc,
   find an exactly repeating state; whole
   periods are then skipped arithmetically and the run continues to the
   watchdog.  DESIGN.md has the full argument.

   Resuming ([resume]): counters, output and memory pages are restored
   from the point, then the captured call stack is re-entered outermost
   first: each outer frame's in-progress [Ucall] is completed exactly as
   the original iteration would have (return-value assignment, then the
   call's write-candidate post-block using the call's own dynamic index)
   before that frame continues at the following pc.  [st.ret_i]/[st.ret_f]
   are dead at the top of the loop, so zero-initialising them is exact. *)
let run_internal ?events ?block_hook ?record ?exits ?mem ?resume ?orig
    ~budget (code : t) =
  let mem =
    match mem with
    | Some m -> m
    | None ->
        if Option.is_some record then Memory.with_undo code.mem_template
        else Memory.clone code.mem_template
  in
  let out = Buffer.create 256 in
  let st =
    {
      dyn = 0;
      rc = 0;
      wc = 0;
      ret_i = 0;
      ret_f = 0.0;
      probe = max_int;
      limit = budget;
      on_block = Option.is_some block_hook;
      watch_pc = -1;
      lw_on = false;
      seg_instrs = 0;
      trap_pc = 0;
      budget;
    }
  in
  (match resume with
  | Some (p : Checkpoint.point) ->
      Buffer.add_string out p.ck_out;
      st.dyn <- p.ck_dyn;
      st.rc <- p.ck_rc;
      st.wc <- p.ck_wc
  | None -> ());
  let watch_read, watch_write, watch_dyn, ev =
    match events with
    | Some e -> (e.watch = `Read, e.watch = `Write, e.watch = `Dyn, e)
    | None -> (false, false, false, no_events)
  in
  let has_bh = Option.is_some block_hook in
  let bh =
    match block_hook with Some h -> h | None -> fun ~fidx:_ ~bidx:_ -> ()
  in
  let rec_on = Option.is_some record in
  let recd =
    match record with Some r -> r | None -> Checkpoint.null_recorder
  in
  (* Exits need a fault schedule to wait out, no block hook (the cycle
     exit uses the jumps' callout) and an undo-tracking memory (compares
     look at its dirty pages). *)
  let exits_on =
    Option.is_some exits && Option.is_some events
    && (not st.on_block) && (not rec_on) && Memory.tracks_undo mem
  in
  let shadow_on = rec_on || exits_on in
  let sh = if shadow_on then acquire_shadow () else no_shadow in
  let xs =
    match exits with
    | Some golden when exits_on ->
        Some
          {
            golden;
            st;
            sh;
            out;
            mem;
            ev;
            code;
            armed = false;
            conv = false;
            next_pt = 0;
            out_ok = 0;
            cyc = false;
            mark = max_int;
            window = cycle_window0;
            snap = None;
            snap_out = 0;
            skipped = 0;
            w_frame = -1;
            w_slot = 0;
            w_flt = false;
            w_mem = false;
          }
    | _ -> None
  in
  let funcs = code.funcs in
  let probe fidx frame i d =
    if rec_on then begin
      if st.rc >= recd.Checkpoint.next_rc || st.wc >= recd.Checkpoint.next_wc
      then
        Checkpoint.add recd
          (snapshot st sh out fidx frame i ~pages:(Memory.snapshot_pages mem)
             ~full:true);
      rearm st
        (d
        + min
            (recd.Checkpoint.next_rc - st.rc)
            (recd.Checkpoint.next_wc - st.wc))
    end
    else match xs with Some x -> exit_probe x fidx frame i d | None -> ()
  in
  let at_limit fidx frame i d =
    if d >= st.probe then probe fidx frame i d;
    if d >= budget then begin
      st.dyn <- d + 1;
      raise Hang_exn
    end
  in
  (* Once no event is pending none can fire again, as no handler runs to
     re-arm one: last_write has no reader left. *)
  st.lw_on <- rec_on || event_pending ev;
  let after_event () =
    st.lw_on <- rec_on || event_pending ev;
    match xs with Some x -> after_event x | None -> ()
  in
  let cycle_entry fidx frame pc =
    match xs with Some x -> cycle_entry x fidx frame pc | None -> ()
  in
  let rec exec_fn fidx (frame : Exec.frame) depth ~start ~hook0 =
    (* A local copy of the state record, so the loop reads its counters
       and threshold through one stack slot rather than through the
       closure environment; [opaque_identity] keeps the compiler from
       folding the binding back into the environment access. *)
    let st = Sys.opaque_identity st in
    let cf = Array.unsafe_get funcs fidx in
    let uops = cf.uops and flags = cf.flags and metas = cf.metas in
    let seg_len = cf.seg_len and rc_pre = cf.rc_pre and wc_pre = cf.wc_pre in
    let ints = frame.Exec.ints
    and flts = frame.Exec.flts
    and lw = frame.Exec.last_write in
    if has_bh && hook0 then bh ~fidx ~bidx:0;
    (* The straight-line uops, run from [i] while the pc is below [stop]:
       every uop but calls, jumps, returns, aborts and patched sites,
       which the loop below runs.  Returns the pc reached: [stop], or
       the first of those.  A uop that may trap records its pc in
       [st.trap_pc] first. *)
    let rec straight i stop =
      if i >= stop then i
      else
        match Array.unsafe_get uops i with
        | Uadd (dst, a, b, m) ->
            Array.unsafe_set ints dst
              ((Array.unsafe_get ints a + Array.unsafe_get ints b) land m);
            straight (i + 1) stop
        | Usub (dst, a, b, m) ->
            Array.unsafe_set ints dst
              ((Array.unsafe_get ints a - Array.unsafe_get ints b) land m);
            straight (i + 1) stop
        | Umul (dst, a, b, m) ->
            Array.unsafe_set ints dst
              ((Array.unsafe_get ints a * Array.unsafe_get ints b) land m);
            straight (i + 1) stop
        | Usdiv (dst, a, b, k, m) ->
            let y = Array.unsafe_get ints b in
            if y = 0 then trap_at st i Div_by_zero;
            let x = Array.unsafe_get ints a in
            Array.unsafe_set ints dst
              ((((x lsl k) asr k) / ((y lsl k) asr k)) land m);
            straight (i + 1) stop
        | Uudiv_s (dst, a, b) ->
            let y = Array.unsafe_get ints b in
            if y = 0 then trap_at st i Div_by_zero;
            Array.unsafe_set ints dst (Array.unsafe_get ints a / y);
            straight (i + 1) stop
        | Uudiv_l (dst, a, b, m) ->
            let y = Array.unsafe_get ints b in
            if y = 0 then trap_at st i Div_by_zero;
            let x = Array.unsafe_get ints a in
            Array.unsafe_set ints dst
              (Int64.to_int (Int64.div (to_u64 x) (to_u64 y)) land m);
            straight (i + 1) stop
        | Usrem (dst, a, b, k, m) ->
            let y = Array.unsafe_get ints b in
            if y = 0 then trap_at st i Div_by_zero;
            let x = Array.unsafe_get ints a in
            Array.unsafe_set ints dst
              (Stdlib.( mod ) ((x lsl k) asr k) ((y lsl k) asr k) land m);
            straight (i + 1) stop
        | Uurem_s (dst, a, b) ->
            let y = Array.unsafe_get ints b in
            if y = 0 then trap_at st i Div_by_zero;
            Array.unsafe_set ints dst (Stdlib.( mod ) (Array.unsafe_get ints a) y);
            straight (i + 1) stop
        | Uurem_l (dst, a, b, m) ->
            let y = Array.unsafe_get ints b in
            if y = 0 then trap_at st i Div_by_zero;
            let x = Array.unsafe_get ints a in
            Array.unsafe_set ints dst
              (Int64.to_int (Int64.rem (to_u64 x) (to_u64 y)) land m);
            straight (i + 1) stop
        | Uand (dst, a, b) ->
            Array.unsafe_set ints dst
              (Array.unsafe_get ints a land Array.unsafe_get ints b);
            straight (i + 1) stop
        | Uor (dst, a, b) ->
            Array.unsafe_set ints dst
              (Array.unsafe_get ints a lor Array.unsafe_get ints b);
            straight (i + 1) stop
        | Uxor (dst, a, b) ->
            Array.unsafe_set ints dst
              (Array.unsafe_get ints a lxor Array.unsafe_get ints b);
            straight (i + 1) stop
        | Ushl (dst, a, b, w, m) ->
            let y = Array.unsafe_get ints b in
            Array.unsafe_set ints dst
              (if y < 0 || y >= w then 0
               else (Array.unsafe_get ints a lsl y) land m);
            straight (i + 1) stop
        | Ulshr (dst, a, b, w) ->
            let y = Array.unsafe_get ints b in
            Array.unsafe_set ints dst
              (if y < 0 || y >= w then 0 else Array.unsafe_get ints a lsr y);
            straight (i + 1) stop
        | Uashr (dst, a, b, w, k, m) ->
            let y = Array.unsafe_get ints b in
            let s = if y < 0 || y >= w then w - 1 else y in
            Array.unsafe_set ints dst
              ((((Array.unsafe_get ints a lsl k) asr k) asr s) land m);
            straight (i + 1) stop
        | Uicmp (op, k, dst, a, b) ->
            let x = Array.unsafe_get ints a and y = Array.unsafe_get ints b in
            let r =
              match op with
              | 0 -> x = y
              | 1 -> x <> y
              | 2 -> (x lsl k) asr k < (y lsl k) asr k
              | 3 -> (x lsl k) asr k <= (y lsl k) asr k
              | 4 -> (x lsl k) asr k > (y lsl k) asr k
              | 5 -> (x lsl k) asr k >= (y lsl k) asr k
              | 6 -> x lxor min_int < y lxor min_int
              | 7 -> x lxor min_int <= y lxor min_int
              | 8 -> x lxor min_int > y lxor min_int
              | _ -> x lxor min_int >= y lxor min_int
            in
            Array.unsafe_set ints dst (if r then 1 else 0);
            straight (i + 1) stop
        | Ufadd (dst, a, b) ->
            Array.unsafe_set flts dst
              (Array.unsafe_get flts a +. Array.unsafe_get flts b);
            straight (i + 1) stop
        | Ufsub (dst, a, b) ->
            Array.unsafe_set flts dst
              (Array.unsafe_get flts a -. Array.unsafe_get flts b);
            straight (i + 1) stop
        | Ufmul (dst, a, b) ->
            Array.unsafe_set flts dst
              (Array.unsafe_get flts a *. Array.unsafe_get flts b);
            straight (i + 1) stop
        | Ufdiv (dst, a, b) ->
            Array.unsafe_set flts dst
              (Array.unsafe_get flts a /. Array.unsafe_get flts b);
            straight (i + 1) stop
        | Ufcmp (op, dst, a, b) ->
            let x = Array.unsafe_get flts a and y = Array.unsafe_get flts b in
            let ordered = (not (Float.is_nan x)) && not (Float.is_nan y) in
            let r =
              match op with
              | 0 -> ordered && x = y
              | 1 -> ordered && x <> y
              | 2 -> x < y
              | 3 -> x <= y
              | 4 -> x > y
              | _ -> x >= y
            in
            Array.unsafe_set ints dst (if r then 1 else 0);
            straight (i + 1) stop
        | Usel_i (dst, c, a, b) ->
            Array.unsafe_set ints dst
              (if Array.unsafe_get ints c <> 0 then Array.unsafe_get ints a
               else Array.unsafe_get ints b);
            straight (i + 1) stop
        | Usel_f (dst, c, a, b) ->
            Array.unsafe_set flts dst
              (if Array.unsafe_get ints c <> 0 then Array.unsafe_get flts a
               else Array.unsafe_get flts b);
            straight (i + 1) stop
        | Umask (dst, a, m) ->
            Array.unsafe_set ints dst (Array.unsafe_get ints a land m);
            straight (i + 1) stop
        | Usext (dst, a, k, m) ->
            Array.unsafe_set ints dst
              (((Array.unsafe_get ints a lsl k) asr k) land m);
            straight (i + 1) stop
        | Ufptosi (dst, a, m) ->
            let x = Array.unsafe_get flts a in
            Array.unsafe_set ints dst
              (if Float.is_nan x || Float.abs x >= 4.611686018427387904e18 then 0
               else int_of_float x land m);
            straight (i + 1) stop
        | Usitofp (dst, a, k) ->
            Array.unsafe_set flts dst
              (float_of_int ((Array.unsafe_get ints a lsl k) asr k));
            straight (i + 1) stop
        | Umov_i (dst, a) ->
            Array.unsafe_set ints dst (Array.unsafe_get ints a);
            straight (i + 1) stop
        | Umov_f (dst, a) ->
            Array.unsafe_set flts dst (Array.unsafe_get flts a);
            straight (i + 1) stop
        | Uload_i (dst, addr, w) ->
            st.trap_pc <- i;
            Array.unsafe_set ints dst
              (Memory.read_int mem ~width:w ~addr:(Array.unsafe_get ints addr));
            straight (i + 1) stop
        | Uload_f (dst, addr) ->
            st.trap_pc <- i;
            Array.unsafe_set flts dst
              (Memory.read_f64 mem ~addr:(Array.unsafe_get ints addr));
            straight (i + 1) stop
        | Ustore_i (v, addr, w) ->
            st.trap_pc <- i;
            Memory.write_int mem ~width:w
              ~addr:(Array.unsafe_get ints addr)
              (Array.unsafe_get ints v);
            straight (i + 1) stop
        | Ustore_f (v, addr) ->
            st.trap_pc <- i;
            Memory.write_f64 mem
              ~addr:(Array.unsafe_get ints addr)
              (Array.unsafe_get flts v);
            straight (i + 1) stop
        | Ugep (dst, base, index, scale) ->
            let idx =
              ((Array.unsafe_get ints index land 0xFFFFFFFF) lsl 31) asr 31
            in
            Array.unsafe_set ints dst
              ((Array.unsafe_get ints base + (idx * scale)) land 0xFFFFFFFF);
            straight (i + 1) stop
        | Ucall_b1 (dst, fn, a) ->
            let r = fn (Array.unsafe_get flts a) in
            if dst >= 0 then Array.unsafe_set flts dst r;
            straight (i + 1) stop
        | Ucall_b2 (dst, fn, a, b) ->
            let r = fn (Array.unsafe_get flts a) (Array.unsafe_get flts b) in
            if dst >= 0 then Array.unsafe_set flts dst r;
            straight (i + 1) stop
        | Uout_i (s, tag) ->
            let v = Array.unsafe_get ints s in
            (match tag with
            | 0 -> Buffer.add_uint8 out (v land 0xFF)
            | 1 -> Buffer.add_uint16_le out v
            | 2 -> Buffer.add_int32_le out (Int32.of_int v)
            | _ -> Buffer.add_int64_le out (to_u64 v));
            straight (i + 1) stop
        | Uout_f s ->
            Buffer.add_int64_le out (Int64.bits_of_float (Array.unsafe_get flts s));
            straight (i + 1) stop
        | Uguard_i (a, b) ->
            if Array.unsafe_get ints a <> Array.unsafe_get ints b then
              trap_at st i Guard_violation;
            straight (i + 1) stop
        | Uguard_f (a, b) ->
            if
              not
                (Int64.equal
                   (Int64.bits_of_float (Array.unsafe_get flts a))
                   (Int64.bits_of_float (Array.unsafe_get flts b)))
            then trap_at st i Guard_violation;
            straight (i + 1) stop
        | Ucall _ | Ujmp _ | Ucbr _ | Uret | Uret_i _ | Uret_f _ | Uabort
        | Uinterp _ | Uinterp_t _ ->
            i
    in
    (* [pc] is -1 once the function has returned.  [wi], [wf], [wd]: the
       pc, flags and dyn of the uop whose write post-block ends the
       iteration. *)
    let pc = ref start in
    let wi = ref 0 and wf = ref 0 and wd = ref 0 in
    while !pc >= 0 do
      let i = !pc in
      let d = st.dyn in
      let len = Array.unsafe_get seg_len i in
      let fin = d + len in
      (* [j]: the uop that is not straight-line to run next, its
         counters advanced but for its write post-block; -1 when the
         iteration ran a straight-line uop on its own. *)
      let j =
        if
          fin <= st.limit && fin <= ev.ev_dyn
          && ((not watch_read)
             || st.rc + Array.unsafe_get rc_pre (i + len)
                - Array.unsafe_get rc_pre i
                <= ev.ev_cand)
          && ((not watch_write)
             || st.wc + Array.unsafe_get wc_pre (i + len)
                - Array.unsafe_get wc_pre i
                <= ev.ev_cand)
        then begin
          (* A segment: no threshold falls and no event fires inside. *)
          let j =
            try straight i (i + len - 1)
            with Trap.Trap _ as e ->
              account_segment st cf i st.trap_pc;
              raise e
          in
          if st.lw_on then
            for k = i to j - 1 do
              let f = Array.unsafe_get flags k in
              if f land 2 <> 0 then
                Array.unsafe_set lw ((f lsr 2) - 1) (d + k - i)
            done;
          account_segment st cf i j;
          wi := j;
          wf := Array.unsafe_get flags j;
          wd := st.dyn - 1;
          j
        end
        else begin
          (* One instruction, accounted on its own. *)
          if d >= st.limit then at_limit fidx frame i d;
          st.dyn <- d + 1;
          if watch_dyn && d >= ev.ev_dyn then begin
            ev.handle ~dyn:d ~cand:(-1) frame (Array.unsafe_get metas i);
            after_event ()
          end;
          let f = Array.unsafe_get flags i in
          if f land 1 <> 0 then begin
            let c = st.rc in
            st.rc <- c + 1;
            if watch_read && (c >= ev.ev_cand || d >= ev.ev_dyn) then begin
              ev.handle ~dyn:d ~cand:c frame (Array.unsafe_get metas i);
              after_event ()
            end
          end;
          wi := i;
          wf := f;
          wd := d;
          let k = straight i (i + 1) in
          if k > i then begin
            pc := k;
            -1
          end
          else i
        end
      in
      if j >= 0 then begin
        match Array.unsafe_get uops j with
        | Ucall cr ->
            if depth >= Exec.max_call_depth then
              raise (Trap.Trap Stack_overflow);
            let cf2 = Array.unsafe_get funcs cr.c_callee in
            let cframe =
              {
                Exec.ints = Array.copy cf2.int_init;
                flts = Array.copy cf2.flt_init;
                reg_ty = cf2.reg_ty;
                last_write = Array.copy cf2.lw_init;
              }
            in
            let n = Array.length cr.c_args in
            for k = 0 to n - 1 do
              if cr.c_arg_f.(k) then
                cframe.Exec.flts.(k) <- Array.unsafe_get flts cr.c_args.(k)
              else cframe.Exec.ints.(k) <- Array.unsafe_get ints cr.c_args.(k)
            done;
            if shadow_on then push sh fidx frame j !wd;
            exec_fn cr.c_callee cframe (depth + 1) ~start:0 ~hook0:true;
            if shadow_on then pop sh;
            if cr.c_dst >= 0 then
              if cr.c_dst_f then Array.unsafe_set flts cr.c_dst st.ret_f
              else Array.unsafe_set ints cr.c_dst st.ret_i;
            pc := j + 1
        | Ujmp (p, bidx) ->
            pc := p;
            if st.on_block then
              if has_bh then bh ~fidx ~bidx
              else if p = st.watch_pc then cycle_entry fidx frame p
        | Ucbr (c, tpc, tb, fpc, fb) ->
            if Array.unsafe_get ints c <> 0 then begin
              pc := tpc;
              if st.on_block then
                if has_bh then bh ~fidx ~bidx:tb
                else if tpc = st.watch_pc then cycle_entry fidx frame tpc
            end
            else begin
              pc := fpc;
              if st.on_block then
                if has_bh then bh ~fidx ~bidx:fb
                else if fpc = st.watch_pc then cycle_entry fidx frame fpc
            end
        | Uret -> pc := -1
        | Uret_i s ->
            st.ret_i <- Array.unsafe_get ints s;
            pc := -1
        | Uret_f s ->
            st.ret_f <- Array.unsafe_get flts s;
            pc := -1
        | Uabort -> raise (Trap.Trap Abort_called)
        | Uinterp ins ->
            interp_step fidx frame depth j !wd ins;
            pc := j + 1
        | Uinterp_t tm -> (
            match tm with
            | Br l ->
                pc := cf.block_off.(l);
                if st.on_block then
                  if has_bh then bh ~fidx ~bidx:l
                  else if !pc = st.watch_pc then cycle_entry fidx frame !pc
            | Cbr { cond; if_true; if_false } ->
                let l = if igeti frame cond <> 0 then if_true else if_false in
                pc := cf.block_off.(l);
                if st.on_block then
                  if has_bh then bh ~fidx ~bidx:l
                  else if !pc = st.watch_pc then cycle_entry fidx frame !pc
            | Ret None -> pc := -1
            | Ret (Some v) ->
                (match code.source.Program.funcs.(fidx).Program.ret with
                | Some rt when Ir.Ty.is_float rt -> st.ret_f <- igetf frame v
                | Some _ -> st.ret_i <- igeti frame v
                | None -> ());
                pc := -1
            | Unreachable -> raise (Trap.Trap Abort_called))
        | _ -> assert false
      end;
      let f = !wf in
      if f land 2 <> 0 then begin
        let c = st.wc in
        st.wc <- c + 1;
        let d = !wd in
        Array.unsafe_set lw ((f lsr 2) - 1) d;
        if watch_write && (c >= ev.ev_cand || d >= ev.ev_dyn) then begin
          ev.handle ~dyn:d ~cand:c frame (Array.unsafe_get metas !wi);
          after_event ()
        end
      end
    done
  (* One mutated instruction, interpreted generically — the mirror of the
     reference interpreter's [step] over the same (flipped)
     [Ir.Instr.t], with calls re-entering compiled code. *)
  and interp_step fidx (frame : Exec.frame) depth i d (ins : Ir.Instr.t) =
    let ints = frame.Exec.ints and flts = frame.Exec.flts in
    match ins with
    | Binop { op; ty; dst; a; b } ->
        ints.(dst) <- Exec.exec_binop op ty (igeti frame a) (igeti frame b)
    | Fbinop { op; dst; a; b } ->
        flts.(dst) <- Exec.exec_fbinop op (igetf frame a) (igetf frame b)
    | Icmp { op; ty; dst; a; b } ->
        ints.(dst) <- Exec.exec_icmp op ty (igeti frame a) (igeti frame b)
    | Fcmp { op; dst; a; b } ->
        ints.(dst) <- Exec.exec_fcmp op (igetf frame a) (igetf frame b)
    | Select { ty; dst; cond; a; b } ->
        if Ir.Ty.is_float ty then
          flts.(dst) <-
            (if igeti frame cond <> 0 then igetf frame a else igetf frame b)
        else
          ints.(dst) <-
            (if igeti frame cond <> 0 then igeti frame a else igeti frame b)
    | Cast { op; from_ty; to_ty; dst; a } -> (
        match op with
        | Trunc | Ptrtoint | Inttoptr ->
            ints.(dst) <- Ir.Bits.mask to_ty (igeti frame a)
        | Zext -> ints.(dst) <- igeti frame a
        | Sext ->
            ints.(dst) <-
              Ir.Bits.mask to_ty (Ir.Bits.sext from_ty (igeti frame a))
        | Fptosi -> ints.(dst) <- Exec.float_to_int to_ty (igetf frame a)
        | Sitofp ->
            flts.(dst) <- float_of_int (Ir.Bits.sext from_ty (igeti frame a)))
    | Mov { ty; dst; a } ->
        if Ir.Ty.is_float ty then flts.(dst) <- igetf frame a
        else ints.(dst) <- igeti frame a
    | Load { ty; dst; addr } ->
        let a = igeti frame addr in
        if Ir.Ty.is_float ty then flts.(dst) <- Memory.read_f64 mem ~addr:a
        else ints.(dst) <- Memory.read_int mem ~width:(Ir.Ty.bytes ty) ~addr:a
    | Store { ty; value; addr } ->
        let a = igeti frame addr in
        if Ir.Ty.is_float ty then
          Memory.write_f64 mem ~addr:a (igetf frame value)
        else
          Memory.write_int mem ~width:(Ir.Ty.bytes ty) ~addr:a
            (igeti frame value)
    | Gep { dst; base; index; scale } ->
        let idx = Ir.Bits.sext I32 (Ir.Bits.mask I32 (igeti frame index)) in
        ints.(dst) <- Ir.Bits.mask Ptr (igeti frame base + (idx * scale))
    | Call { dst; callee; args } -> (
        match Hashtbl.find_opt code.source.Program.targets callee with
        | None -> assert false (* validated; flips never touch names *)
        | Some (Program.B1 f) ->
            let r = f (igetf frame (List.hd args)) in
            (match dst with Some d -> flts.(d) <- r | None -> ())
        | Some (Program.B2 f) -> (
            match args with
            | [ a; b ] ->
                let r = f (igetf frame a) (igetf frame b) in
                (match dst with Some d -> flts.(d) <- r | None -> ())
            | _ -> assert false)
        | Some (Program.Fn cidx) ->
            if depth >= Exec.max_call_depth then
              raise (Trap.Trap Stack_overflow);
            let cf2 = funcs.(cidx) in
            let cframe =
              {
                Exec.ints = Array.copy cf2.int_init;
                flts = Array.copy cf2.flt_init;
                reg_ty = cf2.reg_ty;
                last_write = Array.copy cf2.lw_init;
              }
            in
            let src = code.source.Program.funcs.(cidx) in
            List.iteri
              (fun j arg ->
                if Ir.Ty.is_float src.Program.params.(j) then
                  cframe.Exec.flts.(j) <- igetf frame arg
                else cframe.Exec.ints.(j) <- igeti frame arg)
              args;
            if shadow_on then push sh fidx frame i d;
            exec_fn cidx cframe (depth + 1) ~start:0 ~hook0:true;
            if shadow_on then pop sh;
            (match (dst, src.Program.ret) with
            | Some d, Some rt ->
                if Ir.Ty.is_float rt then flts.(d) <- st.ret_f
                else ints.(d) <- st.ret_i
            | _ -> ()))
    | Output { ty; value } ->
        if Ir.Ty.is_float ty then
          Exec.add_output out ty 0 (igetf frame value)
        else Exec.add_output out ty (igeti frame value) 0.0
    | Guard { ty; a; b } ->
        let equal =
          if Ir.Ty.is_float ty then
            Int64.equal
              (Int64.bits_of_float (igetf frame a))
              (Int64.bits_of_float (igetf frame b))
          else igeti frame a = igeti frame b
        in
        if not equal then raise (Trap.Trap Guard_violation)
    | Abort -> raise (Trap.Trap Abort_called)
  in
  (* Complete an outer frame's in-progress call exactly as the original
     Ucall iteration would have after its callee returned: assign the
     return value, then run the call's write-candidate post-block with
     the call's own dynamic index [calld].  The iteration's budget check
     and read-candidate pre-block already happened in the prefix.  The
     call record is read from the PRISTINE code ([orig], when given):
     checkpoints capture pre-flip prefixes, and non-checkpoint execution
     on both interpreters destructures the call record at dispatch, so an
     in-flight call completes with its original destination even if a
     stored-program flip later patches that slot. *)
  let orig_funcs =
    match orig with Some (o : t) -> o.funcs | None -> funcs
  in
  let complete_call fidx (frame : Exec.frame) i calld =
    let cf = funcs.(fidx) in
    (match orig_funcs.(fidx).uops.(i) with
    | Ucall cr ->
        if cr.c_dst >= 0 then
          if cr.c_dst_f then frame.Exec.flts.(cr.c_dst) <- st.ret_f
          else frame.Exec.ints.(cr.c_dst) <- st.ret_i
    | _ -> assert false);
    let fl = cf.flags.(i) in
    if fl land 2 <> 0 then begin
      let c = st.wc in
      st.wc <- c + 1;
      frame.Exec.last_write.((fl lsr 2) - 1) <- calld;
      if watch_write && (c >= ev.ev_cand || calld >= ev.ev_dyn) then begin
        ev.handle ~dyn:calld ~cand:c frame cf.metas.(i);
        after_event ()
      end
    end
  in
  let rebuild (s : Checkpoint.frame_snap) =
    {
      Exec.ints = Array.copy s.fs_ints;
      flts = Array.copy s.fs_flts;
      reg_ty = funcs.(s.fs_fidx).reg_ty;
      last_write = Array.copy s.fs_lw;
    }
  in
  (* Re-enter the captured stack: the innermost frame runs to completion
     first, then each outer frame completes its call and continues. *)
  let rec resume_stack snaps depth =
    match snaps with
    | [] -> assert false
    | [ (inner : Checkpoint.frame_snap) ] ->
        exec_fn inner.fs_fidx (rebuild inner) depth ~start:inner.fs_pc
          ~hook0:false
    | (outer : Checkpoint.frame_snap) :: rest ->
        let frame = rebuild outer in
        if shadow_on then push sh outer.fs_fidx frame outer.fs_pc outer.fs_call_dyn;
        resume_stack rest (depth + 1);
        if shadow_on then pop sh;
        complete_call outer.fs_fidx frame outer.fs_pc outer.fs_call_dyn;
        exec_fn outer.fs_fidx frame depth ~start:(outer.fs_pc + 1)
          ~hook0:false
  in
  (match xs with
  | _ when rec_on -> rearm st 0
  | Some x when not (event_pending ev) -> arm x
  | Some _ | None -> ());
  let converged = ref false in
  let status =
    try
      (match resume with
      | Some p -> resume_stack (Array.to_list p.Checkpoint.ck_stack) 0
      | None ->
          let mainf = funcs.(code.main) in
          let frame =
            {
              Exec.ints = Array.copy mainf.int_init;
              flts = Array.copy mainf.flt_init;
              reg_ty = mainf.reg_ty;
              last_write = Array.copy mainf.lw_init;
            }
          in
          exec_fn code.main frame 0 ~start:0 ~hook0:true);
      Exec.Finished
    with
    | Trap.Trap t -> Exec.Trapped t
    | Hang_exn -> Exec.Hung
    | Converge_exn ->
        converged := true;
        Exec.Finished
    | e ->
        if shadow_on then release_shadow sh;
        raise e
  in
  if shadow_on then release_shadow sh;
  Obs.Metrics.add m_segment_instrs st.seg_instrs;
  match xs with
  | Some x when !converged ->
      (* [st.dyn] stopped at the point: that many were executed. *)
      let result = x.golden.Checkpoint.final in
      let skipped = result.Exec.dyn_count - st.dyn in
      note_exit m_exit_converge skipped;
      Exec.record_run ~skipped result;
      result
  | _ ->
      let result =
        {
          Exec.status;
          output = Buffer.contents out;
          dyn_count = st.dyn;
          read_cands = st.rc;
          write_cands = st.wc;
        }
      in
      let skipped = match xs with Some x -> x.skipped | None -> 0 in
      if skipped > 0 then note_exit m_exit_cycle skipped;
      Exec.record_run ~skipped result;
      result

let run ?events ?block_hook ?record ?exits ?mem ~budget code =
  run_internal ?events ?block_hook ?record ?exits ?mem ~budget code

(* An event at every candidate of the stream: the handler re-arms the
   threshold one ordinal past the candidate it just saw. *)
let each_candidate ~watch ~budget code f =
  let rec ev =
    {
      watch = (watch :> [ `Read | `Write | `Dyn ]);
      ev_cand = 0;
      ev_dyn = max_int;
      handle =
        (fun ~dyn ~cand frame meta ->
          f ~dyn ~cand frame meta;
          ev.ev_cand <- cand + 1);
    }
  in
  run ~events:ev ~budget code

let resume ~events ~mem ~(point : Checkpoint.point) ?orig ?exits ~budget code =
  Checkpoint.note_restore point;
  Memory.restore_pages mem point.ck_pages;
  run_internal ~events ~mem ~resume:point ?orig ?exits ~budget code
