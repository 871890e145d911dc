(** Fault domains: where an injected bit flip lands.

    The paper's model flips dynamic register operands ([Reg], the
    default everywhere).  The two additional domains extend the study to
    stored state, per ROADMAP item 4 / the paper's future-work section:

    - [Mem] — a uniform bit of a uniform mapped arena byte, flipped
      between dynamic instructions: the data-memory/cache analog.
    - [Code] — a uniform bit of a uniform instruction field of the
      stored program, flipped between dynamic instructions: the
      instruction-cache analog.  The flip patches a private fork of the decoded micro-op arrays
      (decode-cache invalidation); flips that produce an undecodable
      field raise {!Vm.Trap.Trap}[ Ill_instr].

    This module shadows [Stdlib.Domain] inside [lib/core]; qualify
    OCaml's multicore domains as [Stdlib.Domain] there. *)

type t = Reg | Mem | Code

val to_string : t -> string
(** ["reg"], ["mem"], ["code"] — the store/CSV/CLI spelling. *)

val of_string : string -> t option
(** Lenient inverse of {!to_string}: also accepts ["register(s)"],
    ["memory"], ["icache"], ["program"], case-insensitive. *)

val all : t list

val index : t -> int
(** Position in {!all}; a dense index for array-backed per-domain
    tables (e.g. the injection counters). *)

val equal : t -> t -> bool
