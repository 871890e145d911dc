(* Fault domains: where a bit flip lands.

   [Reg] is the paper's model — a transient flip of a dynamic register
   operand at a read or write candidate.  [Mem] flips a bit of a live
   arena byte between dynamic instructions (data memory / caches).
   [Code] flips a bit of the stored program — an instruction field of
   the loaded IR, the instruction-cache analog — with decode-cache
   invalidation semantics.

   Note: this module shadows [Stdlib.Domain] inside [Core]; the few
   call sites that need OCaml's multicore domains qualify them as
   [Stdlib.Domain]. *)

type t = Reg | Mem | Code

let to_string = function Reg -> "reg" | Mem -> "mem" | Code -> "code"

(* Lenient, like every Config resolver: aliases accepted, unknown
   values rejected as [None]. *)
let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "reg" | "register" | "registers" -> Some Reg
  | "mem" | "memory" -> Some Mem
  | "code" | "icache" | "program" -> Some Code
  | _ -> None

let all = [ Reg; Mem; Code ]
let index = function Reg -> 0 | Mem -> 1 | Code -> 2
let equal (a : t) (b : t) = a = b
