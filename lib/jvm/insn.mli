module Ast = S2fa_scala.Ast
module Tast = S2fa_scala.Tast
module Parser = S2fa_scala.Parser
module Typecheck = S2fa_scala.Typecheck

(** The bytecode instruction set of the JVM substrate.

    A stack machine in the image of real JVM bytecode, reduced to what the
    MiniScala subset needs: typed arithmetic, local slots, arrays, tuples
    (standing in for [scala.TupleN] objects), field reads, intrinsic math
    calls and same-class invocations.

    Control flow uses instruction indices as jump targets (labels are
    resolved at assembly time). By construction of {!Compile}, the operand
    stack is empty at every jump target — the property the bytecode-to-C
    decompiler relies on. *)

type ty = Ast.ty
(** Canonical types ({!Tast.canon_ty} applied): [TString] never occurs. *)

(** Comparison condition for fused compare-and-branch. *)
type cond = Clt | Cle | Cgt | Cge | Ceq | Cne

type insn =
  | Ldc of Ast.lit                  (** Push a constant. *)
  | Load of int                     (** Push local slot [n]. *)
  | Store of int                    (** Pop into local slot [n]. *)
  | ALoad                           (** [.. arr idx] -> [.. arr(idx)]. *)
  | AStore                          (** [.. arr idx v] -> [..]; stores. *)
  | ArrayLength                     (** [.. arr] -> [.. len]. *)
  | NewArr of ty * int list
      (** Allocate an array with constant dimensions (element type,
          dims); nested dims allocate arrays of arrays. *)
  | NewTup of int                   (** Pop [n] values, push a tuple. *)
  | TupGet of int                   (** Push 0-based component of tuple. *)
  | GetField of string              (** Read a field of [this]. *)
  | Bin of ty * Ast.binop           (** Arithmetic/bitwise on operand type. *)
  | Un of ty * Ast.unop
  | Conv of ty * ty                 (** [Conv (from, to_)]: numeric cast. *)
  | MathOp of string                (** [math.*] intrinsic (arity implied). *)
  | Invoke of string * int          (** Same-class method, [n] arguments. *)
  | CmpJmp of ty * cond * int       (** Pop two, jump to target if true. *)
  | IfFalse of int                  (** Pop Boolean, jump if false. *)
  | Goto of int
  | Ret                             (** Return top of stack. *)
  | RetVoid
  | Dup
  | Pop

type methd = {
  jname : string;
  jargs : (string * ty) list;   (** Parameter names/types; slots [0..n-1]. *)
  jret : ty;
  jslots : int;                 (** Total number of local slots. *)
  jcode : insn array;
  jslot_names : string array;
      (** Debug name per slot (synthesized temps get ["$tN"]). *)
}

type cls = {
  jcname : string;
  jfields : (string * ty) list;
  jconsts : (string * Ast.lit) list;
  jaccel : (ty * ty) option;
  jmethods : methd list;
}

val math_arity : string -> int
(** Arity of a math intrinsic (1 or 2). *)

val find_jmethod : cls -> string -> methd option

val stack_effect : cls -> insn -> int * int
(** [(pops, pushes)] of an instruction. An invoke pushes a value unless
    its callee returns [Unit] or is not a method of the class. *)

val pp_insn : Format.formatter -> insn -> unit
(** Disassembly-style rendering, e.g. ["cmpjmp Int < -> 12"]. *)

val pp_method : Format.formatter -> methd -> unit
(** Full listing with instruction indices. *)
