(** Reference interpreter for the HLS C dialect.

    Used as the functional-equivalence oracle: the bytecode interpreter and
    this interpreter must agree on every kernel, before and after every
    Merlin transformation. Also executes the "FPGA side" of the Blaze
    simulator (timing comes from {!S2fa_hls}, not from here), where each
    accelerator is {!compile}d once and {!run} per batch. *)

type cvalue =
  | VI of int          (** int/char/bool *)
  | VL of int64
  | VF of float        (** float/double *)
  | VA of cvalue array (** array/buffer; mutated in place *)

exception C_error of string

exception Return_value of cvalue option
(** Internal control-flow exception; escapes only on misuse. *)

val zero_of : Csyntax.cty -> cvalue

val alloc : Csyntax.cty -> cvalue
(** Allocate a local of the given type ([CArr] allocates recursively). *)

val equal_cvalue : cvalue -> cvalue -> bool

(** {2 Scalar semantics}

    The exact numeric behaviour of the interpreter, exposed so that the
    symbolic evaluator ({!S2fa_sym}) folds constants with byte-identical
    results. All of these raise {!C_error} on shape mismatches (arrays
    where scalars are expected, division by zero, ...). *)

val truthy : cvalue -> bool
val as_int : cvalue -> int
val as_float : cvalue -> float

val arith : Csyntax.cbinop -> cvalue -> cvalue -> cvalue
(** Arithmetic and bitwise operators, with the usual promotion order
    (float > long > int). Not comparisons or short-circuit logic. *)

val compare_cv : Csyntax.cbinop -> cvalue -> cvalue -> cvalue
(** Comparison operators; always returns [VI 0] or [VI 1]. *)

val cast : Csyntax.cty -> cvalue -> cvalue

val call_math : string -> cvalue list -> cvalue
(** The libm subset available to kernels (sqrt, exp, pow, fmin, ...). *)

type program
(** A program resolved for execution: every variable is a slot of its
    function's frame (C99 static scoping), every user call a direct
    reference to the callee, and every statement and expression a
    closure over the frame. Build it once and run it many times. *)

val compile : Csyntax.cprog -> program
(** Never fails: a name no declaration reaches, or a call whose arity
    does not match its callee, compiles to code that raises only if it
    runs. *)

val run :
  ?fuel:int -> program -> string -> (string * cvalue) list -> cvalue option
(** [run prog name args] executes function [name] with the named
    argument values (missing parameters raise {!C_error}); returns the
    function result. Buffers passed as [VA] are mutated in place, which
    is how kernels deliver their outputs. [fuel] bounds executed
    statements plus loop iterations (default 200 million); exhausting
    it raises [C_error "fuel exhausted"]. Operands evaluate right to
    left, so when both fail the right one's error is reported. *)

val run_func :
  ?fuel:int -> Csyntax.cprog -> string -> (string * cvalue) list -> cvalue option
(** [compile] then [run], for one-shot callers. *)
