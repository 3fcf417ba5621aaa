module Ast = S2fa_scala.Ast

(** Bytecode interpreter with an instruction-level cost model.

    This is the "JVM" of the reproduction: it executes kernels for
    functional results and accounts a cycle cost per instruction. A
    class is compiled once ({!load}) into closures over the expression
    trees of its basic blocks and then run per task ({!run}). The cost
    table reflects a JIT-compiled single JVM thread (the Fig. 4 baseline):
    cheap register traffic, expensive division/transcendentals, and a
    visible overhead for object (tuple) allocation and virtual calls —
    the overheads S2FA's flattening removes on the FPGA side. *)

type value =
  | VInt of int
  | VLong of int64
  | VFloat of float
  | VDouble of float
  | VBool of bool
  | VChar of char
  | VUnit
  | VArr of varray
  | VTuple of value array

and varray = { aelem : Ast.ty; adata : value array }

exception Runtime_error of string

val default_value : Ast.ty -> value
(** The JVM zero value of a type (arrays/tuples are not allocatable this
    way and raise {!Runtime_error}). *)

val value_of_lit : Ast.lit -> value

val alloc_array : Ast.ty -> int list -> value
(** [alloc_array elem dims] allocates a (possibly nested) array filled
    with zero values. *)

val equal_value : value -> value -> bool
(** Structural equality; arrays compare element-wise. *)

val pp_value : Format.formatter -> value -> unit

(** Cycle cost per instruction category. *)
type cost_model = {
  c_const : float;
  c_local : float;          (** load/store *)
  c_array_access : float;   (** aload/astore *)
  c_alloc_per_elem : float;
  c_tuple_alloc : float;    (** boxing + allocation *)
  c_tuple_get : float;
  c_field : float;
  c_int_add : float;
  c_int_mul : float;
  c_int_div : float;
  c_fp_add : float;
  c_fp_mul : float;
  c_fp_div : float;
  c_math : string -> float; (** per intrinsic *)
  c_branch : float;
  c_invoke : float;
  c_conv : float;
}

val default_cost_model : cost_model

type instance = { icls : Insn.cls; ifields : (string * value) list }
(** An object of a compiled class with its constructor-parameter values. *)

type result = {
  rvalue : value;
  rcycles : float;  (** Modeled JVM cycles consumed. *)
  rinsns : int;     (** Bytecode instructions executed. *)
}

type program
(** A class compiled against one instance and one cost model, ready to
    run any number of times. Its runs share one machine, so a program
    must not run on two domains at once. *)

val load : ?cost:cost_model -> instance -> program
(** Compile every method of the instance's class once. Each basic block
    ({!Cfg}) becomes the expression trees of {!Tree}, and each tree a
    closure: there is no operand stack. Int arithmetic, indices and
    compares run on unboxed [int]s; callees are resolved to their
    compiled methods, field reads to their values, constants to
    prebuilt values and each instruction's cost to a float of [cost]
    (default {!default_cost_model}). Loading never fails: what the code
    does wrong (an underflow, a missing callee or field, a slot or jump
    target outside the frame or code) raises when it is reached. *)

val run : ?fuel:int -> program -> string -> value list -> result
(** [run p name args] executes method [name]. [fuel] bounds the number
    of executed instructions (default 200 million); exhausting it
    raises [Runtime_error "fuel exhausted (infinite loop?)"], so a run
    needs exactly [rinsns + 1] fuel.

    Every tree node charges its instruction's fuel and cycles after its
    operands and before it acts, so instructions are charged one at a
    time in execution order: [rcycles] is the float sum of the executed
    instructions' costs in that order, whatever the cost model, and a
    failing run raises at the instruction that fails. All frames share
    one locals array, so calls allocate nothing.

    The trees take two facts of verified code ({!Verify}) as given: an
    invoke yields a value exactly when its callee is declared to return
    one, and no value crosses a block boundary. A value a block leaves on
    the stack is evaluated and dropped; a block that pops more than it
    pushed raises [Runtime_error "<method>: operand stack underflow"]
    when it reaches that instruction. *)

val run_method :
  ?cost:cost_model -> ?fuel:int -> instance -> string -> value list -> result
(** [run_method ?cost ?fuel inst] is [run ?fuel (load ?cost inst)]. *)
