module Insn = S2fa_jvm.Insn
module Csyntax = S2fa_hlsc.Csyntax

(** The bytecode-to-C compiler (the paper's modified-APARAPI component).

    Decompilation recovers structured C from stack-machine bytecode:

    + build the CFG and its (post)dominator trees ({!S2fa_jvm.Cfg});
    + walk the graph recursively, turning natural loops into [while]
      loops and two-way branches into [if]/[else] regions bounded by the
      immediate postdominator;
    + map each basic block's expression trees ({!S2fa_jvm.Tree}, the
      pass the bytecode interpreter compiles too) to C expressions,
      emitting a C statement at every store;
    + flatten object-typed values: tuples become one C buffer per
      component, [this] fields become extra kernel arguments, and the
      returned value is written through [out_*] interface buffers
      (Challenge 1 of the paper);
    + recover counted [for] loops from while-shaped regions so the
      design-space tools can address them.

    The [kernel] wrapper function implementing the RDD [map] operator
    (one call per task, buffers indexed by task id) is appended, matching
    Code 3 of the paper. *)

exception Decompile_error of string

(** Layout of one flattened interface component. *)
type slot_layout = {
  sl_name : string;       (** C parameter name, e.g. ["in_1"]. *)
  sl_elem : Csyntax.cty;  (** Scalar element type. *)
  sl_len : int;           (** Elements per task (1 for scalars). *)
}

(** Interface description consumed by the Blaze (de)serialization
    generator. *)
type iface = {
  if_inputs : slot_layout list;
  if_outputs : slot_layout list;
  if_fields : slot_layout list;  (** Broadcast data, not per-task. *)
  if_kernel : string;            (** Name of the task-loop entry point. *)
  if_call : string;              (** Name of the per-task function. *)
  if_reduce : bool;              (** Kernel implements the reduce operator. *)
}

val decompile_class :
  ?operator:[ `Map | `Reduce ] ->
  ?in_caps:int list ->
  ?out_caps:int list ->
  ?field_caps:(string * int) list ->
  Insn.cls ->
  Csyntax.cprog * iface
(** Translate an [Accelerator] class. [in_caps]/[out_caps] give the
    fixed capacity (elements per task) of each array-typed flattened
    input/output component, in flattening order; [field_caps] the
    capacity of each array-typed field. Capacities default to 64.

    [operator] selects the RDD-operator template (Section 3.2 of the
    paper). [`Map] (default): one [call] per task, task-indexed buffers.
    [`Reduce]: [call] is a combiner of type [(T, T) -> T]; the kernel
    folds the [N] input tasks sequentially through an on-chip
    accumulator living in the (single-slot) output buffers. Raises
    {!Decompile_error} on constructs outside the supported subset
    (Section 3.3) or, for [`Reduce], when the class signature is not a
    combiner. *)

val flat_kernel : Csyntax.cprog -> Csyntax.cprog
(** Inline the per-task [call] function into [kernel]'s task loop (gid
    substituted by the loop variable), keeping every loop id stable. The
    result is what the design-space tools and the HLS estimator consume;
    helper functions remain as calls. *)
