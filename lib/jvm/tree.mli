(** The per-block stack-to-tree pass.

    Inside a basic block ({!Cfg}) an operand only travels from the
    instruction that pushes it to the one that pops it, so the block is a
    sequence of expression trees rooted at the instructions that consume
    values without pushing any (stores, array stores, pops, void
    invokes), followed by its terminator. This is the [exprs]/[stmts]
    recovery of a bytecode decompiler, done once for both consumers: b2c
    maps the trees to C, and {!Interp} compiles them to closures.

    Two rules keep the trees faithful to the stack machine:

    - A value still on the stack under a statement or terminator is
      spilled first: bound to a block-local temporary, in stack order,
      before the statement's own operands. So a tree never reads a local
      after a later store to it, and evaluating the block's trees in
      order, each operand before its operator, visits the instructions
      in execution order.
    - A [Dup] binds its operand to a temporary read twice, so the
      duplicated tree is evaluated once.

    Pop and push counts come from {!Insn.stack_effect}, which {!Verify}
    also uses. The pass is total: an instruction that would underflow
    ends the block with {!Underflow}, which raises only when reached.
    Each block starts with an empty stack ({!Verify}'s invariant); a
    value left on the stack at the end of a block is spilled and
    dropped. *)

type expr =
  | Op of int * expr list
      (** The instruction at this pc applied to its operands, in push
          order. *)
  | Temp of int  (** A temporary bound earlier in the same block. *)

type stmt =
  | Bind of int * expr
      (** Temporary [t] := the value. A spill, or a [Dup] (the [Op] at
          the dup's pc, with its one operand). *)
  | Effect of int * expr list
      (** The store, array store, pop or void invoke at this pc, with its
          operands. *)

type exit =
  | Fall  (** No terminator: control runs into the next instruction. *)
  | Branch of int * expr list
      (** The goto, compare-and-branch, branch-if-false, return or void
          return at this pc, with its operands. *)
  | Underflow of int
      (** The instruction at this pc pops more values than the block
          holds; the instructions after it are not translated. *)

type block = {
  stmts : stmt list;  (** In execution order. *)
  exit : exit;
  temps : int;  (** Temporaries the block binds, numbered from 0. *)
}

val of_block : Insn.cls -> Insn.insn array -> first:int -> last:int -> block
(** The trees of instructions [first..last] of a method's code. *)
