(** Control-flow graph over bytecode, with dominator and postdominator
    trees and natural-loop detection: the blocks {!Tree} turns into
    expression trees, and the substrate of b2c's structured control-flow
    recovery. *)

type block = {
  bid : int;            (** Index into {!t}'s block array. *)
  first : int;          (** First instruction (inclusive). *)
  last : int;           (** Last instruction (inclusive). *)
  succs : int list;
      (** Successor block ids. For a conditional branch the jump target
          comes first, fall-through second. *)
  preds : int list;
}

type t = {
  blocks : block array;
  entry : int;
  block_of_pc : int array;  (** pc -> enclosing block id. *)
  idom : int array;         (** Immediate dominator (-1 for entry). *)
  ipdom : int array;
      (** Immediate postdominator (-1 when none / virtual exit). *)
  loop_headers : (int * int list) list;
      (** [(header, body)] of each natural loop; [body] includes the
          header and is sorted. *)
}

val build : Insn.insn array -> t
(** Blocks of non-empty code. A jump target outside the code starts no
    block and is no successor, so unverified code still partitions. *)

val dominates : t -> int -> int -> bool
(** [dominates t a b]: block [a] dominates block [b]. *)

val loop_body_of : t -> int -> int list option
(** Body (including header) of the natural loop headed at a block. *)

val pp : Format.formatter -> t -> unit
