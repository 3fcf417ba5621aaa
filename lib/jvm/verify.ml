module Ast = S2fa_scala.Ast

exception Verify_error of string

let err fmt = Printf.ksprintf (fun m -> raise (Verify_error m)) fmt

(* Stack effect of an instruction; an invoke must name a method of the
   class. *)
let stack_effect cls ins =
  (match ins with
  | Insn.Invoke (name, _) when Insn.find_jmethod cls name = None ->
    err "invoke of unknown method %s" name
  | _ -> ());
  Insn.stack_effect cls ins

let jump_targets = function
  | Insn.CmpJmp (_, _, l) | Insn.IfFalse l | Insn.Goto l -> [ l ]
  | Insn.Ldc _ | Insn.Load _ | Insn.Store _ | Insn.ALoad | Insn.AStore
  | Insn.ArrayLength | Insn.NewArr _ | Insn.NewTup _ | Insn.TupGet _
  | Insn.GetField _ | Insn.Bin _ | Insn.Un _ | Insn.Conv _ | Insn.MathOp _
  | Insn.Invoke _ | Insn.Ret | Insn.RetVoid | Insn.Dup | Insn.Pop ->
    []

let verify_method_count cls (m : Insn.methd) =
  let code = m.Insn.jcode in
  let n = Array.length code in
  if n = 0 then err "%s: empty code" m.Insn.jname;
  (* Collect jump targets for the empty-stack-at-target check. *)
  let is_target = Array.make n false in
  Array.iter
    (fun i ->
      List.iter
        (fun l ->
          if l < 0 || l >= n then
            err "%s: jump target %d out of range" m.Insn.jname l;
          is_target.(l) <- true)
        (jump_targets i))
    code;
  let depth = Array.make n (-1) in
  let worklist = Queue.create () in
  let visit pc d =
    if pc >= n then err "%s: control flow falls off the end" m.Insn.jname;
    if depth.(pc) = -1 then begin
      depth.(pc) <- d;
      Queue.add (pc, d) worklist
    end
    else if depth.(pc) <> d then
      err "%s: inconsistent stack depth at pc %d (%d vs %d)" m.Insn.jname pc
        depth.(pc) d
  in
  (* Seed the entry point exactly once. [visit] would also work here, but
     recording the depth first keeps the seed identical to how every other
     pc enters the worklist; a second [Queue.add (0, 0)] used to sit next
     to it and made pc 0 (and its whole successor cone) be processed
     twice. *)
  depth.(0) <- 0;
  Queue.add (0, 0) worklist;
  let processed = ref 0 in
  while not (Queue.is_empty worklist) do
    let pc, d = Queue.pop worklist in
    incr processed;
    let ins = code.(pc) in
    if is_target.(pc) && d <> 0 then
      err "%s: non-empty stack (%d) at jump target %d" m.Insn.jname d pc;
    (match ins with
    | Insn.Load s | Insn.Store s ->
      if s < 0 || s >= m.Insn.jslots then
        err "%s: slot %d out of range at pc %d" m.Insn.jname s pc
    | _ -> ());
    let pops, pushes = stack_effect cls ins in
    if d < pops then
      err "%s: stack underflow at pc %d (%d < %d)" m.Insn.jname pc d pops;
    let d' = d - pops + pushes in
    (match ins with
    | Insn.Ret ->
      if d <> 1 then
        err "%s: ret with stack depth %d at pc %d" m.Insn.jname d pc
    | Insn.RetVoid ->
      if d <> 0 then
        err "%s: retvoid with stack depth %d at pc %d" m.Insn.jname d pc
    | Insn.Goto l -> visit l d'
    | Insn.CmpJmp (_, _, l) | Insn.IfFalse l ->
      if d' <> 0 then
        err "%s: branch with non-empty stack (%d) at pc %d" m.Insn.jname d' pc;
      visit l d';
      visit (pc + 1) d'
    | _ -> visit (pc + 1) d')
  done;
  !processed

let verify_method cls m = ignore (verify_method_count cls m)

let verify_class cls = List.iter (verify_method cls) cls.Insn.jmethods
