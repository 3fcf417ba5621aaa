type expr = Op of int * expr list | Temp of int

type stmt = Bind of int * expr | Effect of int * expr list

type exit = Fall | Branch of int * expr list | Underflow of int

type block = { stmts : stmt list; exit : exit; temps : int }

let of_block cls code ~first ~last =
  let stack = ref [] (* top first *) and depth = ref 0 in
  let stmts = ref [] and temps = ref 0 in
  let push e =
    stack := e :: !stack;
    incr depth
  in
  (* The top [n] values, in push order. *)
  let take n =
    let rec go n acc st =
      if n = 0 then (acc, st)
      else match st with e :: st -> go (n - 1) (e :: acc) st | [] -> (acc, st)
    in
    let args, rest = go n [] !stack in
    stack := rest;
    depth := !depth - n;
    args
  in
  let bind e =
    let t = !temps in
    incr temps;
    stmts := Bind (t, e) :: !stmts;
    Temp t
  in
  (* Bind what is left on the stack, bottom first: execution order. *)
  let spill () =
    stack :=
      List.rev
        (List.map (function Temp _ as e -> e | e -> bind e) (List.rev !stack))
  in
  let finish exit = { stmts = List.rev !stmts; exit; temps = !temps } in
  let rec go pc =
    if pc > last then begin
      spill ();
      finish Fall
    end
    else
      let ins = code.(pc) in
      let pops, pushes = Insn.stack_effect cls ins in
      if !depth < pops then begin
        spill ();
        finish (Underflow pc)
      end
      else
        let args = take pops in
        match ins with
        | Insn.Goto _ | Insn.CmpJmp _ | Insn.IfFalse _ | Insn.Ret
        | Insn.RetVoid ->
          spill ();
          finish (Branch (pc, args))
        | Insn.Dup ->
          spill ();
          let t = bind (Op (pc, args)) in
          push t;
          push t;
          go (pc + 1)
        | Insn.Store _ | Insn.AStore | Insn.Pop | Insn.Invoke _
          when pushes = 0 ->
          spill ();
          stmts := Effect (pc, args) :: !stmts;
          go (pc + 1)
        | _ ->
          push (Op (pc, args));
          go (pc + 1)
  in
  go first
