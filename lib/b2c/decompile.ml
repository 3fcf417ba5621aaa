module Ast = S2fa_scala.Ast
module Insn = S2fa_jvm.Insn
module Cfg = S2fa_jvm.Cfg
module Tree = S2fa_jvm.Tree
module Csyntax = S2fa_hlsc.Csyntax
open Csyntax

exception Decompile_error of string

let err fmt = Printf.ksprintf (fun m -> raise (Decompile_error m)) fmt

type slot_layout = { sl_name : string; sl_elem : cty; sl_len : int }

type iface = {
  if_inputs : slot_layout list;
  if_outputs : slot_layout list;
  if_fields : slot_layout list;
  if_kernel : string;
  if_call : string;
  if_reduce : bool;
}

(* ---------- types ---------- *)

let rec cty_of_ty = function
  | Ast.TInt -> CInt
  | Ast.TLong -> CLong
  | Ast.TFloat -> CFloat
  | Ast.TDouble -> CDouble
  | Ast.TBoolean -> CInt
  | Ast.TChar -> CChar
  | Ast.TUnit -> CInt
  | Ast.TString -> CChar
  | Ast.TArray t -> cty_of_ty t
  | Ast.TTuple _ -> err "tuple has no C scalar type"
  | Ast.TClass c -> err "class type %s is not supported on the FPGA" c

(* ---------- symbolic values ---------- *)

type arr_ref =
  | ALocal of string * cty * int        (* name, elem, size *)
  | AIface of string * cty * int * bool (* name, elem, cap, per-task *)

type sym =
  | SE of cexpr * cty
  | SArr of arr_ref
  | STup of sym list

let sym_expr = function
  | SE (e, _) -> e
  | SArr _ -> err "array used as a scalar value"
  | STup _ -> err "tuple used as a scalar value"

let sym_ty = function
  | SE (_, t) -> t
  | SArr _ | STup _ -> err "aggregate has no scalar type"

(* ---------- flattening ---------- *)

(* Flatten an interface type into components. Returns a list of
   [(elem_cty, is_array)] in order. *)
let rec flatten_ty (t : Ast.ty) : (cty * bool) list =
  match t with
  | Ast.TTuple ts -> List.concat_map flatten_ty ts
  | Ast.TArray inner -> (
    match inner with
    | Ast.TArray _ | Ast.TTuple _ ->
      err "nested arrays are not supported at the accelerator interface"
    | _ -> [ (cty_of_ty inner, true) ])
  | Ast.TClass c -> err "class type %s at the accelerator interface" c
  | Ast.TUnit -> []
  | _ -> [ (cty_of_ty t, false) ]

let assign_caps comps caps =
  (* Pair each component with its capacity: arrays consume entries of
     [caps] (default 64), scalars get length 1. *)
  let caps = ref caps in
  List.map
    (fun (elem, is_arr) ->
      if is_arr then begin
        match !caps with
        | c :: rest ->
          caps := rest;
          (elem, c)
        | [] -> (elem, 64)
      end
      else (elem, 1))
    comps

let layouts_of prefix comps_with_caps =
  List.mapi
    (fun i (elem, len) ->
      { sl_name = Printf.sprintf "%s_%d" prefix (i + 1); sl_elem = elem;
        sl_len = len })
    comps_with_caps

(* Build the symbolic value of an interface-typed parameter from its
   layouts. [per_task] buffers are indexed with a task offset. *)
let sym_of_iface_ty (t : Ast.ty) (layouts : slot_layout list) ~per_task ~gid =
  let remaining = ref layouts in
  let next () =
    match !remaining with
    | l :: rest ->
      remaining := rest;
      l
    | [] -> err "interface layout underflow"
  in
  let rec build t =
    match t with
    | Ast.TTuple ts -> STup (List.map build ts)
    | Ast.TArray _ ->
      let l = next () in
      SArr (AIface (l.sl_name, l.sl_elem, l.sl_len, per_task))
    | Ast.TUnit -> STup []
    | _ ->
      let l = next () in
      if per_task then
        SE (EIndex (EVar l.sl_name, gid), l.sl_elem)
      else SE (EVar l.sl_name, l.sl_elem)
  in
  build t

(* ---------- expression helpers ---------- *)

let index_of_arr gid = function
  | ALocal (name, _, _) -> fun idx -> EIndex (EVar name, idx)
  | AIface (name, _, cap, per_task) ->
    fun idx ->
      if per_task then
        let base = EBin (CMul, gid, EInt cap) in
        EIndex (EVar name, EBin (CAdd, base, idx))
      else EIndex (EVar name, idx)

let arr_len = function
  | ALocal (_, _, n) -> n
  | AIface (_, _, cap, _) -> cap

let arr_elem = function ALocal (_, e, _) -> e | AIface (_, e, _, _) -> e

let cbinop_of = function
  | Ast.Add -> CAdd | Ast.Sub -> CSub | Ast.Mul -> CMul | Ast.Div -> CDiv
  | Ast.Rem -> CRem
  | Ast.Lt -> CLt | Ast.Le -> CLe | Ast.Gt -> CGt | Ast.Ge -> CGe
  | Ast.Eq -> CEq | Ast.Ne -> CNe
  | Ast.And -> CAnd | Ast.Or -> COr
  | Ast.BAnd -> CBAnd | Ast.BOr -> CBOr | Ast.BXor -> CBXor
  | Ast.Shl -> CShl | Ast.Shr -> CShr
  | Ast.Lshr -> CShr (* arithmetic shift suffices for non-negative use *)

let cexpr_of_cond c a b =
  let op =
    match c with
    | Insn.Clt -> CLt | Insn.Cle -> CLe | Insn.Cgt -> CGt | Insn.Cge -> CGe
    | Insn.Ceq -> CEq | Insn.Cne -> CNe
  in
  EBin (op, a, b)

let negate_cexpr = function
  | EBin (CLt, a, b) -> EBin (CGe, a, b)
  | EBin (CLe, a, b) -> EBin (CGt, a, b)
  | EBin (CGt, a, b) -> EBin (CLe, a, b)
  | EBin (CGe, a, b) -> EBin (CLt, a, b)
  | EBin (CEq, a, b) -> EBin (CNe, a, b)
  | EBin (CNe, a, b) -> EBin (CEq, a, b)
  | e -> EUn (CNot, e)

let math_call f (args : sym list) : sym =
  let exprs = List.map sym_expr args in
  let is_fp_ty = function CFloat | CDouble -> true | _ -> false in
  let any_fp = List.exists (fun a -> is_fp_ty (sym_ty a)) args in
  match (f, exprs) with
  | "abs", [ a ] ->
    if any_fp then SE (ECall ("fabs", [ a ]), CDouble)
    else SE (ECond (EBin (CLt, a, EInt 0), EUn (CNeg, a), a), sym_ty (List.hd args))
  | "min", [ a; b ] ->
    if any_fp then SE (ECall ("fmin", [ a; b ]), CDouble)
    else SE (ECond (EBin (CLt, a, b), a, b), sym_ty (List.hd args))
  | "max", [ a; b ] ->
    if any_fp then SE (ECall ("fmax", [ a; b ]), CDouble)
    else SE (ECond (EBin (CGt, a, b), a, b), sym_ty (List.hd args))
  | ("sqrt" | "exp" | "log" | "floor" | "ceil"), [ a ] ->
    SE (ECall (f, [ a ]), CDouble)
  | "pow", [ a; b ] -> SE (ECall ("pow", [ a; b ]), CDouble)
  | _ -> err "unsupported math intrinsic %s/%d" f (List.length exprs)

let rec contains_user_call fnames = function
  | ECall (f, args) ->
    List.mem f fnames || List.exists (contains_user_call fnames) args
  | EBin (_, a, b) ->
    contains_user_call fnames a || contains_user_call fnames b
  | EUn (_, a) | ECast (_, a) -> contains_user_call fnames a
  | EIndex (a, i) -> contains_user_call fnames a || contains_user_call fnames i
  | ECond (c, a, b) ->
    contains_user_call fnames c || contains_user_call fnames a
    || contains_user_call fnames b
  | EInt _ | ELong _ | EFloat _ | EDouble _ | EChar _ | EBool _ | EVar _ ->
    false

(* ---------- per-method decompilation ---------- *)

(* Fields each method reads, transitively through helper calls, in class
   declaration order. Fields only exist in C as kernel parameters
   ([f_*]); a helper that touches one needs it threaded through its own
   signature, and every call site must pass it along. *)
let method_fields (cls : Insn.cls) : (string * string list) list =
  let module SS = Set.Make (String) in
  let direct = Hashtbl.create 8 in
  let calls = Hashtbl.create 8 in
  List.iter
    (fun (m : Insn.methd) ->
      let fs = ref SS.empty and cs = ref SS.empty in
      Array.iter
        (function
          | Insn.GetField f -> fs := SS.add f !fs
          | Insn.Invoke (n, _) -> cs := SS.add n !cs
          | _ -> ())
        m.Insn.jcode;
      Hashtbl.replace direct m.Insn.jname !fs;
      Hashtbl.replace calls m.Insn.jname !cs)
    cls.Insn.jmethods;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (m : Insn.methd) ->
        let cur = Hashtbl.find direct m.Insn.jname in
        let nxt =
          SS.fold
            (fun callee acc ->
              match Hashtbl.find_opt direct callee with
              | Some fs -> SS.union acc fs
              | None -> acc)
            (Hashtbl.find calls m.Insn.jname)
            cur
        in
        if not (SS.equal cur nxt) then begin
          Hashtbl.replace direct m.Insn.jname nxt;
          changed := true
        end)
      cls.Insn.jmethods
  done;
  List.map
    (fun (m : Insn.methd) ->
      let fs = Hashtbl.find direct m.Insn.jname in
      ( m.Insn.jname,
        List.filter_map
          (fun (f, _) -> if SS.mem f fs then Some f else None)
          cls.Insn.jfields ))
    cls.Insn.jmethods

type mctx = {
  cls : Insn.cls;
  meth : Insn.methd;
  cfg : Cfg.t;
  slots : sym option array;
  slot_cnames : string array;
  decls : (string, cty) Hashtbl.t;     (* scalar declarations *)
  mutable arr_decls : (string * cty * int) list;  (* local arrays *)
  mutable arr_counter : int;
  gid : cexpr option;                  (* Some for the kernel method *)
  helper_names : string list;          (* C names of user functions *)
  fcaps : (string * int) list;         (* capacity of array fields *)
  meth_fields : (string * string list) list;
      (* transitive field use per method, for helper call sites *)
}

let sanitize name =
  String.map (function '$' -> '_' | c -> c) name

let c_keywords = [ "in"; "out"; "int"; "char"; "long"; "float"; "double";
                   "for"; "while"; "if"; "else"; "return"; "void" ]

let cname_of_slots (m : Insn.methd) =
  (* Unique, C-safe name per slot. *)
  let seen = Hashtbl.create 16 in
  Array.mapi
    (fun i raw ->
      let base = sanitize raw in
      let base = if List.mem base c_keywords then base ^ "_v" else base in
      let name =
        if Hashtbl.mem seen base then Printf.sprintf "%s_s%d" base i else base
      in
      Hashtbl.replace seen base ();
      name)
    m.Insn.jslot_names

let declare ctx name t =
  if not (Hashtbl.mem ctx.decls name) then Hashtbl.replace ctx.decls name t

(* How a basic block ends. *)
type terminator =
  | TFall of int                       (* next block id *)
  | TCond of cexpr * int * int         (* cond, then(fall), else(jump) *)
  | TRet of sym option

let zero_init_loop name elem n =
  let v = Printf.sprintf "%s_z" name in
  SFor
    (Csyntax.mk_loop ~var:v ~lo:(EInt 0) ~hi:(EInt n)
       [ SAssign
           ( EIndex (EVar name, EVar v),
             match elem with
             | CFloat | CDouble -> EDouble 0.0
             | _ -> EInt 0 ) ])

(* Map a callee's arguments to C, forwarding the fields the callee
   (transitively) reads: they are parameters in every decompiled
   function, including here. *)
let call_of ctx name args =
  let exprs =
    List.map
      (function
        | SE (e, _) -> e
        | SArr _ | STup _ ->
          err "helper methods with aggregate parameters are not supported")
      args
  in
  match Insn.find_jmethod ctx.cls name with
  | None -> err "invoke of unknown method %s" name
  | Some m ->
    let extra =
      List.map
        (fun f -> EVar ("f_" ^ f))
        (Option.value ~default:[] (List.assoc_opt name ctx.meth_fields))
    in
    (ECall (name, exprs @ extra), m)

(* Map one basic block's trees ({!Tree}) to C. A spill binds its
   temporary to the symbolic value and emits nothing. Returns the emitted
   statements and the terminator. *)
let exec_block ctx bid : cstmt list * terminator =
  let b = ctx.cfg.Cfg.blocks.(bid) in
  let code = ctx.meth.Insn.jcode in
  let tb = Tree.of_block ctx.cls code ~first:b.Cfg.first ~last:b.Cfg.last in
  let temps = Array.make tb.Tree.temps (STup []) in
  let out = ref [] in
  let emit s = out := s :: !out in
  let gid () =
    match ctx.gid with Some g -> g | None -> EInt 0
  in
  (* Operands map left to right, the order their instructions ran. *)
  let rec sym ?name = function
    | Tree.Temp t -> temps.(t)
    | Tree.Op (pc, args) -> op ?name pc (List.map (fun a -> sym a) args)
  (* [name]: the slot a [NewArr] is stored to directly, which names it. *)
  and op ?name pc args =
    match (code.(pc), args) with
    | Insn.Ldc (Ast.LInt n), [] -> SE (EInt n, CInt)
    | Insn.Ldc (Ast.LLong n), [] -> SE (ELong n, CLong)
    | Insn.Ldc (Ast.LFloat f), [] -> SE (EFloat f, CFloat)
    | Insn.Ldc (Ast.LDouble f), [] -> SE (EDouble f, CDouble)
    | Insn.Ldc (Ast.LBool bv), [] -> SE (EBool bv, CInt)
    | Insn.Ldc (Ast.LChar c), [] -> SE (EChar c, CChar)
    | Insn.Ldc (Ast.LString _), [] ->
      err "string literals are not supported in kernels"
    | Insn.Ldc Ast.LUnit, [] -> SE (EInt 0, CInt)
    | Insn.Load s, [] -> (
      match ctx.slots.(s) with
      | Some v -> v
      | None -> err "%s: load of undefined slot %d" ctx.meth.Insn.jname s)
    | Insn.ALoad, [ a; i ] -> (
      let idx = sym_expr i in
      match a with
      | SArr a -> SE (index_of_arr (gid ()) a idx, arr_elem a)
      | SE _ | STup _ -> err "aload on non-array")
    | Insn.ArrayLength, [ a ] -> (
      match a with
      | SArr a -> SE (EInt (arr_len a), CInt)
      | SE _ | STup _ -> err "arraylength on non-array")
    | Insn.NewArr (elem_ty, dims), [] -> (
      match dims with
      | [ n ] ->
        let elem = cty_of_ty elem_ty in
        let name =
          match name with
          | Some name -> name
          | None ->
            ctx.arr_counter <- ctx.arr_counter + 1;
            Printf.sprintf "arr%d" ctx.arr_counter
        in
        if not (List.exists (fun (n', _, _) -> String.equal n' name) ctx.arr_decls)
        then ctx.arr_decls <- (name, elem, n) :: ctx.arr_decls;
        emit (zero_init_loop name elem n);
        SArr (ALocal (name, elem, n))
      | _ -> err "only one-dimensional local arrays are supported (got %dD)"
               (List.length dims))
    | Insn.NewTup _, vals -> STup vals
    | Insn.TupGet i, [ t ] -> (
      match t with
      | STup l when i < List.length l -> List.nth l i
      | STup _ -> err "tuple component out of range"
      | SE _ | SArr _ -> err "tupget on non-tuple")
    | Insn.GetField f, [] -> (
      let pname = "f_" ^ f in
      match List.assoc_opt f ctx.cls.Insn.jfields with
      | None -> err "unknown field %s" f
      | Some (Ast.TArray inner) ->
        let cap = Option.value ~default:64 (List.assoc_opt f ctx.fcaps) in
        SArr (AIface (pname, cty_of_ty inner, cap, false))
      | Some (Ast.TTuple _) -> err "tuple-typed fields are not supported"
      | Some t -> SE (EVar pname, cty_of_ty t))
    | Insn.Bin (ty, op), [ a; b ] ->
      let rb = sym_expr b in
      let ra = sym_expr a in
      SE (EBin (cbinop_of op, ra, rb), cty_of_ty ty)
    | Insn.Un (ty, op), [ a ] ->
      let ra = sym_expr a in
      let e =
        match op with
        | Ast.Neg -> EUn (CNeg, ra)
        | Ast.Not -> EUn (CNot, ra)
        | Ast.BNot -> EUn (CBNot, ra)
      in
      SE (e, cty_of_ty ty)
    | Insn.Conv (from_ty, to_ty), [ a ] ->
      let ra = sym_expr a in
      let ct = cty_of_ty to_ty in
      if cty_of_ty from_ty = ct then SE (ra, ct) else SE (ECast (ct, ra), ct)
    | Insn.MathOp f, args -> math_call f args
    | Insn.Invoke (name, _), args ->
      let call_e, m = call_of ctx name args in
      SE (call_e, cty_of_ty m.Insn.jret)
    | Insn.Dup, [ v ] -> v
    | ins, _ ->
      err "%s: %s is not an expression" ctx.meth.Insn.jname
        (Format.asprintf "%a" Insn.pp_insn ins)
  in
  List.iter
    (function
      | Tree.Bind (t, e) -> temps.(t) <- sym e
      | Tree.Effect (pc, args) -> (
        match (code.(pc), args) with
        | Insn.Store s, [ e ] -> (
          let name = ctx.slot_cnames.(s) in
          match sym ~name e with
          | SE (e, t) ->
            declare ctx name t;
            emit (SAssign (EVar name, e));
            ctx.slots.(s) <- Some (SE (EVar name, t))
          | (SArr _ | STup _) as v -> ctx.slots.(s) <- Some v)
        | Insn.AStore, [ a; i; v ] -> (
          let a = sym a in
          let i = sym i in
          let v = sym_expr (sym v) in
          let idx = sym_expr i in
          match a with
          | SArr a -> emit (SAssign (index_of_arr (gid ()) a idx, v))
          | SE _ | STup _ -> err "astore on non-array")
        | Insn.Pop, [ e ] -> (
          match sym e with
          | SE (e, _) when contains_user_call ctx.helper_names e ->
            emit (SExpr e)
          | _ -> ())
        | Insn.Invoke (name, _), args ->
          emit (SExpr (fst (call_of ctx name (List.map (fun a -> sym a) args))))
        | ins, _ ->
          err "%s: %s is not a statement" ctx.meth.Insn.jname
            (Format.asprintf "%a" Insn.pp_insn ins)))
    tb.Tree.stmts;
  let terminator =
    match tb.Tree.exit with
    | Tree.Fall -> (
      match b.Cfg.succs with
      | [ s ] -> TFall s
      | _ -> err "block %d without terminator has %d successors" bid
               (List.length b.Cfg.succs))
    | Tree.Underflow _ ->
      err "symbolic stack underflow in %s" ctx.meth.Insn.jname
    | Tree.Branch (pc, args) -> (
      let block_of l = ctx.cfg.Cfg.block_of_pc.(l) in
      match (code.(pc), List.map (fun a -> sym a) args) with
      | Insn.CmpJmp (_, c, l), [ a; b ] ->
        let rb = sym_expr b in
        let ra = sym_expr a in
        TCond (negate_cexpr (cexpr_of_cond c ra rb), block_of (pc + 1),
               block_of l)
      | Insn.IfFalse l, [ c ] ->
        TCond (sym_expr c, block_of (pc + 1), block_of l)
      | Insn.Goto l, [] -> TFall (block_of l)
      | Insn.Ret, [ v ] -> TRet (Some v)
      | Insn.RetVoid, [] -> TRet None
      | ins, _ ->
        err "%s: %s is not a terminator" ctx.meth.Insn.jname
          (Format.asprintf "%a" Insn.pp_insn ins))
  in
  (List.rev !out, terminator)

(* ---------- structuring ---------- *)

let rec structure ctx (on_ret : sym option -> cstmt list) bid stop :
    cstmt list =
  if Some bid = stop then []
  else
    match Cfg.loop_body_of ctx.cfg bid with
    | Some body -> structure_loop ctx on_ret bid body stop
    | None -> structure_plain ctx on_ret bid stop

and structure_plain ctx on_ret bid stop =
  let stmts, term = exec_block ctx bid in
  match term with
  | TFall next -> stmts @ structure ctx on_ret next stop
  | TRet v -> stmts @ on_ret v
  | TCond (cond, bt, bf) ->
    let join = ctx.cfg.Cfg.ipdom.(bid) in
    let join_stop = if join = -1 then None else Some join in
    (* Each branch symbolically executes against its own copy of the
       slot state. Sharing one mutable array — the old behavior — let
       the then-branch's aggregate rebindings (which emit no C code)
       leak into the else-branch and into the join, so
       [val t = if (c) a else b] over arrays silently always picked the
       else value. *)
    let snapshot = Array.copy ctx.slots in
    let thn = structure ctx on_ret bt join_stop in
    let then_slots = Array.copy ctx.slots in
    Array.blit snapshot 0 ctx.slots 0 (Array.length snapshot);
    let els = structure ctx on_ret bf join_stop in
    let sym_eq a b = 0 = compare a b in
    Array.iteri
      (fun i else_sym ->
        let then_sym = then_slots.(i) in
        if not (sym_eq then_sym else_sym) then
          if sym_eq snapshot.(i) then_sym then
            (* Only the else branch changed the slot; its value (already
               in [ctx.slots]) is the join value: scalar slots are backed
               by a real C variable the branch assigned, and a one-sided
               aggregate binding is branch-local and dead after the
               join. *)
            ()
          else if sym_eq snapshot.(i) else_sym then ctx.slots.(i) <- then_sym
          else
            (* Both branches rebound the slot to different symbolic
               values. Scalars cannot get here (a store always leaves
               [SE (EVar <slot name>, _)], identical in both arms), so
               this is an aggregate chosen under a runtime condition —
               unrepresentable without a C-level array copy. *)
            err
              "%s: slot %s is bound to different aggregates in the two \
               branches of a conditional"
              ctx.meth.Insn.jname ctx.slot_cnames.(i))
      ctx.slots;
    let tail =
      if join = -1 then [] else structure ctx on_ret join stop
    in
    stmts @ [ SIf (cond, thn, els) ] @ tail

and structure_loop ctx on_ret header body stop =
  let stmts, term = exec_block ctx header in
  if stmts <> [] then
    err "loop header of %s is not side-effect free" ctx.meth.Insn.jname;
  match term with
  | TCond (cond, bt, bf) ->
    let in_body b = List.mem b body in
    let cond, body_entry, exit_blk =
      if in_body bt && not (in_body bf) then (cond, bt, bf)
      else if in_body bf && not (in_body bt) then (negate_cexpr cond, bf, bt)
      else err "cannot identify the exit of loop at block %d" header
    in
    let body_stmts = structure ctx on_ret body_entry (Some header) in
    SWhile (cond, body_stmts) :: structure ctx on_ret exit_blk stop
  | TFall _ | TRet _ ->
    err "unsupported loop shape (no conditional header) in %s"
      ctx.meth.Insn.jname

(* Recover counted for-loops:
   x = lo; while (x < hi) { ...; x = x + step } -> for. *)
let rec assigns_var v stmts =
  List.exists
    (function
      | SAssign (EVar x, _) -> String.equal x v
      | SAssign (_, _) -> false
      | SIf (_, a, b) -> assigns_var v a || assigns_var v b
      | SWhile (_, b) -> assigns_var v b
      | SFor l -> assigns_var v l.lbody
      | SDecl _ | SExpr _ | SReturn _ -> false)
    stmts

(* [var_ty] recovers the declared C type of a counter variable so the
   rebuilt [for] header does not narrow a long-typed counter to [int]. *)
let loopify ?(var_ty = fun _ -> CInt) stmts =
  let rec go stmts =
    match stmts with
    | SAssign (EVar v, lo)
      :: SWhile ((EBin ((CLt | CLe) as cmp, EVar v', hi0) as cond), wbody)
      :: rest
      when String.equal v v' -> (
      let hi =
        if cmp = CLt then hi0
        else
          match Csyntax.const_int_of hi0 with
          | Some n -> EInt (n + 1)
          | None -> EBin (CAdd, hi0, EInt 1)
      in
      let wbody = go wbody in
      match List.rev wbody with
      | SAssign (EVar v'', EBin (CAdd, EVar v''', EInt step)) :: body_rev
        when String.equal v v'' && String.equal v v'''
             && not (assigns_var v (List.rev body_rev)) ->
        let body = List.rev body_rev in
        (* The counter is a JVM local declared with the rest of the
           slots, so the rebuilt header only assigns it: re-declaring it
           in the for-init would shadow the outer declaration and leave
           post-loop reads of the counter uninitialized in real C. *)
        SFor
          (Csyntax.mk_loop ~vty:(var_ty v) ~decl:false ~var:v ~lo ~hi ~step
             body)
        :: go rest
      | _ -> SAssign (EVar v, lo) :: SWhile (cond, wbody) :: go rest)
    | SIf (c, a, b) :: rest -> SIf (c, go a, go b) :: go rest
    | SWhile (c, b) :: rest -> SWhile (c, go b) :: go rest
    | SFor l :: rest -> SFor { l with lbody = go l.lbody } :: go rest
    | s :: rest -> s :: go rest
    | [] -> []
  in
  go stmts

(* A loopified counter that is never referenced outside its recovered
   loops can own its declaration ([for (int v = ...)], {!Csyntax.loop.ldecl}
   set), which keeps the loop tileable and unrollable; its separate slot
   declaration is dropped. A counter that is read after (or between) its
   loops — or that appears in a loop's own bounds — keeps the outer
   declaration and the assign-only header. *)
let promote_loop_decls decls stmts =
  let counters = Hashtbl.create 8 in
  let rec scan ss =
    List.iter
      (function
        | SFor l ->
          if not l.ldecl then Hashtbl.replace counters l.lvar ();
          scan l.lbody
        | SIf (_, a, b) ->
          scan a;
          scan b
        | SWhile (_, b) -> scan b
        | SDecl _ | SAssign _ | SExpr _ | SReturn _ -> ())
      ss
  in
  scan stmts;
  let free = Hashtbl.create 8 in
  let rec expr_vars f = function
    | EVar v -> f v
    | EBin (_, a, b) ->
      expr_vars f a;
      expr_vars f b
    | EUn (_, a) | ECast (_, a) -> expr_vars f a
    | EIndex (a, i) ->
      expr_vars f a;
      expr_vars f i
    | ECall (_, args) -> List.iter (expr_vars f) args
    | ECond (c, a, b) ->
      expr_vars f c;
      expr_vars f a;
      expr_vars f b
    | EInt _ | ELong _ | EFloat _ | EDouble _ | EChar _ | EBool _ -> ()
  in
  let mark shadowed v =
    if Hashtbl.mem counters v && not (List.mem v shadowed) then
      Hashtbl.replace free v ()
  in
  let rec uses shadowed ss =
    List.iter
      (fun s ->
        match s with
        | SFor l ->
          expr_vars (mark shadowed) l.llo;
          expr_vars (mark shadowed) l.lhi;
          uses (l.lvar :: shadowed) l.lbody
        | SIf (c, a, b) ->
          expr_vars (mark shadowed) c;
          uses shadowed a;
          uses shadowed b
        | SWhile (c, b) ->
          expr_vars (mark shadowed) c;
          uses shadowed b
        | SDecl (_, _, i) -> Option.iter (expr_vars (mark shadowed)) i
        | SAssign (lv, e) ->
          expr_vars (mark shadowed) lv;
          expr_vars (mark shadowed) e
        | SExpr e -> expr_vars (mark shadowed) e
        | SReturn e -> Option.iter (expr_vars (mark shadowed)) e)
      ss
  in
  uses [] stmts;
  let promoted v = Hashtbl.mem counters v && not (Hashtbl.mem free v) in
  let rec rewrite ss =
    List.map
      (function
        | SFor l ->
          let l = { l with lbody = rewrite l.lbody } in
          SFor (if promoted l.lvar then { l with ldecl = true } else l)
        | SIf (c, a, b) -> SIf (c, rewrite a, rewrite b)
        | SWhile (c, b) -> SWhile (c, rewrite b)
        | (SDecl _ | SAssign _ | SExpr _ | SReturn _) as s -> s)
      ss
  in
  Hashtbl.iter
    (fun v () -> if promoted v then Hashtbl.remove decls v)
    counters;
  rewrite stmts

(* ---------- output substitution ---------- *)

(* Replace every access to local array [name] by accesses to the
   interface buffer [out] at per-task offsets, and drop its declaration. *)
let subst_out_array name (out : slot_layout) gid stmts =
  let rewrite_ref e =
    let rec go e =
      match e with
      | EIndex (EVar n, idx) when String.equal n name ->
        let base = EBin (CMul, gid, EInt out.sl_len) in
        EIndex (EVar out.sl_name, EBin (CAdd, base, go idx))
      | EBin (op, a, b) -> EBin (op, go a, go b)
      | EUn (op, a) -> EUn (op, go a)
      | ECast (t, a) -> ECast (t, go a)
      | EIndex (a, i) -> EIndex (go a, go i)
      | ECall (f, args) -> ECall (f, List.map go args)
      | ECond (c, a, b) -> ECond (go c, go a, go b)
      | EInt _ | ELong _ | EFloat _ | EDouble _ | EChar _ | EBool _ | EVar _
        ->
        e
    in
    go e
  in
  let rec go_stmts stmts =
    List.map
      (function
        | SDecl (t, n, i) -> SDecl (t, n, Option.map rewrite_ref i)
        | SAssign (lv, e) -> SAssign (rewrite_ref lv, rewrite_ref e)
        | SIf (c, a, b) -> SIf (rewrite_ref c, go_stmts a, go_stmts b)
        | SWhile (c, b) -> SWhile (rewrite_ref c, go_stmts b)
        | SFor l ->
          SFor
            { l with
              llo = rewrite_ref l.llo;
              lhi = rewrite_ref l.lhi;
              lbody = go_stmts l.lbody }
        | SExpr e -> SExpr (rewrite_ref e)
        | SReturn e -> SReturn (Option.map rewrite_ref e))
      stmts
  in
  go_stmts stmts

(* ---------- method -> cfunc ---------- *)

let field_layouts (cls : Insn.cls) field_caps =
  List.filter_map
    (fun (fname, fty) ->
      match fty with
      | Ast.TArray inner ->
        let cap =
          Option.value ~default:64 (List.assoc_opt fname field_caps)
        in
        Some { sl_name = "f_" ^ fname; sl_elem = cty_of_ty inner; sl_len = cap }
      | Ast.TTuple _ -> err "tuple-typed field %s is not supported" fname
      | _ -> Some { sl_name = "f_" ^ fname; sl_elem = cty_of_ty fty; sl_len = 1 })
    cls.Insn.jfields

let decompile_method (cls : Insn.cls) helper_names ~gid ~slots_init ~fcaps
    (m : Insn.methd) ~on_ret : cstmt list * (string, cty) Hashtbl.t
    * (string * cty * int) list =
  let cfg = Cfg.build m.Insn.jcode in
  let ctx =
    { cls;
      meth = m;
      cfg;
      slots = slots_init;
      slot_cnames = cname_of_slots m;
      decls = Hashtbl.create 16;
      arr_decls = [];
      arr_counter = 0;
      gid;
      helper_names;
      fcaps;
      meth_fields = method_fields cls }
  in
  let body = structure ctx on_ret cfg.Cfg.entry None in
  let body =
    loopify
      ~var_ty:(fun v ->
        Option.value ~default:CInt (Hashtbl.find_opt ctx.decls v))
      body
  in
  let body = promote_loop_decls ctx.decls body in
  (body, ctx.decls, ctx.arr_decls)

(* For helper methods: scalar signature plus the (transitively) read
   fields as trailing [f_*] parameters — a helper body referencing a
   field otherwise produced an unbound [f_*] variable, since fields only
   exist as parameters of the kernel entry points. *)
let decompile_helper (cls : Insn.cls) helper_names ~fcaps ~fields
    (m : Insn.methd) : cfunc =
  let slots = Array.make (max 1 m.Insn.jslots) None in
  let cnames = cname_of_slots m in
  List.iteri
    (fun i (_, t) ->
      match t with
      | Ast.TArray _ | Ast.TTuple _ ->
        err "helper method %s has an aggregate parameter" m.Insn.jname
      | _ -> slots.(i) <- Some (SE (EVar cnames.(i), cty_of_ty t)))
    m.Insn.jargs;
  let on_ret = function
    | Some (SE (e, _)) -> [ SReturn (Some e) ]
    | Some (SArr _ | STup _) ->
      err "helper method %s returns an aggregate" m.Insn.jname
    | None -> [ SReturn None ]
  in
  let body, decls, arr_decls =
    decompile_method cls helper_names ~gid:None ~slots_init:slots ~fcaps m
      ~on_ret
  in
  let nargs = List.length m.Insn.jargs in
  let param_names = Array.sub cnames 0 nargs in
  let params =
    List.mapi
      (fun i (_, t) ->
        { cpname = param_names.(i); cpty = cty_of_ty t; cpbitwidth = None })
      m.Insn.jargs
  in
  let field_params =
    List.map
      (fun f ->
        match List.assoc_opt f cls.Insn.jfields with
        | Some (Ast.TArray inner) ->
          { cpname = "f_" ^ f;
            cpty = CPtr (cty_of_ty inner);
            cpbitwidth = None }
        | Some t ->
          { cpname = "f_" ^ f; cpty = cty_of_ty t; cpbitwidth = None }
        | None -> err "helper %s reads unknown field %s" m.Insn.jname f)
      fields
  in
  let decl_stmts =
    Hashtbl.fold
      (fun name t acc ->
        if Array.exists (String.equal name) param_names then acc
        else SDecl (t, name, None) :: acc)
      decls []
    @ List.map (fun (n, t, sz) -> SDecl (CArr (t, sz), n, None)) arr_decls
  in
  { cfname = m.Insn.jname;
    cfparams = params @ field_params;
    cfret =
      (match m.Insn.jret with
      | Ast.TUnit -> None
      | t -> Some (cty_of_ty t));
    cfbody = decl_stmts @ body }

let decompile_class ?(operator = `Map) ?(in_caps = []) ?(out_caps = [])
    ?(field_caps = []) (cls : Insn.cls) : cprog * iface =
  S2fa_obs.Obs.span "b2c.decompile" @@ fun () ->
  let accel_in, accel_out =
    match cls.Insn.jaccel with
    | Some (i, o) -> (i, o)
    | None -> err "class %s does not extend Accelerator" cls.Insn.jcname
  in
  let is_reduce = operator = `Reduce in
  (* For the reduce template the kernel is a combiner (T, T) -> T; its
     element type drives the input layout and the accumulator lives in
     the single-slot output buffers. *)
  let elem_ty =
    if not is_reduce then accel_in
    else
      match accel_in with
      | Ast.TTuple [ a; b ] when Ast.equal_ty a b && Ast.equal_ty a accel_out
        ->
        a
      | _ ->
        err
          "reduce kernels must have the combiner signature (T, T) -> T \
           (class %s has %s -> %s)"
          cls.Insn.jcname (Ast.string_of_ty accel_in)
          (Ast.string_of_ty accel_out)
  in
  let call =
    match Insn.find_jmethod cls "call" with
    | Some m -> m
    | None -> err "class %s has no call method" cls.Insn.jcname
  in
  let helpers =
    List.filter
      (fun (m : Insn.methd) -> not (String.equal m.Insn.jname "call"))
      cls.Insn.jmethods
  in
  let helper_names = List.map (fun (m : Insn.methd) -> m.Insn.jname) helpers in
  let in_layouts =
    layouts_of "in"
      (assign_caps (flatten_ty (if is_reduce then elem_ty else accel_in))
         in_caps)
  in
  let out_layouts =
    layouts_of "out" (assign_caps (flatten_ty accel_out) out_caps)
  in
  let f_layouts = field_layouts cls field_caps in
  let gid_var = EVar "gid" in
  (* The slot-0 index used when writing results: map kernels write their
     own task slot, the reduce accumulator always lives in slot 0. *)
  let out_gid = if is_reduce then EInt 0 else gid_var in
  (* Accumulator symbols read the output buffers in place (single slot,
     so no task offset). *)
  let acc_sym_of ty layouts =
    let remaining = ref layouts in
    let next () =
      match !remaining with
      | l :: rest ->
        remaining := rest;
        l
      | [] -> err "accumulator layout underflow"
    in
    let rec build ty =
      match ty with
      | Ast.TTuple ts -> STup (List.map build ts)
      | Ast.TArray _ ->
        let l = next () in
        SArr (AIface (l.sl_name, l.sl_elem, l.sl_len, false))
      | Ast.TUnit -> STup []
      | _ ->
        let l = next () in
        SE (EIndex (EVar l.sl_name, EInt 0), l.sl_elem)
    in
    build ty
  in
  (* Initial slots: slot 0 is the call input. *)
  let slots = Array.make (max 1 call.Insn.jslots) None in
  slots.(0) <-
    (if is_reduce then
       Some
         (STup
            [ acc_sym_of accel_out out_layouts;
              sym_of_iface_ty elem_ty in_layouts ~per_task:true ~gid:gid_var
            ])
     else
       Some (sym_of_iface_ty accel_in in_layouts ~per_task:true ~gid:gid_var));
  (* Return handling: write through the out buffers. *)
  let out_aliases : (string * slot_layout) list ref = ref [] in
  let on_ret v =
    let outs = out_layouts in
    let comps =
      match v with
      | Some (STup syms) -> syms
      | Some s -> [ s ]
      | None -> []
    in
    if List.length comps <> List.length outs then
      err "call returns %d components but the output layout has %d"
        (List.length comps) (List.length outs);
    List.concat
      (List.map2
         (fun sym (out : slot_layout) ->
           match sym with
           | SE (e, _) ->
             [ SAssign
                 ( EIndex
                     ( EVar out.sl_name,
                       if out.sl_len = 1 then out_gid
                       else EBin (CMul, out_gid, EInt out.sl_len) ),
                   e ) ]
           | SArr (ALocal (name, _, size)) ->
             if is_reduce then begin
               (* The accumulator is read from the out buffers while the
                  result is being built, so in-place aliasing would
                  clobber it: copy the finished local instead. *)
               let k = name ^ "_out" in
               [ SFor
                   (Csyntax.mk_loop ~var:k ~lo:(EInt 0)
                      ~hi:(EInt (min size out.sl_len))
                      [ SAssign
                          ( EIndex (EVar out.sl_name, EVar k),
                            EIndex (EVar name, EVar k) ) ]) ]
             end
             else begin
               out_aliases := (name, out) :: !out_aliases;
               []
             end
           | SArr (AIface (name, _, cap, per_task)) ->
             (* Pass-through of an input buffer: copy. *)
             let k = "k_cp" in
             let src_idx =
               if per_task then
                 EBin (CAdd, EBin (CMul, gid_var, EInt cap), EVar k)
               else EVar k
             in
             let dst_idx =
               EBin (CAdd, EBin (CMul, out_gid, EInt out.sl_len), EVar k)
             in
             [ SFor
                 (Csyntax.mk_loop ~var:k ~lo:(EInt 0)
                    ~hi:(EInt (min cap out.sl_len))
                    [ SAssign
                        ( EIndex (EVar out.sl_name, dst_idx),
                          EIndex (EVar name, src_idx) ) ]) ]
           | STup _ -> err "nested tuples in the output are not supported")
         comps outs)
  in
  let body, decls, arr_decls =
    decompile_method cls helper_names ~gid:(Some gid_var) ~slots_init:slots
      ~fcaps:field_caps call ~on_ret
  in
  (* Alias returned local arrays onto their out buffers. *)
  let body =
    List.fold_left
      (fun body (name, out) -> subst_out_array name out out_gid body)
      body !out_aliases
  in
  let aliased = List.map fst !out_aliases in
  let param_of_layout (l : slot_layout) per_task =
    if l.sl_len = 1 && not per_task then
      { cpname = l.sl_name; cpty = l.sl_elem; cpbitwidth = None }
    else
      { cpname = l.sl_name;
        cpty = CPtr l.sl_elem;
        cpbitwidth = Some (Csyntax.ty_bits l.sl_elem) }
  in
  let call_params =
    List.map (fun l -> param_of_layout l true) in_layouts
    @ List.map (fun l -> param_of_layout l true) out_layouts
    @ List.map (fun l -> param_of_layout l false) f_layouts
    @ [ { cpname = "gid"; cpty = CInt; cpbitwidth = None } ]
  in
  let input_cnames = cname_of_slots call in
  let decl_stmts =
    Hashtbl.fold
      (fun name t acc ->
        if String.equal name input_cnames.(0) then acc
        else SDecl (t, name, None) :: acc)
      decls []
    @ List.filter_map
        (fun (n, t, sz) ->
          if List.exists (String.equal n) aliased then None
          else Some (SDecl (CArr (t, sz), n, None)))
        arr_decls
  in
  let call_name = "call" in
  let call_func =
    { cfname = call_name;
      cfparams = call_params;
      cfret = None;
      cfbody = decl_stmts @ body }
  in
  (* Kernel wrapper: the RDD operator template (Code 3 of the paper).
     map: one call per task. reduce: seed the accumulator (output
     buffers) with task 0, then fold tasks 1..N-1 through the combiner. *)
  let kernel_args =
    List.map (fun (l : slot_layout) -> EVar l.sl_name)
      (in_layouts @ out_layouts @ f_layouts)
    @ [ EVar "t" ]
  in
  let kernel_body =
    if not is_reduce then
      [ SFor
          (Csyntax.mk_loop ~var:"t" ~lo:(EInt 0) ~hi:(EVar "N")
             [ SExpr (ECall (call_name, kernel_args)) ]) ]
    else
      let init_copies =
        List.map2
          (fun (inl : slot_layout) (outl : slot_layout) ->
            let k = inl.sl_name ^ "_init" in
            SFor
              (Csyntax.mk_loop ~var:k ~lo:(EInt 0)
                 ~hi:(EInt (min inl.sl_len outl.sl_len))
                 [ SAssign
                     ( EIndex (EVar outl.sl_name, EVar k),
                       EIndex (EVar inl.sl_name, EVar k) ) ]))
          in_layouts out_layouts
      in
      init_copies
      @ [ SFor
            (Csyntax.mk_loop ~var:"t" ~lo:(EInt 1) ~hi:(EVar "N")
               [ SExpr (ECall (call_name, kernel_args)) ]) ]
  in
  let kernel =
    { cfname = "kernel";
      cfparams =
        ({ cpname = "N"; cpty = CInt; cpbitwidth = None }
        :: List.map (fun l -> param_of_layout l true) in_layouts)
        @ List.map (fun l -> param_of_layout l true) out_layouts
        @ List.map (fun l -> param_of_layout l false) f_layouts;
      cfret = None;
      cfbody = kernel_body }
  in
  let mfields = method_fields cls in
  let helper_funcs =
    List.map
      (fun (m : Insn.methd) ->
        decompile_helper cls helper_names ~fcaps:field_caps
          ~fields:
            (Option.value ~default:[]
               (List.assoc_opt m.Insn.jname mfields))
          m)
      helpers
  in
  let prog = { cfuncs = helper_funcs @ [ call_func; kernel ] } in
  let iface =
    { if_inputs = in_layouts;
      if_outputs = out_layouts;
      if_fields = f_layouts;
      if_kernel = "kernel";
      if_call = call_name;
      if_reduce = is_reduce }
  in
  (prog, iface)

(* ---------- call-into-kernel inlining ---------- *)

let rec subst_var v repl e =
  match e with
  | EVar x when String.equal x v -> repl
  | EVar _ | EInt _ | ELong _ | EFloat _ | EDouble _ | EChar _ | EBool _ -> e
  | EBin (op, a, b) -> EBin (op, subst_var v repl a, subst_var v repl b)
  | EUn (op, a) -> EUn (op, subst_var v repl a)
  | EIndex (a, i) -> EIndex (subst_var v repl a, subst_var v repl i)
  | ECall (f, args) -> ECall (f, List.map (subst_var v repl) args)
  | ECond (c, a, b) ->
    ECond (subst_var v repl c, subst_var v repl a, subst_var v repl b)
  | ECast (t, a) -> ECast (t, subst_var v repl a)

let rec subst_var_stmts v repl stmts =
  List.map
    (function
      | SDecl (t, n, i) -> SDecl (t, n, Option.map (subst_var v repl) i)
      | SAssign (lv, e) -> SAssign (subst_var v repl lv, subst_var v repl e)
      | SIf (c, a, b) ->
        SIf (subst_var v repl c, subst_var_stmts v repl a, subst_var_stmts v repl b)
      | SWhile (c, b) -> SWhile (subst_var v repl c, subst_var_stmts v repl b)
      | SFor l ->
        SFor
          { l with
            llo = subst_var v repl l.llo;
            lhi = subst_var v repl l.lhi;
            lbody = subst_var_stmts v repl l.lbody }
      | SExpr e -> SExpr (subst_var v repl e)
      | SReturn e -> SReturn (Option.map (subst_var v repl) e))
    stmts

let flat_kernel (prog : cprog) : cprog =
  S2fa_obs.Obs.span "b2c.flatten" @@ fun () ->
  match (find_cfunc prog "call", find_cfunc prog "kernel") with
  | Some call, Some kernel ->
    (* The fold/task loop is the last statement; reduce kernels have
       accumulator-seeding copy loops before it. *)
    let body =
      match List.rev kernel.cfbody with
      | SFor task_loop :: before ->
        let inlined =
          subst_var_stmts "gid" (EVar task_loop.lvar) call.cfbody
        in
        List.rev (SFor { task_loop with lbody = inlined } :: before)
      | _ -> err "kernel does not have the expected task-loop shape"
    in
    let funcs =
      List.filter_map
        (fun f ->
          if String.equal f.cfname "call" then None
          else if String.equal f.cfname "kernel" then
            Some { f with cfbody = body }
          else Some f)
        prog.cfuncs
    in
    { cfuncs = funcs }
  | _ -> err "program lacks call/kernel functions"
