module Ast = S2fa_scala.Ast

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

let err fmt = Printf.ksprintf (fun m -> raise (Runtime_error m)) fmt

let rec default_value = function
  | Ast.TInt -> VInt 0
  | Ast.TLong -> VLong 0L
  | Ast.TFloat -> VFloat 0.0
  | Ast.TDouble -> VDouble 0.0
  | Ast.TBoolean -> VBool false
  | Ast.TChar -> VChar '\000'
  | Ast.TUnit -> VUnit
  | Ast.TString -> default_value (Ast.TArray Ast.TChar)
  | Ast.TArray _ | Ast.TTuple _ | Ast.TClass _ ->
    err "no default value for reference type"

let value_of_lit = function
  | Ast.LInt n -> VInt n
  | Ast.LLong n -> VLong n
  | Ast.LFloat f -> VFloat f
  | Ast.LDouble f -> VDouble f
  | Ast.LBool b -> VBool b
  | Ast.LChar c -> VChar c
  | Ast.LString s ->
    VArr
      { aelem = Ast.TChar;
        adata = Array.init (String.length s) (fun i -> VChar s.[i]) }
  | Ast.LUnit -> VUnit

let rec alloc_array elem dims =
  match dims with
  | [] -> err "alloc_array: no dimensions"
  | [ n ] ->
    let zero =
      match elem with
      | Ast.TArray _ | Ast.TTuple _ | Ast.TClass _ | Ast.TString ->
        err "alloc_array: nested reference elements need explicit dims"
      | t -> default_value t
    in
    VArr { aelem = elem; adata = Array.make n zero }
  | n :: rest ->
    let inner_elem =
      match elem with
      | Ast.TArray t -> t
      | _ -> err "alloc_array: dims deeper than element type"
    in
    VArr
      { aelem = elem;
        adata = Array.init n (fun _ -> alloc_array inner_elem rest) }

let rec equal_value a b =
  match (a, b) with
  | VInt x, VInt y -> x = y
  | VLong x, VLong y -> Int64.equal x y
  | VFloat x, VFloat y -> x = y
  | VDouble x, VDouble y -> x = y
  | VBool x, VBool y -> x = y
  | VChar x, VChar y -> x = y
  | VUnit, VUnit -> true
  | VArr x, VArr y ->
    Array.length x.adata = Array.length y.adata
    && (let ok = ref true in
        Array.iteri
          (fun i v -> if not (equal_value v y.adata.(i)) then ok := false)
          x.adata;
        !ok)
  | VTuple x, VTuple y ->
    Array.length x = Array.length y
    && (let ok = ref true in
        Array.iteri
          (fun i v -> if not (equal_value v y.(i)) then ok := false)
          x;
        !ok)
  | ( ( VInt _ | VLong _ | VFloat _ | VDouble _ | VBool _ | VChar _ | VUnit
      | VArr _ | VTuple _ ),
      _ ) ->
    false

let rec pp_value ppf = function
  | VInt n -> Format.fprintf ppf "%d" n
  | VLong n -> Format.fprintf ppf "%LdL" n
  | VFloat f -> Format.fprintf ppf "%gf" f
  | VDouble f -> Format.fprintf ppf "%g" f
  | VBool b -> Format.fprintf ppf "%b" b
  | VChar c -> Format.fprintf ppf "%C" c
  | VUnit -> Format.fprintf ppf "()"
  | VArr a ->
    Format.fprintf ppf "[|%a|]"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
         pp_value)
      (Array.to_list a.adata)
  | VTuple t ->
    Format.fprintf ppf "(%a)"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
         pp_value)
      (Array.to_list t)

type cost_model = {
  c_const : float;
  c_local : float;
  c_array_access : float;
  c_alloc_per_elem : float;
  c_tuple_alloc : float;
  c_tuple_get : float;
  c_field : float;
  c_int_add : float;
  c_int_mul : float;
  c_int_div : float;
  c_fp_add : float;
  c_fp_mul : float;
  c_fp_div : float;
  c_math : string -> float;
  c_branch : float;
  c_invoke : float;
  c_conv : float;
}

let default_cost_model =
  { c_const = 1.0;
    c_local = 1.0;
    c_array_access = 4.0;
    c_alloc_per_elem = 1.0;
    c_tuple_alloc = 24.0;
    c_tuple_get = 4.0;
    c_field = 3.0;
    c_int_add = 1.0;
    c_int_mul = 3.0;
    c_int_div = 24.0;
    c_fp_add = 3.0;
    c_fp_mul = 4.0;
    c_fp_div = 22.0;
    c_math =
      (function
      | "sqrt" -> 30.0
      | "exp" | "log" -> 60.0
      | "pow" -> 90.0
      | "abs" -> 2.0
      | "min" | "max" -> 2.0
      | "floor" | "ceil" -> 4.0
      | _ -> 20.0);
    c_branch = 2.0;
    c_invoke = 40.0;
    c_conv = 2.0;
  }

type instance = { icls : Insn.cls; ifields : (string * value) list }

type result = { rvalue : value; rcycles : float; rinsns : int }

(* ---------- arithmetic ---------- *)

let as_int = function
  | VInt n -> n
  | VChar c -> Char.code c
  | VBool b -> if b then 1 else 0
  | v -> err "expected Int, got %s" (Format.asprintf "%a" pp_value v)

let as_float = function
  | VFloat f | VDouble f -> f
  | v -> err "expected floating value, got %s" (Format.asprintf "%a" pp_value v)

let as_long = function
  | VLong n -> n
  | v -> err "expected Long, got %s" (Format.asprintf "%a" pp_value v)

let as_bool = function
  | VBool b -> b
  | v -> err "expected Boolean, got %s" (Format.asprintf "%a" pp_value v)

let as_arr = function
  | VArr a -> a
  | v -> err "expected array, got %s" (Format.asprintf "%a" pp_value v)

let int_binop op x y =
  match op with
  | Ast.Add -> x + y
  | Ast.Sub -> x - y
  | Ast.Mul -> x * y
  | Ast.Div -> if y = 0 then err "division by zero" else x / y
  | Ast.Rem -> if y = 0 then err "modulo by zero" else x mod y
  | Ast.BAnd -> x land y
  | Ast.BOr -> x lor y
  | Ast.BXor -> x lxor y
  | Ast.Shl -> x lsl y
  | Ast.Shr -> x asr y
  | Ast.Lshr -> x lsr y
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne | Ast.And | Ast.Or ->
    err "comparison in arithmetic position"

let float_binop op x y =
  match op with
  | Ast.Add -> x +. y
  | Ast.Sub -> x -. y
  | Ast.Mul -> x *. y
  | Ast.Div -> x /. y
  | Ast.Rem -> Float.rem x y
  | _ -> err "invalid floating binop"

let long_binop op x y =
  match op with
  | Ast.Add -> Int64.add x y
  | Ast.Sub -> Int64.sub x y
  | Ast.Mul -> Int64.mul x y
  | Ast.Div -> if Int64.equal y 0L then err "division by zero" else Int64.div x y
  | Ast.Rem -> if Int64.equal y 0L then err "modulo by zero" else Int64.rem x y
  | Ast.BAnd -> Int64.logand x y
  | Ast.BOr -> Int64.logor x y
  | Ast.BXor -> Int64.logxor x y
  | Ast.Shl -> Int64.shift_left x (Int64.to_int y)
  | Ast.Shr -> Int64.shift_right x (Int64.to_int y)
  | Ast.Lshr -> Int64.shift_right_logical x (Int64.to_int y)
  | _ -> err "invalid long binop"

(* JVM lshl/lshr/lushr pop an [int] shift count under the long operand,
   and typecheck widens the count only to Int accordingly — so for long
   shifts the right operand is legitimately a VInt. *)
let is_shift = function Ast.Shl | Ast.Shr | Ast.Lshr -> true | _ -> false

let as_shift_count = function
  | VInt n -> Int64.of_int n
  | VLong n -> n
  | v -> err "expected shift count, got %s" (Format.asprintf "%a" pp_value v)

let eval_bin ty op a b =
  match ty with
  | Ast.TInt | Ast.TChar | Ast.TBoolean ->
    VInt (int_binop op (as_int a) (as_int b))
  | Ast.TLong when is_shift op ->
    VLong (long_binop op (as_long a) (as_shift_count b))
  | Ast.TLong -> (
    match (a, b) with
    | VLong x, VLong y -> VLong (long_binop op x y)
    | _ -> VLong (long_binop op (as_long a) (as_long b)))
  | Ast.TFloat -> VFloat (float_binop op (as_float a) (as_float b))
  | Ast.TDouble -> VDouble (float_binop op (as_float a) (as_float b))
  | t -> err "binop on type %s" (Ast.string_of_ty t)

let compare_values ty cond a b =
  let c =
    match ty with
    | Ast.TInt | Ast.TChar -> compare (as_int a) (as_int b)
    | Ast.TBoolean -> compare (as_bool a) (as_bool b)
    | Ast.TLong -> Int64.compare (as_long a) (as_long b)
    | Ast.TFloat | Ast.TDouble -> compare (as_float a) (as_float b)
    | t -> err "comparison on type %s" (Ast.string_of_ty t)
  in
  match cond with
  | Insn.Clt -> c < 0
  | Insn.Cle -> c <= 0
  | Insn.Cgt -> c > 0
  | Insn.Cge -> c >= 0
  | Insn.Ceq -> c = 0
  | Insn.Cne -> c <> 0

let conv_float = function
  | VInt n -> float_of_int n
  | VChar c -> float_of_int (Char.code c)
  | VLong n -> Int64.to_float n
  | VFloat f | VDouble f -> f
  | _ -> err "conv: non-numeric"

let conv_int = function
  | VInt n -> n
  | VChar c -> Char.code c
  | VLong n -> Int64.to_int n
  | VFloat f | VDouble f -> int_of_float f
  | _ -> err "conv: non-numeric"

let convert to_ty v =
  match to_ty with
  | Ast.TInt -> VInt (conv_int v)
  | Ast.TLong -> (
    match v with
    | VLong n -> VLong n
    | VFloat f | VDouble f -> VLong (Int64.of_float f)
    | _ -> VLong (Int64.of_int (conv_int v)))
  | Ast.TFloat -> VFloat (conv_float v)
  | Ast.TDouble -> VDouble (conv_float v)
  | Ast.TChar -> VChar (Char.chr (conv_int v land 0xff))
  | t -> err "conv to %s" (Ast.string_of_ty t)

(* The [math.*] intrinsics, resolved by name once, at decode time. *)
let math1 f : value -> value =
  match f with
  | "sqrt" -> fun x -> VDouble (sqrt (as_float x))
  | "exp" -> fun x -> VDouble (exp (as_float x))
  | "log" -> fun x -> VDouble (log (as_float x))
  | "floor" -> fun x -> VDouble (floor (as_float x))
  | "ceil" -> fun x -> VDouble (ceil (as_float x))
  | "abs" -> (
    function
    | VInt n -> VInt (abs n)
    | VLong n -> VLong (Int64.abs n)
    | (VFloat _ | VDouble _) as x -> VDouble (Float.abs (as_float x))
    | _ -> err "math.abs: bad arguments")
  | f -> fun _ -> err "math.%s: bad arguments" f

let math2 f : value -> value -> value =
  match f with
  | "pow" -> fun x y -> VDouble (Float.pow (as_float x) (as_float y))
  | "min" -> (
    fun a b ->
      match (a, b) with
      | VInt a, VInt b -> VInt (min a b)
      | VLong a, VLong b -> VLong (if Int64.compare a b <= 0 then a else b)
      | a, b -> VDouble (min (as_float a) (as_float b)))
  | "max" -> (
    fun a b ->
      match (a, b) with
      | VInt a, VInt b -> VInt (max a b)
      | VLong a, VLong b -> VLong (if Int64.compare a b >= 0 then a else b)
      | a, b -> VDouble (max (as_float a) (as_float b)))
  | f -> fun _ _ -> err "math.%s: bad arguments" f

(* ---------- decoding ---------- *)

let insn_cost cm = function
  | Insn.Ldc _ -> cm.c_const
  | Insn.Load _ | Insn.Store _ -> cm.c_local
  | Insn.ALoad | Insn.AStore -> cm.c_array_access
  | Insn.ArrayLength -> cm.c_local
  | Insn.NewArr (_, dims) ->
    cm.c_alloc_per_elem *. float_of_int (List.fold_left ( * ) 1 dims)
  | Insn.NewTup _ -> cm.c_tuple_alloc
  | Insn.TupGet _ -> cm.c_tuple_get
  | Insn.GetField _ -> cm.c_field
  | Insn.Bin (ty, op) -> (
    match (ty, op) with
    | (Ast.TFloat | Ast.TDouble), (Ast.Mul) -> cm.c_fp_mul
    | (Ast.TFloat | Ast.TDouble), (Ast.Div | Ast.Rem) -> cm.c_fp_div
    | (Ast.TFloat | Ast.TDouble), _ -> cm.c_fp_add
    | _, Ast.Mul -> cm.c_int_mul
    | _, (Ast.Div | Ast.Rem) -> cm.c_int_div
    | _, _ -> cm.c_int_add)
  | Insn.Un _ -> cm.c_int_add
  | Insn.Conv _ -> cm.c_conv
  | Insn.MathOp f -> cm.c_math f
  | Insn.Invoke _ -> cm.c_invoke
  | Insn.CmpJmp _ | Insn.IfFalse _ | Insn.Goto _ -> cm.c_branch
  | Insn.Ret | Insn.RetVoid -> cm.c_branch
  | Insn.Dup | Insn.Pop -> cm.c_local

(* An instruction resolved against its class and instance: callees are
   method indices, fields are their values, constants are pre-boxed,
   and Int arithmetic and compares have their own cases. *)
type op =
  | OConst of value
  | OString of string  (* a fresh array per execution, like [value_of_lit] *)
  | OLoad of int
  | OStore of int
  | OBadSlot  (* a slot outside the frame, as unverified code may name *)
  | OALoad
  | OAStore
  | OArrayLength
  | ONewArr of Ast.ty * int list
  | ONewTup of int
  | OTupGet of int
  | OField of value
  | ONoField of string
  | OIntBin of Ast.binop  (* Int, Char and Boolean operands *)
  | OBin of Ast.ty * Ast.binop
  | OUn of Ast.ty * Ast.unop
  | OConv of Ast.ty
  | OMath1 of (value -> value)
  | OMath2 of (value -> value -> value)
  | OInvoke of int * string * int  (* callee index, or -1 if none; name; argc *)
  | OIntCmpJmp of Insn.cond * int
  | OCmpJmp of Ast.ty * Insn.cond * int
  | OIfFalse of int
  | OGoto of int
  | ORet
  | ORetVoid
  | ODup
  | OPop

type dmethod = {
  d_name : string;
  d_argc : int;
  d_slots : int;  (* frame size, at least 1 *)
  d_code : op array;
  d_cost : float array;  (* cycles of each pc under the run's cost model *)
}

let decode cost inst =
  let methods = Array.of_list inst.icls.Insn.jmethods in
  let index name =
    let rec go i =
      if i = Array.length methods then -1
      else if String.equal methods.(i).Insn.jname name then i
      else go (i + 1)
    in
    go 0
  in
  let decode_method (m : Insn.methd) =
    let slots = max 1 m.Insn.jslots in
    let slot s k = if s >= 0 && s < slots then k s else OBadSlot in
    let op = function
      | Insn.Ldc (Ast.LString s) -> OString s
      | Insn.Ldc l -> OConst (value_of_lit l)
      | Insn.Load s -> slot s (fun s -> OLoad s)
      | Insn.Store s -> slot s (fun s -> OStore s)
      | Insn.ALoad -> OALoad
      | Insn.AStore -> OAStore
      | Insn.ArrayLength -> OArrayLength
      | Insn.NewArr (t, dims) -> ONewArr (t, dims)
      | Insn.NewTup n -> ONewTup n
      | Insn.TupGet i -> OTupGet i
      | Insn.GetField f -> (
        match List.assoc_opt f inst.ifields with
        | Some v -> OField v
        | None -> ONoField f)
      | Insn.Bin ((Ast.TInt | Ast.TChar | Ast.TBoolean), op) -> OIntBin op
      | Insn.Bin (ty, op) -> OBin (ty, op)
      | Insn.Un (ty, op) -> OUn (ty, op)
      | Insn.Conv (_, ty) -> OConv ty
      | Insn.MathOp f ->
        if Insn.math_arity f = 2 then OMath2 (math2 f) else OMath1 (math1 f)
      | Insn.Invoke (callee, n) -> OInvoke (index callee, callee, n)
      | Insn.CmpJmp ((Ast.TInt | Ast.TChar), c, l) -> OIntCmpJmp (c, l)
      | Insn.CmpJmp (ty, c, l) -> OCmpJmp (ty, c, l)
      | Insn.IfFalse l -> OIfFalse l
      | Insn.Goto l -> OGoto l
      | Insn.Ret -> ORet
      | Insn.RetVoid -> ORetVoid
      | Insn.Dup -> ODup
      | Insn.Pop -> OPop
    in
    { d_name = m.Insn.jname;
      d_argc = List.length m.Insn.jargs;
      d_slots = slots;
      d_code = Array.map op m.Insn.jcode;
      d_cost = Array.map (insn_cost cost) m.Insn.jcode }
  in
  Array.map decode_method methods

(* ---------- execution ---------- *)

(* One run's machine: every frame's operands live on one stack and every
   frame's locals in one array, so a call allocates nothing. A frame owns
   the stack above its base [sb] and the locals from its base [bp]. *)
type machine = {
  methods : dmethod array;
  mutable stack : value array;
  mutable sp : int;
  mutable locals : value array;
  mutable lp : int;  (* first local past the innermost frame *)
  mutable fuel : int;  (* instructions left *)
}

(* Only float fields, so the sum is stored unboxed. *)
type cycles = { mutable cycles : float }

let grow a need =
  let b = Array.make (max need (2 * Array.length a)) VUnit in
  Array.blit a 0 b 0 (Array.length a);
  b

let push mc v =
  if mc.sp = Array.length mc.stack then mc.stack <- grow mc.stack (mc.sp + 1);
  mc.stack.(mc.sp) <- v;
  mc.sp <- mc.sp + 1

let underflow m = err "%s: operand stack underflow" m.d_name

let pop mc m sb =
  if mc.sp <= sb then underflow m;
  mc.sp <- mc.sp - 1;
  mc.stack.(mc.sp)

let bounds m idx arr =
  if idx < 0 || idx >= Array.length arr.adata then
    err "%s: index %d out of bounds (len %d)" m.d_name idx
      (Array.length arr.adata)

let int_cond c (x : int) (y : int) =
  match c with
  | Insn.Clt -> x < y
  | Insn.Cle -> x <= y
  | Insn.Cgt -> x > y
  | Insn.Cge -> x >= y
  | Insn.Ceq -> x = y
  | Insn.Cne -> x <> y

(* Instructions are charged one at a time, in execution order, so the
   cycle sum is the same float whatever the cost model. *)
let rec exec mc cy m bp sb pc =
  mc.fuel <- mc.fuel - 1;
  if mc.fuel <= 0 then err "fuel exhausted (infinite loop?)";
  cy.cycles <- cy.cycles +. m.d_cost.(pc);
  match m.d_code.(pc) with
  | OConst v ->
    push mc v;
    exec mc cy m bp sb (pc + 1)
  | OString s ->
    push mc (value_of_lit (Ast.LString s));
    exec mc cy m bp sb (pc + 1)
  | OLoad s ->
    push mc mc.locals.(bp + s);
    exec mc cy m bp sb (pc + 1)
  | OStore s ->
    mc.locals.(bp + s) <- pop mc m sb;
    exec mc cy m bp sb (pc + 1)
  | OBadSlot -> invalid_arg "index out of bounds"
  | OALoad ->
    let idx = as_int (pop mc m sb) in
    let arr = as_arr (pop mc m sb) in
    bounds m idx arr;
    push mc arr.adata.(idx);
    exec mc cy m bp sb (pc + 1)
  | OAStore ->
    let v = pop mc m sb in
    let idx = as_int (pop mc m sb) in
    let arr = as_arr (pop mc m sb) in
    bounds m idx arr;
    arr.adata.(idx) <- v;
    exec mc cy m bp sb (pc + 1)
  | OArrayLength ->
    let arr = as_arr (pop mc m sb) in
    push mc (VInt (Array.length arr.adata));
    exec mc cy m bp sb (pc + 1)
  | ONewArr (t, dims) ->
    push mc (alloc_array t dims);
    exec mc cy m bp sb (pc + 1)
  | ONewTup n ->
    if mc.sp - sb < n then underflow m;
    mc.sp <- mc.sp - n;
    push mc (VTuple (Array.sub mc.stack mc.sp n));
    exec mc cy m bp sb (pc + 1)
  | OTupGet i -> (
    match pop mc m sb with
    | VTuple t when i < Array.length t ->
      push mc t.(i);
      exec mc cy m bp sb (pc + 1)
    | _ -> err "%s: tupget on non-tuple" m.d_name)
  | OField v ->
    push mc v;
    exec mc cy m bp sb (pc + 1)
  | ONoField f -> err "%s: no field %s" m.d_name f
  | OIntBin op ->
    let b = pop mc m sb in
    let a = pop mc m sb in
    push mc
      (match (a, b) with
      | VInt x, VInt y -> VInt (int_binop op x y)
      | _ -> eval_bin Ast.TInt op a b);
    exec mc cy m bp sb (pc + 1)
  | OBin (ty, op) ->
    let b = pop mc m sb in
    let a = pop mc m sb in
    push mc (eval_bin ty op a b);
    exec mc cy m bp sb (pc + 1)
  | OUn (ty, op) ->
    let a = pop mc m sb in
    push mc
      (match (op, ty) with
      | Ast.Neg, Ast.TFloat -> VFloat (-.as_float a)
      | Ast.Neg, Ast.TDouble -> VDouble (-.as_float a)
      | Ast.Neg, Ast.TLong -> VLong (Int64.neg (as_long a))
      | Ast.Neg, _ -> VInt (-as_int a)
      | Ast.Not, _ -> VBool (not (as_bool a))
      | Ast.BNot, Ast.TLong -> VLong (Int64.lognot (as_long a))
      | Ast.BNot, _ -> VInt (lnot (as_int a)));
    exec mc cy m bp sb (pc + 1)
  | OConv ty ->
    let v = pop mc m sb in
    push mc (convert ty v);
    exec mc cy m bp sb (pc + 1)
  | OMath1 f ->
    let x = pop mc m sb in
    push mc (f x);
    exec mc cy m bp sb (pc + 1)
  | OMath2 f ->
    let b = pop mc m sb in
    let a = pop mc m sb in
    push mc (f a b);
    exec mc cy m bp sb (pc + 1)
  | OInvoke (ci, name, n) ->
    if mc.sp - sb < n then underflow m;
    if ci < 0 then err "no method %s" name;
    (match call mc cy mc.methods.(ci) n with
    | VUnit -> ()
    | v -> push mc v);
    exec mc cy m bp sb (pc + 1)
  | OIntCmpJmp (c, l) ->
    let b = pop mc m sb in
    let a = pop mc m sb in
    let taken =
      match (a, b) with
      | VInt x, VInt y -> int_cond c x y
      | _ -> compare_values Ast.TInt c a b
    in
    exec mc cy m bp sb (if taken then l else pc + 1)
  | OCmpJmp (ty, c, l) ->
    let b = pop mc m sb in
    let a = pop mc m sb in
    exec mc cy m bp sb (if compare_values ty c a b then l else pc + 1)
  | OIfFalse l ->
    exec mc cy m bp sb (if as_bool (pop mc m sb) then pc + 1 else l)
  | OGoto l -> exec mc cy m bp sb l
  | ORet ->
    let v = pop mc m sb in
    mc.sp <- sb;
    v
  | ORetVoid ->
    mc.sp <- sb;
    VUnit
  | ODup ->
    let v = pop mc m sb in
    push mc v;
    push mc v;
    exec mc cy m bp sb (pc + 1)
  | OPop ->
    ignore (pop mc m sb);
    exec mc cy m bp sb (pc + 1)

(* Run [m] on the [n] arguments at the top of the stack, which it pops. *)
and call mc cy m n =
  if n <> m.d_argc then err "%s: arity mismatch" m.d_name;
  let sb = mc.sp - n and bp = mc.lp in
  let top = bp + m.d_slots in
  if top > Array.length mc.locals then mc.locals <- grow mc.locals top;
  for i = 0 to m.d_slots - 1 do
    mc.locals.(bp + i) <- (if i < n then mc.stack.(sb + i) else VUnit)
  done;
  mc.sp <- sb;
  mc.lp <- top;
  let v = exec mc cy m bp sb 0 in
  mc.lp <- bp;
  v

let run_method ?(cost = default_cost_model) ?(fuel = 200_000_000) inst name
    args =
  let methods = decode cost inst in
  let m =
    match Array.find_opt (fun m -> String.equal m.d_name name) methods with
    | Some m -> m
    | None -> err "no method %s" name
  in
  let stack = Array.of_list args in
  let n = Array.length stack in
  let mc =
    { methods; stack = grow stack 64; sp = n; locals = Array.make 64 VUnit;
      lp = 0; fuel }
  in
  let cy = { cycles = 0.0 } in
  let rvalue = call mc cy m n in
  { rvalue; rcycles = cy.cycles; rinsns = fuel - mc.fuel }
