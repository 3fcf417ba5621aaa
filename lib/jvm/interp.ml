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

let eval_un ty op a =
  match (op, ty) with
  | Ast.Neg, Ast.TFloat -> VFloat (-.as_float a)
  | Ast.Neg, Ast.TDouble -> VDouble (-.as_float a)
  | Ast.Neg, Ast.TLong -> VLong (Int64.neg (as_long a))
  | Ast.Neg, _ -> VInt (-as_int a)
  | Ast.Not, _ -> VBool (not (as_bool a))
  | Ast.BNot, Ast.TLong -> VLong (Int64.lognot (as_long a))
  | Ast.BNot, _ -> VInt (lnot (as_int a))

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
  (* An Int or Long result is one of the operands' own boxes. *)
  | "min" -> (
    fun a b ->
      match (a, b) with
      | VInt x, VInt y -> if x <= y then a else b
      | VLong x, VLong y -> if Int64.compare x y <= 0 then a else b
      | a, b -> VDouble (min (as_float a) (as_float b)))
  | "max" -> (
    fun a b ->
      match (a, b) with
      | VInt x, VInt y -> if x >= y then a else b
      | VLong x, VLong y -> if Int64.compare x y >= 0 then a else b
      | a, b -> VDouble (max (as_float a) (as_float b)))
  | f -> fun _ _ -> err "math.%s: bad arguments" f

(* ---------- costs ---------- *)

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

(* ---------- compilation ---------- *)

(* A program's machine, shared by its runs: every frame's locals and
   temporaries live in one array, a frame owning [d_slots] cells from its
   base [bp], so a call allocates nothing. *)
type machine = {
  mutable fuel : int;  (* instructions left *)
  mutable locals : value array;
  mutable lp : int;  (* first cell past the innermost frame *)
}

(* Only float fields, so the sum is stored unboxed. *)
type cycles = { mutable cycles : float }

type meth = {
  d_name : string;
  d_argc : int;
  d_frame : int;  (* local slots, at least 1; the temporaries follow *)
  d_slots : int;  (* local slots and temporaries *)
  mutable d_entry : int -> value;  (* runs the method on the frame at bp *)
}

type program = { methods : meth array; mc : machine; cy : cycles }

let fuel_out () = err "fuel exhausted (infinite loop?)"

(* Charge one instruction, fuel first, so a run stops at the exact
   instruction that exhausts it. *)
let[@inline] tick mc cy c =
  mc.fuel <- mc.fuel - 1;
  if mc.fuel <= 0 then fuel_out ();
  cy.cycles <- cy.cycles +. c

(* Control reaching a pc outside the code: the fetch consumes fuel and
   fails. *)
let fault mc (_ : int) : value =
  mc.fuel <- mc.fuel - 1;
  if mc.fuel <= 0 then fuel_out ();
  invalid_arg "index out of bounds"

let bad_slot () = invalid_arg "index out of bounds"

let grow a need =
  let b = Array.make (max need (2 * Array.length a)) VUnit in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Push [m]'s frame with its first [args] cells still to store; the
   rest of its locals start as [VUnit]. *)
let enter mc m args =
  let bp = mc.lp in
  let top = bp + m.d_slots in
  if top > Array.length mc.locals then mc.locals <- grow mc.locals top;
  let l = mc.locals in
  for i = args to m.d_frame - 1 do
    Array.unsafe_set l (bp + i) VUnit
  done;
  mc.lp <- top;
  bp

let run_frame mc m bp =
  let v = m.d_entry bp in
  mc.lp <- bp;
  v

let out_of_bounds name idx arr =
  err "%s: index %d out of bounds (len %d)" name idx (Array.length arr.adata)

let[@inline] aload name arr idx =
  if idx < 0 || idx >= Array.length arr.adata then out_of_bounds name idx arr;
  Array.unsafe_get arr.adata idx

let[@inline] astore name arr idx v =
  if idx < 0 || idx >= Array.length arr.adata then out_of_bounds name idx arr;
  Array.unsafe_set arr.adata idx v

(* [as_int] and [as_arr] with their common case inline. *)
let[@inline] to_int = function VInt n -> n | v -> as_int v

let[@inline] to_arr = function VArr a -> a | v -> as_arr v

(* Int arithmetic and compares, the common cases inline. *)
let[@inline] arith op x y =
  match op with
  | Ast.Add -> x + y
  | Ast.Sub -> x - y
  | Ast.Mul -> x * y
  | op -> int_binop op x y

let[@inline] test cond (x : int) y =
  match cond with
  | Insn.Clt -> x < y
  | Insn.Cle -> x <= y
  | Insn.Cgt -> x > y
  | Insn.Cge -> x >= y
  | Insn.Ceq -> x = y
  | Insn.Cne -> x <> y

(* A compiled tree: Int-valued trees (Int constants, arithmetic, lengths,
   conversions) run unboxed. *)
type operand = I of (int -> int) | V of (int -> value)

let boxed = function V f -> f | I f -> fun bp -> VInt (f bp)

(* Int consumers of two operands: both run in order, then the consumer
   is charged, and only then is a boxed operand unboxed, the right one
   first, as the stack machine popped them. [bin2] computes, [cmp2]
   compares. *)
let bin2 mc cy c op a b : int -> int =
  match (a, b) with
  | I fa, I fb ->
    fun bp ->
      let x = fa bp in
      let y = fb bp in
      tick mc cy c;
      arith op x y
  | I fa, V fb ->
    fun bp ->
      let x = fa bp in
      let y = fb bp in
      tick mc cy c;
      arith op x (to_int y)
  | V fa, I fb ->
    fun bp ->
      let x = fa bp in
      let y = fb bp in
      tick mc cy c;
      arith op (to_int x) y
  | V fa, V fb ->
    fun bp ->
      let x = fa bp in
      let y = fb bp in
      tick mc cy c;
      let y = to_int y in
      arith op (to_int x) y

let cmp2 mc cy c cond a b : int -> bool =
  match (a, b) with
  | I fa, I fb ->
    fun bp ->
      let x = fa bp in
      let y = fb bp in
      tick mc cy c;
      test cond x y
  | I fa, V fb ->
    fun bp ->
      let x = fa bp in
      let y = fb bp in
      tick mc cy c;
      test cond x (to_int y)
  | V fa, I fb ->
    fun bp ->
      let x = fa bp in
      let y = fb bp in
      tick mc cy c;
      test cond (to_int x) y
  | V fa, V fb ->
    fun bp ->
      let x = fa bp in
      let y = fb bp in
      tick mc cy c;
      let y = to_int y in
      test cond (to_int x) y

(* One method being compiled. *)
type cx = {
  mc : machine;
  cy : cycles;
  find : string -> meth option;
  fields : (string * value) list;
  m : meth;
  code : Insn.insn array;
  cost : float array;
  cfg : Cfg.t;
  blocks : (int -> value) array;
      (* one closure per block, then the fault of a pc outside the code *)
}

(* The block a jump to [pc] enters. *)
let target cx pc =
  if pc >= 0 && pc < Array.length cx.code then cx.cfg.Cfg.block_of_pc.(pc)
  else Array.length cx.blocks - 1

let malformed cx pc =
  invalid_arg
    (Format.asprintf "Interp: %s: no tree shape for %a" cx.m.d_name
       Insn.pp_insn cx.code.(pc))

(* An Int constant's pc and box: wherever a value is wanted it is boxed
   once, as the stack machine's constants were. *)
let int_const cx = function
  | Tree.Op (pc, []) -> (
    match cx.code.(pc) with
    | Insn.Ldc (Ast.LInt n) -> Some (pc, VInt n)
    | _ -> None)
  | Tree.Op _ | Tree.Temp _ -> None

let const cx pc v =
  let mc = cx.mc and cy = cx.cy and c = cx.cost.(pc) in
  fun _ ->
    tick mc cy c;
    v

let rec operand cx = function
  | Tree.Temp t ->
    let mc = cx.mc and slot = cx.m.d_frame + t in
    V (fun bp -> Array.unsafe_get mc.locals (bp + slot))
  | Tree.Op (pc, args) -> node cx pc args

and value cx e =
  match int_const cx e with
  | Some (pc, v) -> const cx pc v
  | None -> boxed (operand cx e)

and node cx pc args =
  let mc = cx.mc and cy = cx.cy and c = cx.cost.(pc) and name = cx.m.d_name in
  match (cx.code.(pc), args) with
  | Insn.Ldc (Ast.LInt n), [] ->
    I
      (fun _ ->
        tick mc cy c;
        n)
  | Insn.Ldc (Ast.LString s), [] ->
    V
      (fun _ ->
        tick mc cy c;
        value_of_lit (Ast.LString s))
  | Insn.Ldc l, [] -> V (const cx pc (value_of_lit l))
  | Insn.Load s, [] ->
    if s < 0 || s >= cx.m.d_frame then
      V
        (fun _ ->
          tick mc cy c;
          bad_slot ())
    else
      V
        (fun bp ->
          tick mc cy c;
          Array.unsafe_get mc.locals (bp + s))
  | Insn.ALoad, [ a; i ] -> (
    let fa = value cx a in
    match operand cx i with
    | I fi ->
      V
        (fun bp ->
          let arr = fa bp in
          let idx = fi bp in
          tick mc cy c;
          aload name (to_arr arr) idx)
    | V fi ->
      V
        (fun bp ->
          let arr = fa bp in
          let idx = fi bp in
          tick mc cy c;
          let idx = to_int idx in
          aload name (to_arr arr) idx))
  | Insn.ArrayLength, [ a ] ->
    let fa = value cx a in
    I
      (fun bp ->
        let arr = fa bp in
        tick mc cy c;
        Array.length (to_arr arr).adata)
  | Insn.NewArr (t, dims), [] ->
    V
      (fun _ ->
        tick mc cy c;
        alloc_array t dims)
  | Insn.NewTup _, args ->
    let fs = Array.of_list (List.map (value cx) args) in
    let n = Array.length fs in
    V
      (fun bp ->
        let vs = Array.make n VUnit in
        for i = 0 to n - 1 do
          vs.(i) <- fs.(i) bp
        done;
        tick mc cy c;
        VTuple vs)
  | Insn.TupGet i, [ t ] ->
    let ft = value cx t in
    V
      (fun bp ->
        let v = ft bp in
        tick mc cy c;
        match v with
        | VTuple t when i < Array.length t -> t.(i)
        | _ -> err "%s: tupget on non-tuple" name)
  | Insn.GetField f, [] -> (
    match List.assoc_opt f cx.fields with
    | Some v ->
      V
        (fun _ ->
          tick mc cy c;
          v)
    | None ->
      V
        (fun _ ->
          tick mc cy c;
          err "%s: no field %s" name f))
  | Insn.Bin ((Ast.TInt | Ast.TChar | Ast.TBoolean), op), [ a; b ] ->
    I (bin2 mc cy c op (operand cx a) (operand cx b))
  | Insn.Bin (ty, op), [ a; b ] ->
    let fa = value cx a and fb = value cx b in
    V
      (fun bp ->
        let x = fa bp in
        let y = fb bp in
        tick mc cy c;
        eval_bin ty op x y)
  | Insn.Un (ty, op), [ a ] ->
    let fa = value cx a in
    V
      (fun bp ->
        let x = fa bp in
        tick mc cy c;
        eval_un ty op x)
  | Insn.Conv (_, Ast.TInt), [ a ] -> (
    match operand cx a with
    | I fa ->
      I
        (fun bp ->
          let x = fa bp in
          tick mc cy c;
          x)
    | V fa ->
      I
        (fun bp ->
          let x = fa bp in
          tick mc cy c;
          conv_int x))
  | Insn.Conv (_, ty), [ a ] ->
    let fa = value cx a in
    V
      (fun bp ->
        let x = fa bp in
        tick mc cy c;
        convert ty x)
  | Insn.MathOp f, [ a ] ->
    let g = math1 f and fa = value cx a in
    V
      (fun bp ->
        let x = fa bp in
        tick mc cy c;
        g x)
  | Insn.MathOp f, [ a; b ] ->
    let g = math2 f and fa = value cx a and fb = value cx b in
    V
      (fun bp ->
        let x = fa bp in
        let y = fb bp in
        tick mc cy c;
        g x y)
  | Insn.Invoke (callee, _), args -> V (call cx pc callee args)
  | Insn.Dup, [ a ] ->
    let fa = value cx a in
    V
      (fun bp ->
        let x = fa bp in
        tick mc cy c;
        x)
  | _ -> malformed cx pc

(* Run the arguments in order, charge the invoke, then enter the
   callee's frame above the caller's. *)
and call cx pc callee args : int -> value =
  let mc = cx.mc and cy = cx.cy and c = cx.cost.(pc) in
  let fs = Array.of_list (List.map (value cx) args) in
  let n = Array.length fs in
  let eval bp =
    let vs = Array.make n VUnit in
    for i = 0 to n - 1 do
      vs.(i) <- fs.(i) bp
    done;
    vs
  in
  match cx.find callee with
  | None ->
    fun bp ->
      ignore (eval bp);
      tick mc cy c;
      err "no method %s" callee
  | Some m when m.d_argc <> n ->
    fun bp ->
      ignore (eval bp);
      tick mc cy c;
      err "%s: arity mismatch" m.d_name
  | Some m -> (
    let stored = min n m.d_frame in
    match fs with
    | [| f0 |] when stored = 1 ->
      fun bp ->
        let v0 = f0 bp in
        tick mc cy c;
        let bp' = enter mc m 1 in
        Array.unsafe_set mc.locals bp' v0;
        run_frame mc m bp'
    | [| f0; f1 |] when stored = 2 ->
      fun bp ->
        let v0 = f0 bp in
        let v1 = f1 bp in
        tick mc cy c;
        let bp' = enter mc m 2 in
        let l = mc.locals in
        Array.unsafe_set l bp' v0;
        Array.unsafe_set l (bp' + 1) v1;
        run_frame mc m bp'
    | _ ->
      fun bp ->
        let vs = eval bp in
        tick mc cy c;
        let bp' = enter mc m stored in
        Array.blit vs 0 mc.locals bp' stored;
        run_frame mc m bp')

(* A statement, then [k]. *)
and stmt cx s (k : int -> value) : int -> value =
  let mc = cx.mc and cy = cx.cy in
  match s with
  | Tree.Bind (t, e) ->
    let slot = cx.m.d_frame + t and f = value cx e in
    fun bp ->
      let v = f bp in
      Array.unsafe_set mc.locals (bp + slot) v;
      k bp
  | Tree.Effect (pc, args) -> (
    let c = cx.cost.(pc) and name = cx.m.d_name in
    match (cx.code.(pc), args) with
    | Insn.Store s, [ e ] -> (
      if s < 0 || s >= cx.m.d_frame then
        let f = value cx e in
        fun bp ->
          ignore (f bp);
          tick mc cy c;
          bad_slot ()
      else
        (* A computed Int is boxed here, where it is stored, not in a
           wrapper. *)
        match
          if Option.is_none (int_const cx e) then operand cx e
          else V (value cx e)
        with
        | I f ->
          fun bp ->
            let x = f bp in
            tick mc cy c;
            Array.unsafe_set mc.locals (bp + s) (VInt x);
            k bp
        | V f ->
          fun bp ->
            let v = f bp in
            tick mc cy c;
            Array.unsafe_set mc.locals (bp + s) v;
            k bp)
    | Insn.AStore, [ a; i; v ] -> (
      let fa = value cx a and fv = value cx v in
      match operand cx i with
      | I fi ->
        fun bp ->
          let arr = fa bp in
          let idx = fi bp in
          let x = fv bp in
          tick mc cy c;
          astore name (to_arr arr) idx x;
          k bp
      | V fi ->
        fun bp ->
          let arr = fa bp in
          let idx = fi bp in
          let x = fv bp in
          tick mc cy c;
          let idx = to_int idx in
          astore name (to_arr arr) idx x;
          k bp)
    | Insn.Pop, [ e ] ->
      let f = value cx e in
      fun bp ->
        ignore (f bp);
        tick mc cy c;
        k bp
    | Insn.Invoke (callee, _), args ->
      let f = call cx pc callee args in
      fun bp ->
        ignore (f bp);
        k bp
    | _ -> malformed cx pc)

(* How a block ends: a branch picks the next block's closure. *)
and exit cx (b : Cfg.block) : Tree.exit -> int -> value =
  let mc = cx.mc and cy = cx.cy and blocks = cx.blocks in
  function
  | Tree.Fall ->
    let j = target cx (b.Cfg.last + 1) in
    fun bp -> blocks.(j) bp
  | Tree.Underflow pc -> (
    let c = cx.cost.(pc) and name = cx.m.d_name in
    match cx.code.(pc) with
    | Insn.Store s when s < 0 || s >= cx.m.d_frame ->
      fun _ ->
        tick mc cy c;
        bad_slot ()
    | _ ->
      fun _ ->
        tick mc cy c;
        err "%s: operand stack underflow" name)
  | Tree.Branch (pc, args) -> (
    let c = cx.cost.(pc) in
    let next = target cx (pc + 1) in
    match (cx.code.(pc), args) with
    | Insn.Goto l, [] ->
      let j = target cx l in
      fun bp ->
        tick mc cy c;
        blocks.(j) bp
    | Insn.CmpJmp ((Ast.TInt | Ast.TChar), cond, l), [ a; b ] ->
      let j = target cx l in
      let test = cmp2 mc cy c cond (operand cx a) (operand cx b) in
      fun bp -> blocks.(if test bp then j else next) bp
    | Insn.CmpJmp (ty, cond, l), [ a; b ] ->
      let j = target cx l in
      let fa = value cx a and fb = value cx b in
      fun bp ->
        let x = fa bp in
        let y = fb bp in
        tick mc cy c;
        blocks.(if compare_values ty cond x y then j else next) bp
    | Insn.IfFalse l, [ a ] ->
      let j = target cx l in
      let fa = value cx a in
      fun bp ->
        let x = fa bp in
        tick mc cy c;
        blocks.(if as_bool x then next else j) bp
    | Insn.Ret, [ a ] ->
      let fa = value cx a in
      fun bp ->
        let v = fa bp in
        tick mc cy c;
        v
    | Insn.RetVoid, [] ->
      fun _ ->
        tick mc cy c;
        VUnit
    | _ -> malformed cx pc)

let load ?(cost = default_cost_model) inst =
  let cls = inst.icls in
  let mc = { fuel = 0; locals = Array.make 64 VUnit; lp = 0 }
  and cy = { cycles = 0.0 } in
  let jms = Array.of_list cls.Insn.jmethods in
  let shapes =
    Array.map
      (fun (jm : Insn.methd) ->
        let code = jm.Insn.jcode in
        if Array.length code = 0 then None
        else
          let cfg = Cfg.build code in
          Some
            ( cfg,
              Array.map
                (fun (b : Cfg.block) ->
                  Tree.of_block cls code ~first:b.Cfg.first ~last:b.Cfg.last)
                cfg.Cfg.blocks ))
      jms
  in
  let methods =
    Array.mapi
      (fun i (jm : Insn.methd) ->
        let frame = max 1 jm.Insn.jslots in
        let temps =
          match shapes.(i) with
          | None -> 0
          | Some (_, trees) ->
            Array.fold_left (fun t (b : Tree.block) -> max t b.Tree.temps) 0
              trees
        in
        { d_name = jm.Insn.jname;
          d_argc = List.length jm.Insn.jargs;
          d_frame = frame;
          d_slots = frame + temps;
          d_entry = fault mc })
      jms
  in
  let find name = Array.find_opt (fun m -> String.equal m.d_name name) methods in
  Array.iteri
    (fun i (jm : Insn.methd) ->
      match shapes.(i) with
      | None -> ()
      | Some (cfg, trees) ->
        let nb = Array.length cfg.Cfg.blocks in
        let cx =
          { mc; cy; find; fields = inst.ifields; m = methods.(i);
            code = jm.Insn.jcode;
            cost = Array.map (insn_cost cost) jm.Insn.jcode;
            cfg;
            blocks = Array.make (nb + 1) (fault mc) }
        in
        Array.iteri
          (fun j (b : Cfg.block) ->
            let tb = trees.(j) in
            cx.blocks.(j) <-
              List.fold_right (stmt cx) tb.Tree.stmts (exit cx b tb.Tree.exit))
          cfg.Cfg.blocks;
        methods.(i).d_entry <- cx.blocks.(0))
    jms;
  { methods; mc; cy }

let run ?(fuel = 200_000_000) p name args =
  let m =
    match Array.find_opt (fun m -> String.equal m.d_name name) p.methods with
    | Some m -> m
    | None -> err "no method %s" name
  in
  let args = Array.of_list args in
  let n = Array.length args in
  if n <> m.d_argc then err "%s: arity mismatch" m.d_name;
  let mc = p.mc in
  mc.fuel <- fuel;
  mc.lp <- 0;
  p.cy.cycles <- 0.0;
  let stored = min n m.d_frame in
  let bp = enter mc m stored in
  Array.blit args 0 mc.locals bp stored;
  let rvalue = run_frame mc m bp in
  { rvalue; rcycles = p.cy.cycles; rinsns = fuel - mc.fuel }

let run_method ?cost ?fuel inst name args = run ?fuel (load ?cost inst) name args
