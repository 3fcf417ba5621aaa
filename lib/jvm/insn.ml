module Ast = S2fa_scala.Ast
module Tast = S2fa_scala.Tast
module Parser = S2fa_scala.Parser
module Typecheck = S2fa_scala.Typecheck

type ty = Ast.ty

type cond = Clt | Cle | Cgt | Cge | Ceq | Cne

type insn =
  | Ldc of Ast.lit
  | Load of int
  | Store of int
  | ALoad
  | AStore
  | ArrayLength
  | NewArr of ty * int list
  | NewTup of int
  | TupGet of int
  | GetField of string
  | Bin of ty * Ast.binop
  | Un of ty * Ast.unop
  | Conv of ty * ty
  | MathOp of string
  | Invoke of string * int
  | CmpJmp of ty * cond * int
  | IfFalse of int
  | Goto of int
  | Ret
  | RetVoid
  | Dup
  | Pop

type methd = {
  jname : string;
  jargs : (string * ty) list;
  jret : ty;
  jslots : int;
  jcode : insn array;
  jslot_names : string array;
}

type cls = {
  jcname : string;
  jfields : (string * ty) list;
  jconsts : (string * Ast.lit) list;
  jaccel : (ty * ty) option;
  jmethods : methd list;
}

let math_arity = function
  | "pow" | "min" | "max" -> 2
  | _ -> 1

let find_jmethod cls name =
  List.find_opt (fun m -> String.equal m.jname name) cls.jmethods

let stack_effect cls = function
  | Ldc _ | Load _ | NewArr _ | GetField _ -> (0, 1)
  | Store _ | IfFalse _ | Ret | Pop -> (1, 0)
  | ALoad | Bin _ -> (2, 1)
  | AStore -> (3, 0)
  | ArrayLength | TupGet _ | Un _ | Conv _ -> (1, 1)
  | NewTup n -> (n, 1)
  | MathOp f -> (math_arity f, 1)
  | Invoke (name, n) -> (
    match find_jmethod cls name with
    | Some m when not (Ast.equal_ty m.jret Ast.TUnit) -> (n, 1)
    | Some _ | None -> (n, 0))
  | CmpJmp _ -> (2, 0)
  | Goto _ | RetVoid -> (0, 0)
  | Dup -> (1, 2)

let string_of_lit = function
  | Ast.LInt n -> string_of_int n
  | Ast.LLong n -> Int64.to_string n ^ "L"
  | Ast.LFloat f -> string_of_float f ^ "f"
  | Ast.LDouble f -> string_of_float f
  | Ast.LBool b -> string_of_bool b
  | Ast.LChar c -> Printf.sprintf "%C" c
  | Ast.LString s -> Printf.sprintf "%S" s
  | Ast.LUnit -> "()"

let string_of_cond = function
  | Clt -> "<" | Cle -> "<=" | Cgt -> ">" | Cge -> ">=" | Ceq -> "==" | Cne -> "!="

let pp_insn ppf = function
  | Ldc l -> Format.fprintf ppf "ldc %s" (string_of_lit l)
  | Load n -> Format.fprintf ppf "load %d" n
  | Store n -> Format.fprintf ppf "store %d" n
  | ALoad -> Format.pp_print_string ppf "aload"
  | AStore -> Format.pp_print_string ppf "astore"
  | ArrayLength -> Format.pp_print_string ppf "arraylength"
  | NewArr (t, dims) ->
    Format.fprintf ppf "newarr %s [%s]" (Ast.string_of_ty t)
      (String.concat ";" (List.map string_of_int dims))
  | NewTup n -> Format.fprintf ppf "newtup %d" n
  | TupGet n -> Format.fprintf ppf "tupget %d" n
  | GetField f -> Format.fprintf ppf "getfield %s" f
  | Bin (t, op) ->
    Format.fprintf ppf "bin %s %s" (Ast.string_of_ty t) (Ast.string_of_binop op)
  | Un (t, op) ->
    Format.fprintf ppf "un %s %s" (Ast.string_of_ty t) (Ast.string_of_unop op)
  | Conv (a, b) ->
    Format.fprintf ppf "conv %s->%s" (Ast.string_of_ty a) (Ast.string_of_ty b)
  | MathOp f -> Format.fprintf ppf "math.%s" f
  | Invoke (m, n) -> Format.fprintf ppf "invoke %s/%d" m n
  | CmpJmp (t, c, l) ->
    Format.fprintf ppf "cmpjmp %s %s -> %d" (Ast.string_of_ty t)
      (string_of_cond c) l
  | IfFalse l -> Format.fprintf ppf "iffalse -> %d" l
  | Goto l -> Format.fprintf ppf "goto -> %d" l
  | Ret -> Format.pp_print_string ppf "ret"
  | RetVoid -> Format.pp_print_string ppf "retvoid"
  | Dup -> Format.pp_print_string ppf "dup"
  | Pop -> Format.pp_print_string ppf "pop"

let pp_method ppf m =
  Format.fprintf ppf "method %s(%s): %s  slots=%d@\n" m.jname
    (String.concat ", "
       (List.map
          (fun (n, t) -> Printf.sprintf "%s: %s" n (Ast.string_of_ty t))
          m.jargs))
    (Ast.string_of_ty m.jret) m.jslots;
  Array.iteri
    (fun i ins -> Format.fprintf ppf "  %3d: %a@\n" i pp_insn ins)
    m.jcode
