type cvalue =
  | VI of int
  | VL of int64
  | VF of float
  | VA of cvalue array

exception C_error of string

exception Return_value of cvalue option

let err fmt = Printf.ksprintf (fun m -> raise (C_error m)) fmt

let rec zero_of = function
  | Csyntax.CBool | Csyntax.CChar | Csyntax.CInt -> VI 0
  | Csyntax.CLong -> VL 0L
  | Csyntax.CFloat | Csyntax.CDouble -> VF 0.0
  | Csyntax.CArr (t, n) -> VA (Array.init n (fun _ -> zero_of t))
  | Csyntax.CPtr t -> zero_of t

let alloc t = zero_of t

let rec equal_cvalue a b =
  match (a, b) with
  | VI x, VI y -> x = y
  | VL x, VL y -> Int64.equal x y
  | VF x, VF y -> x = y
  | VA x, VA y ->
    Array.length x = Array.length y
    &&
    let ok = ref true in
    Array.iteri (fun i v -> if not (equal_cvalue v y.(i)) then ok := false) x;
    !ok
  | (VI _ | VL _ | VF _ | VA _), _ -> false

(* ---------- numeric helpers ---------- *)

let truthy = function
  | VI n -> n <> 0
  | VL n -> not (Int64.equal n 0L)
  | VF f -> f <> 0.0
  | VA _ -> err "array in boolean context"

let as_int = function
  | VI n -> n
  | VL n -> Int64.to_int n
  | VF f -> int_of_float f
  | VA _ -> err "array in integer context"

let as_float = function
  | VI n -> float_of_int n
  | VL n -> Int64.to_float n
  | VF f -> f
  | VA _ -> err "array in float context"

let arith op a b =
  match (a, b) with
  | VF _, _ | _, VF _ ->
    let x = as_float a and y = as_float b in
    VF
      (match op with
      | Csyntax.CAdd -> x +. y
      | Csyntax.CSub -> x -. y
      | Csyntax.CMul -> x *. y
      | Csyntax.CDiv -> x /. y
      | Csyntax.CRem -> Float.rem x y
      | _ -> err "invalid float arithmetic")
  | VL _, _ | _, VL _ ->
    let x = (match a with VL v -> v | v -> Int64.of_int (as_int v)) in
    let y = (match b with VL v -> v | v -> Int64.of_int (as_int v)) in
    VL
      (match op with
      | Csyntax.CAdd -> Int64.add x y
      | Csyntax.CSub -> Int64.sub x y
      | Csyntax.CMul -> Int64.mul x y
      | Csyntax.CDiv ->
        if Int64.equal y 0L then err "division by zero" else Int64.div x y
      | Csyntax.CRem ->
        if Int64.equal y 0L then err "modulo by zero" else Int64.rem x y
      | Csyntax.CBAnd -> Int64.logand x y
      | Csyntax.CBOr -> Int64.logor x y
      | Csyntax.CBXor -> Int64.logxor x y
      | Csyntax.CShl -> Int64.shift_left x (Int64.to_int y)
      | Csyntax.CShr -> Int64.shift_right x (Int64.to_int y)
      | _ -> err "invalid long arithmetic")
  | VI x, VI y ->
    VI
      (match op with
      | Csyntax.CAdd -> x + y
      | Csyntax.CSub -> x - y
      | Csyntax.CMul -> x * y
      | Csyntax.CDiv -> if y = 0 then err "division by zero" else x / y
      | Csyntax.CRem -> if y = 0 then err "modulo by zero" else x mod y
      | Csyntax.CBAnd -> x land y
      | Csyntax.CBOr -> x lor y
      | Csyntax.CBXor -> x lxor y
      | Csyntax.CShl -> x lsl y
      | Csyntax.CShr -> x asr y
      | _ -> err "invalid int arithmetic")
  | VA _, _ | _, VA _ -> err "array in arithmetic"

let compare_cv op a b =
  let c =
    match (a, b) with
    | VF _, _ | _, VF _ -> compare (as_float a) (as_float b)
    | VL x, VL y -> Int64.compare x y
    | VL x, v -> Int64.compare x (Int64.of_int (as_int v))
    | v, VL y -> Int64.compare (Int64.of_int (as_int v)) y
    | VI x, VI y -> compare x y
    | VA _, _ | _, VA _ -> err "array comparison"
  in
  let b =
    match op with
    | Csyntax.CLt -> c < 0
    | Csyntax.CLe -> c <= 0
    | Csyntax.CGt -> c > 0
    | Csyntax.CGe -> c >= 0
    | Csyntax.CEq -> c = 0
    | Csyntax.CNe -> c <> 0
    | _ -> err "not a comparison"
  in
  VI (if b then 1 else 0)

let cast t v =
  match t with
  | Csyntax.CBool -> VI (if truthy v then 1 else 0)
  | Csyntax.CChar -> VI (as_int v land 0xff)
  | Csyntax.CInt -> VI (as_int v)
  | Csyntax.CLong -> (
    match v with
    | VL n -> VL n
    | VF f -> VL (Int64.of_float f)
    | VI n -> VL (Int64.of_int n)
    | VA _ -> err "cast of array")
  | Csyntax.CFloat | Csyntax.CDouble -> VF (as_float v)
  | Csyntax.CArr _ | Csyntax.CPtr _ -> err "cast to aggregate type"

let call_math f args =
  match (f, List.map as_float args) with
  | "sqrt", [ x ] -> VF (sqrt x)
  | "exp", [ x ] -> VF (exp x)
  | "log", [ x ] -> VF (log x)
  | "floor", [ x ] -> VF (floor x)
  | "ceil", [ x ] -> VF (ceil x)
  | "fabs", [ x ] -> VF (Float.abs x)
  | "pow", [ x; y ] -> VF (Float.pow x y)
  | "fmin", [ x; y ] -> VF (min x y)
  | "fmax", [ x; y ] -> VF (max x y)
  | "labs", [ x ] -> (
    match args with
    | [ VL n ] -> VL (Int64.abs n)
    | _ -> VF (Float.abs x))
  | "abs", [ x ] -> (
    match args with [ VI n ] -> VI (abs n) | _ -> VF (Float.abs x))
  | _ -> err "unknown C function %s/%d" f (List.length args)

(* ---------- compilation ---------- *)

(* Every variable is resolved to a slot of its function's frame by C99
   static scoping, and every statement and expression becomes a closure
   over the frame. The fuel counter is shared by all frames of a run. *)
type fuel = { mutable left : int }

type frame = { slots : cvalue array; fuel : fuel }

type cfun = {
  f_name : string;
  f_params : string array;
  f_first : int array;
      (* per parameter, the first parameter of the same name: a call
         binds a repeated name to its first argument *)
  mutable f_size : int;  (* frame slots *)
  mutable f_body : frame -> unit;
}

type program = cfun array

(* The frame slot of each name in scope. *)
module Scope = Map.Make (String)

let tick fr =
  let f = fr.fuel in
  f.left <- f.left - 1;
  if f.left <= 0 then err "fuel exhausted"

let int_cmp op (x : int) (y : int) =
  match op with
  | Csyntax.CLt -> x < y
  | Csyntax.CLe -> x <= y
  | Csyntax.CGt -> x > y
  | Csyntax.CGe -> x >= y
  | Csyntax.CEq -> x = y
  | _ -> x <> y

let is_cmp = function
  | Csyntax.CLt | Csyntax.CLe | Csyntax.CGt | Csyntax.CGe | Csyntax.CEq
  | Csyntax.CNe ->
    true
  | _ -> false

let index data i =
  if i < 0 || i >= Array.length data then
    err "index %d out of bounds (len %d)" i (Array.length data)

(* Enter [f] with its parameters already in the first slots of [slots]. *)
let enter f slots fuel =
  match f.f_body { slots; fuel } with
  | () -> None
  | exception Return_value v -> v

let compile (prog : Csyntax.cprog) : program =
  let funcs =
    Array.of_list
      (List.map
         (fun (f : Csyntax.cfunc) ->
           let params =
             Array.of_list
               (List.map (fun (p : Csyntax.cparam) -> p.Csyntax.cpname)
                  f.Csyntax.cfparams)
           in
           let first i =
             let rec go j =
               if String.equal params.(j) params.(i) then j else go (j + 1)
             in
             go 0
           in
           { f_name = f.Csyntax.cfname;
             f_params = params;
             f_first = Array.init (Array.length params) first;
             f_size = 0;
             f_body = ignore })
         prog.Csyntax.cfuncs)
  in
  let find name = Array.find_opt (fun f -> String.equal f.f_name name) funcs in
  let compile_func (f : Csyntax.cfunc) cf =
    let next = ref (Array.length cf.f_params) in
    let fresh () =
      let s = !next in
      incr next;
      s
    in
    let zero = VI 0 in
    let rec int_of sc e =
      let e = expr sc e in
      fun fr -> as_int (e fr)
    (* [e] in a boolean context, without boxing the truth. *)
    and cond sc (e : Csyntax.cexpr) : frame -> bool =
      match e with
      | Csyntax.EBin (Csyntax.CAnd, a, b) ->
        let a = cond sc a and b = cond sc b in
        fun fr -> a fr && b fr
      | Csyntax.EBin (Csyntax.COr, a, b) ->
        let a = cond sc a and b = cond sc b in
        fun fr -> a fr || b fr
      | Csyntax.EUn (Csyntax.CNot, a) ->
        let a = cond sc a in
        fun fr -> not (a fr)
      | Csyntax.EBin (op, a, b) when is_cmp op ->
        let a = expr sc a and b = expr sc b in
        fun fr ->
          let y = b fr in
          (match (a fr, y) with
          | VI x, VI y -> int_cmp op x y
          | x, y -> truthy (compare_cv op x y))
      | _ ->
        let e = expr sc e in
        fun fr -> truthy (e fr)
    (* Binary operands evaluate right to left: when both fail, the
       right one's error is the one reported. *)
    and expr sc (e : Csyntax.cexpr) : frame -> cvalue =
      match e with
      | Csyntax.EInt n ->
        let v = VI n in
        fun _ -> v
      | Csyntax.ELong n ->
        let v = VL n in
        fun _ -> v
      | Csyntax.EFloat x | Csyntax.EDouble x ->
        let v = VF x in
        fun _ -> v
      | Csyntax.EChar c ->
        let v = VI (Char.code c) in
        fun _ -> v
      | Csyntax.EBool b ->
        let v = VI (if b then 1 else 0) in
        fun _ -> v
      | Csyntax.EVar v -> (
        match Scope.find_opt v sc with
        | Some s -> fun fr -> fr.slots.(s)
        | None -> fun _ -> err "unbound variable %s" v)
      | Csyntax.EBin ((Csyntax.CAnd | Csyntax.COr), _, _)
      | Csyntax.EUn (Csyntax.CNot, _) ->
        let c = cond sc e in
        fun fr -> VI (if c fr then 1 else 0)
      | Csyntax.EBin (op, a, b) when is_cmp op ->
        let a = expr sc a and b = expr sc b in
        fun fr ->
          let y = b fr in
          compare_cv op (a fr) y
      | Csyntax.EBin (op, a, b) ->
        let a = expr sc a and b = expr sc b in
        fun fr ->
          let y = b fr in
          arith op (a fr) y
      | Csyntax.EUn (Csyntax.CNeg, a) -> (
        let a = expr sc a in
        fun fr ->
          match a fr with
          | VI n -> VI (-n)
          | VL n -> VL (Int64.neg n)
          | VF f -> VF (-.f)
          | VA _ -> err "negation of array")
      | Csyntax.EUn (Csyntax.CBNot, a) -> (
        let a = expr sc a in
        fun fr ->
          match a fr with
          | VI n -> VI (lnot n)
          | VL n -> VL (Int64.lognot n)
          | _ -> err "~ on non-integer")
      | Csyntax.EIndex (arr, idx) -> (
        let arr = expr sc arr and idx = int_of sc idx in
        fun fr ->
          match arr fr with
          | VA data ->
            let i = idx fr in
            index data i;
            data.(i)
          | _ -> err "indexing a non-array")
      | Csyntax.ECall (name, args) -> (
        let args = List.map (expr sc) args in
        match find name with
        | None -> fun fr -> call_math name (List.map (fun a -> a fr) args)
        | Some callee when List.length args <> Array.length callee.f_params ->
          fun _ -> invalid_arg "List.map2"
        | Some callee ->
          let args = Array.of_list args in
          fun fr ->
            (* Arguments evaluate left to right; a repeated parameter
               name binds its first argument. *)
            let slots = Array.make callee.f_size zero in
            for i = 0 to Array.length args - 1 do
              slots.(i) <- args.(i) fr
            done;
            for i = 0 to Array.length args - 1 do
              slots.(i) <- slots.(callee.f_first.(i))
            done;
            (match enter callee slots fr.fuel with Some v -> v | None -> zero))
      | Csyntax.ECond (c, a, b) ->
        let c = cond sc c and a = expr sc a and b = expr sc b in
        fun fr -> if c fr then a fr else b fr
      | Csyntax.ECast (t, a) ->
        let a = expr sc a in
        fun fr -> cast t (a fr)
    in
    let rec block sc stmts =
      let rec go sc acc = function
        | [] -> List.rev acc
        | Csyntax.SDecl (t, name, init) :: rest ->
          let slot = fresh () in
          let s = decl sc slot t init in
          go (Scope.add name slot sc) (s :: acc) rest
        | s :: rest -> go sc (stmt sc s :: acc) rest
      in
      match Array.of_list (go sc [] stmts) with
      | [||] -> fun _ -> ()
      | [| s |] -> s
      | ss ->
        fun fr ->
          for i = 0 to Array.length ss - 1 do
            ss.(i) fr
          done
    (* [sc] does not bind the declared name yet: its initializer sees
       the outer binding. *)
    and decl sc slot t init =
      match init with
      | Some e ->
        let e = expr sc e in
        fun fr ->
          tick fr;
          fr.slots.(slot) <- e fr
      | None ->
        fun fr ->
          tick fr;
          fr.slots.(slot) <- alloc t
    and stmt sc (s : Csyntax.cstmt) : frame -> unit =
      match s with
      | Csyntax.SDecl (t, _, init) -> decl sc (fresh ()) t init
      | Csyntax.SAssign (Csyntax.EVar v, e) -> (
        let e = expr sc e in
        match Scope.find_opt v sc with
        | Some slot ->
          fun fr ->
            tick fr;
            fr.slots.(slot) <- e fr
        | None ->
          fun fr ->
            tick fr;
            ignore (e fr);
            err "unbound variable %s" v)
      | Csyntax.SAssign (Csyntax.EIndex (arr, idx), e) ->
        let arr = expr sc arr and idx = int_of sc idx and e = expr sc e in
        fun fr ->
          tick fr;
          let v = e fr in
          (match arr fr with
          | VA data ->
            let i = idx fr in
            if i < 0 || i >= Array.length data then
              err "store index %d out of bounds (len %d)" i
                (Array.length data);
            data.(i) <- v
          | _ -> err "index-assign on non-array")
      | Csyntax.SAssign (_, e) ->
        let e = expr sc e in
        fun fr ->
          tick fr;
          ignore (e fr);
          err "invalid lvalue"
      | Csyntax.SIf (c, a, b) ->
        let c = cond sc c and a = block sc a and b = block sc b in
        fun fr ->
          tick fr;
          if c fr then a fr else b fr
      | Csyntax.SWhile (c, body) ->
        let c = cond sc c and body = block sc body in
        fun fr ->
          tick fr;
          while c fr do
            tick fr;
            body fr
          done
      | Csyntax.SFor l -> loop sc l
      | Csyntax.SExpr e ->
        let e = expr sc e in
        fun fr ->
          tick fr;
          ignore (e fr)
      | Csyntax.SReturn r ->
        let r = Option.map (expr sc) r in
        fun fr ->
          tick fr;
          raise (Return_value (Option.map (fun r -> r fr) r))
    (* The counter carries the loop's declared induction type, so that
       arithmetic on it promotes as in the emitted C. An [ldecl] loop
       declares its counter in the for-init, scoped to the loop (C99);
       otherwise the counter is an outer variable whose exit value stays
       observable after the loop. *)
    and loop sc (l : Csyntax.loop) =
      let lo = int_of sc l.Csyntax.llo in
      let counter =
        if l.Csyntax.ldecl then Some (fresh ())
        else Scope.find_opt l.Csyntax.lvar sc
      in
      match counter with
      | None ->
        let v = l.Csyntax.lvar in
        fun fr ->
          tick fr;
          ignore (lo fr);
          err "unbound variable %s" v
      | Some slot ->
        let inner =
          if l.Csyntax.ldecl then Scope.add l.Csyntax.lvar slot sc else sc
        in
        let hi = int_of inner l.Csyntax.lhi
        and body = block inner l.Csyntax.lbody in
        let step = l.Csyntax.lstep in
        let box =
          if l.Csyntax.lvty = Csyntax.CLong then fun n -> VL (Int64.of_int n)
          else fun n -> VI n
        in
        fun fr ->
          tick fr;
          let s = fr.slots in
          s.(slot) <- box (lo fr);
          while
            let h = hi fr in
            as_int s.(slot) < h
          do
            tick fr;
            body fr;
            s.(slot) <- box (as_int s.(slot) + step)
          done
    in
    let sc =
      Array.fold_left
        (fun (sc, i) p -> (Scope.add p i sc, i + 1))
        (Scope.empty, 0) cf.f_params
      |> fst
    in
    let body = block sc f.Csyntax.cfbody in
    cf.f_size <- max 1 !next;
    cf.f_body <- body
  in
  List.iteri (fun i f -> compile_func f funcs.(i)) prog.Csyntax.cfuncs;
  funcs

let run ?(fuel = 200_000_000) (prog : program) name args =
  let f =
    match Array.find_opt (fun f -> String.equal f.f_name name) prog with
    | Some f -> f
    | None -> err "no function %s" name
  in
  let slots = Array.make f.f_size (VI 0) in
  Array.iteri
    (fun i p ->
      match List.assoc_opt p args with
      | Some v -> slots.(i) <- v
      | None -> err "%s: missing argument %s" name p)
    f.f_params;
  enter f slots { left = fuel }

let run_func ?fuel prog name args = run ?fuel (compile prog) name args
