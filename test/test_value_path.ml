(* The value path against its committed golden, [golden/value_path.md5]
   (see golden.ml):

     - jvm/<kernel>: 32 seeded payloads of each workload through
       [Interp.run_method "call"]; the digests cover the printed values,
       the bits of every cycle count and every instruction count;
     - c/<kernel>/{flat,structured}: a batch of 16 through the C kernel,
       serialized as Blaze does, for the flat kernel and the kernel with
       [Seed.structured_seed]'s design applied; the digest covers every
       output buffer and the return value;
     - err/...: the exact messages of the interpreters' runtime errors;
     - jvm-frac/<kernel>: the jvm/ payloads under a cost model whose
       costs are not integers, so the cycle sums pin the order in which
       instructions are charged;
     - jvm-hand/...: hand-built bytecode the compiler never emits (a
       dup, a store under a live operand, void and popped invokes, junk
       after a return, a reached underflow, fuel running out inside a
       callee's argument), run at every fuel level up to completion. *)

module Csyntax = S2fa_hlsc.Csyntax
module Cinterp = S2fa_hlsc.Cinterp
module Interp = S2fa_jvm.Interp
module Insn = S2fa_jvm.Insn
module Ast = S2fa_scala.Ast
module Compile = S2fa_jvm.Compile
module Decompile = S2fa_b2c.Decompile
module Serde = S2fa_blaze.Serde
module Seed = S2fa_dse.Seed
module S2fa = S2fa_core.S2fa
module W = S2fa_workloads.Workloads
module Rng = S2fa_util.Rng
open Csyntax

let payloads = 32
let batch = 16

let compiled = lazy (List.map (fun w -> (w, W.compile w)) W.all)

let fields (w : W.t) = w.W.w_fields (Rng.create 1)
let tasks (w : W.t) n = w.W.w_gen (Rng.create 2) n

(* Costs that are not integers: a float sum of them depends on the
   order of its terms. *)
let frac_cost =
  let d = Interp.default_cost_model in
  { Interp.c_const = 0.7;
    c_local = 1.1;
    c_array_access = 3.3;
    c_alloc_per_elem = 0.35;
    c_tuple_alloc = 23.9;
    c_tuple_get = 4.1;
    c_field = 2.9;
    c_int_add = 1.3;
    c_int_mul = 2.7;
    c_int_div = 24.1;
    c_fp_add = 3.1;
    c_fp_mul = 4.3;
    c_fp_div = 21.7;
    c_math = (fun f -> (d.Interp.c_math f *. 1.01) +. 0.1);
    c_branch = 2.2;
    c_invoke = 39.9;
    c_conv = 1.9 }

let jvm_cases ?cost prefix =
  List.map
    (fun ((w : W.t), (c : S2fa.compiled)) ->
      let inst = { Interp.icls = c.S2fa.c_class; ifields = fields w } in
      let values = Buffer.create 4096 in
      let cycles = Buffer.create 1024 and insns = Buffer.create 1024 in
      Array.iter
        (fun p ->
          let r = Interp.run_method ?cost inst "call" [ p ] in
          Buffer.add_string values
            (Format.asprintf "%a\n" Interp.pp_value r.Interp.rvalue);
          Printf.bprintf cycles "%Lx\n" (Int64.bits_of_float r.Interp.rcycles);
          Printf.bprintf insns "%d\n" r.Interp.rinsns)
        (tasks w payloads);
      ( prefix ^ w.W.w_name,
        [ ("values", Buffer.contents values);
          ("cycles", Buffer.contents cycles);
          ("insns", Buffer.contents insns) ] ))
    (Lazy.force compiled)

let test_jvm () =
  Golden.check ~golden:"value_path.md5" ~prefix:"jvm/" (jvm_cases "jvm/")

let test_jvm_frac () =
  Golden.check ~golden:"value_path.md5" ~prefix:"jvm-frac/"
    (jvm_cases ~cost:frac_cost "jvm-frac/")

(* ---------- hand-built bytecode ---------- *)

let meth name args ret slots code =
  { Insn.jname = name;
    jargs = args;
    jret = ret;
    jslots = slots;
    jcode = Array.of_list code;
    jslot_names = Array.init slots (Printf.sprintf "s%d") }

let hand_cls methods =
  { Insn.jcname = "H"; jfields = []; jconsts = []; jaccel = None;
    jmethods = methods }

let int_arg = [ ("a", Ast.TInt) ]

(* h(x) = 2x *)
let twice =
  meth "h" int_arg Ast.TInt 1
    [ Insn.Load 0; Ldc (Ast.LInt 2); Bin (Ast.TInt, Ast.Mul); Ret ]

let hand_cases =
  [ ( "dup",
      (* (a + 3) * 3 *)
      [ meth "f" int_arg Ast.TInt 2
          [ Insn.Load 0; Ldc (Ast.LInt 3); Dup; Store 1;
            Bin (Ast.TInt, Ast.Add); Load 1; Bin (Ast.TInt, Ast.Mul); Ret ] ] );
    ( "store-under-live-value",
      (* the old a, plus 1 *)
      [ meth "f" int_arg Ast.TInt 1
          [ Insn.Load 0; Ldc (Ast.LInt 1); Store 0; Load 0;
            Bin (Ast.TInt, Ast.Add); Ret ] ] );
    ( "invokes",
      (* g stores x into arr(0); the popped h(a) is discarded: 5 + 3a *)
      [ meth "g" [ ("arr", Ast.TArray Ast.TInt); ("x", Ast.TInt) ] Ast.TUnit 2
          [ Insn.Load 0; Ldc (Ast.LInt 0); Load 1; AStore; RetVoid ];
        twice;
        meth "f" int_arg Ast.TInt 2
          [ Insn.NewArr (Ast.TInt, [ 1 ]); Store 1; Ldc (Ast.LInt 5); Load 1;
            Load 0; Invoke ("g", 2); Load 0; Invoke ("h", 1); Pop; Load 1;
            Ldc (Ast.LInt 0); ALoad; Bin (Ast.TInt, Ast.Add); Load 0;
            Invoke ("h", 1); Bin (Ast.TInt, Ast.Add); Ret ] ] );
    ( "junk-after-ret",
      [ meth "f" int_arg Ast.TInt 1
          [ Insn.Load 0; Ret; Bin (Ast.TInt, Ast.Add); Pop; Ret; Goto 1000;
            Store 7 ] ] );
    ( "underflow",
      [ meth "f" int_arg Ast.TInt 1
          [ Insn.Load 0; Ldc (Ast.LInt 1); Bin (Ast.TInt, Ast.Add);
            Bin (Ast.TInt, Ast.Add); Ret ] ] );
    ( "fuel-in-callee-argument",
      (* a + h(a + 1) *)
      [ twice;
        meth "f" int_arg Ast.TInt 1
          [ Insn.Load 0; Load 0; Ldc (Ast.LInt 1); Bin (Ast.TInt, Ast.Add);
            Invoke ("h", 1); Bin (Ast.TInt, Ast.Add); Ret ] ] ) ]

let outcome ?cost ?fuel cls =
  match
    Interp.run_method ?cost ?fuel { Interp.icls = cls; ifields = [] } "f"
      [ Interp.VInt 7 ]
  with
  | r ->
    Format.asprintf "%a %Lx %d" Interp.pp_value r.Interp.rvalue
      (Int64.bits_of_float r.Interp.rcycles)
      r.Interp.rinsns
  | exception Interp.Runtime_error m -> "error: " ^ m
  | exception Invalid_argument m -> "invalid: " ^ m

(* Every case under both cost models, unbounded and at fuel 1..40 (each
   case completes within 40 instructions). *)
let test_jvm_hand () =
  let cases =
    List.map
      (fun (name, methods) ->
        let cls = hand_cls methods in
        let runs cost =
          String.concat "\n"
            (outcome ~cost cls
            :: List.init 40 (fun i -> outcome ~cost ~fuel:(i + 1) cls))
        in
        ( "jvm-hand/" ^ name,
          [ ("default", runs Interp.default_cost_model);
            ("frac", runs frac_cost) ] ))
      hand_cases
  in
  Golden.check ~golden:"value_path.md5" ~prefix:"jvm-hand/" cases

(* Floats print as their bits: the digest pins every output bit. *)
let rec pp_cv b = function
  | Cinterp.VI n -> Printf.bprintf b "i%d " n
  | Cinterp.VL n -> Printf.bprintf b "l%Ld " n
  | Cinterp.VF f -> Printf.bprintf b "f%Lx " (Int64.bits_of_float f)
  | Cinterp.VA a ->
    Buffer.add_char b '[';
    Array.iter (pp_cv b) a;
    Buffer.add_string b "] "

let run_batch (w : W.t) (c : S2fa.compiled) prog =
  let iface = c.S2fa.c_iface in
  let inputs = Serde.serialize_inputs iface c.S2fa.c_input_ty (tasks w batch) in
  let outputs = Serde.alloc_outputs iface batch in
  let args =
    (("N", Cinterp.VI batch) :: inputs)
    @ outputs
    @ Serde.field_buffers iface (fields w)
  in
  let ret = Cinterp.run_func prog iface.Decompile.if_kernel args in
  let b = Buffer.create 4096 in
  List.iter
    (fun (name, v) ->
      Printf.bprintf b "%s " name;
      pp_cv b v;
      Buffer.add_char b '\n')
    outputs;
  Option.iter (pp_cv b) ret;
  Buffer.contents b

let test_c () =
  let cases =
    List.concat_map
      (fun ((w : W.t), (c : S2fa.compiled)) ->
        let structured =
          S2fa.apply_design c (Seed.structured_seed c.S2fa.c_dspace)
        in
        [ ( Printf.sprintf "c/%s/flat" w.W.w_name,
            [ ("outputs", run_batch w c c.S2fa.c_flat) ] );
          ( Printf.sprintf "c/%s/structured" w.W.w_name,
            [ ("outputs", run_batch w c structured) ] ) ])
      (Lazy.force compiled)
  in
  Golden.check ~golden:"value_path.md5" ~prefix:"c/" cases

(* ---------- error messages ---------- *)

let jvm_error ?fuel src name args =
  let cls = List.hd (Compile.compile_source src) in
  match
    Interp.run_method ?fuel { Interp.icls = cls; ifields = [] } name args
  with
  | _ -> Alcotest.failf "%s: expected a runtime error" name
  | exception Interp.Runtime_error m -> m

let c_error ?fuel params body args =
  let f =
    { cfname = "f";
      cfparams =
        List.map (fun (n, t) -> { cpname = n; cpty = t; cpbitwidth = None })
          params;
      cfret = Some CInt;
      cfbody = body }
  in
  match Cinterp.run_func ?fuel { cfuncs = [ f ] } "f" args with
  | _ -> Alcotest.fail "expected a C error"
  | exception Cinterp.C_error m -> m

let test_errors () =
  let arr = Cinterp.VA (Array.make 3 (Cinterp.VI 0)) in
  let cases =
    [ ( "err/jvm/div0",
        jvm_error "class C() { def f(a: Int): Int = a / 0 }" "f"
          [ Interp.VInt 1 ] );
      ( "err/jvm/rem0",
        jvm_error "class C() { def f(a: Long): Long = a % 0L }" "f"
          [ Interp.VLong 1L ] );
      ( "err/jvm/bounds",
        jvm_error
          "class C() { def f(i: Int): Int = { val a = new Array[Int](4)\n\
           a(i) } }"
          "f" [ Interp.VInt 9 ] );
      ( "err/jvm/fuel",
        jvm_error ~fuel:1_000
          "class C() { def f(x: Int): Int = { var i = 0\n\
           while (x < 100) { i = i + 1 }\n\
           i } }"
          "f" [ Interp.VInt 1 ] );
      ( "err/jvm/no-method",
        jvm_error "class C() { def f(a: Int): Int = a }" "g" [ Interp.VInt 1 ]
      );
      ( "err/c/div0",
        c_error [ ("a", CInt) ]
          [ SReturn (Some (EBin (CDiv, EVar "a", EInt 0))) ]
          [ ("a", Cinterp.VI 1) ] );
      ( "err/c/rem0-long",
        c_error [ ("a", CLong) ]
          [ SReturn (Some (EBin (CRem, EVar "a", ELong 0L))) ]
          [ ("a", Cinterp.VL 1L) ] );
      ( "err/c/load-bounds",
        c_error [ ("a", CPtr CInt) ]
          [ SReturn (Some (EIndex (EVar "a", EInt 3))) ]
          [ ("a", arr) ] );
      ( "err/c/store-bounds",
        c_error [ ("a", CPtr CInt) ]
          [ SAssign (EIndex (EVar "a", EInt (-1)), EInt 7) ]
          [ ("a", arr) ] );
      ( "err/c/fuel",
        c_error ~fuel:1_000 [] [ SWhile (EInt 1, []) ] [] );
      ( "err/c/unbound",
        c_error [] [ SReturn (Some (EVar "ghost")) ] [] );
      ( "err/c/scoped-out",
        (* A block's declaration is gone once the block ends. *)
        c_error []
          [ SIf (EInt 1, [ SDecl (CInt, "t", Some (EInt 1)) ], []);
            SReturn (Some (EVar "t")) ]
          [] );
      ( "err/c/missing-arg",
        c_error [ ("a", CInt) ] [ SReturn (Some (EVar "a")) ] [] );
      (* Which of two failing operands reports: the right one. *)
      ( "err/c/operand-order",
        c_error [ ("a", CPtr CInt) ]
          [ SReturn
              (Some
                 (EBin
                    ( CAdd,
                      EIndex (EVar "a", EInt 5),
                      EBin (CDiv, EInt 1, EInt 0) ))) ]
          [ ("a", arr) ] );
      (* An assignment evaluates its value before its target. *)
      ( "err/c/assign-order",
        c_error [ ("a", CPtr CInt) ]
          [ SAssign (EVar "ghost", EIndex (EVar "a", EInt 9)) ]
          [ ("a", arr) ] ) ]
  in
  Golden.check ~golden:"value_path.md5" ~prefix:"err/"
    (List.map (fun (c, m) -> (c, [ ("message", m) ])) cases)

let () =
  Alcotest.run "value_path"
    [ ( "golden",
        [ Alcotest.test_case "JVM values, cycles, instructions" `Quick test_jvm;
          Alcotest.test_case "JVM under fractional costs" `Quick test_jvm_frac;
          Alcotest.test_case "JVM hand-built bytecode" `Quick test_jvm_hand;
          Alcotest.test_case "C output buffers" `Quick test_c;
          Alcotest.test_case "error messages" `Quick test_errors ] ) ]
