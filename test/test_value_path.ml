(* The value path against its committed golden, [golden/value_path.md5]
   (see golden.ml):

     - jvm/<kernel>: 32 seeded payloads of each workload through
       [Interp.run_method "call"]; the digests cover the printed values,
       the bits of every cycle count and every instruction count;
     - c/<kernel>/{flat,structured}: a batch of 16 through the C kernel,
       serialized as Blaze does, for the flat kernel and the kernel with
       [Seed.structured_seed]'s design applied; the digest covers every
       output buffer and the return value;
     - err/...: the exact messages of the interpreters' runtime errors. *)

module Csyntax = S2fa_hlsc.Csyntax
module Cinterp = S2fa_hlsc.Cinterp
module Interp = S2fa_jvm.Interp
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

let test_jvm () =
  let cases =
    List.map
      (fun ((w : W.t), (c : S2fa.compiled)) ->
        let inst = { Interp.icls = c.S2fa.c_class; ifields = fields w } in
        let values = Buffer.create 4096 in
        let cycles = Buffer.create 1024 and insns = Buffer.create 1024 in
        Array.iter
          (fun p ->
            let r = Interp.run_method inst "call" [ p ] in
            Buffer.add_string values
              (Format.asprintf "%a\n" Interp.pp_value r.Interp.rvalue);
            Printf.bprintf cycles "%Lx\n" (Int64.bits_of_float r.Interp.rcycles);
            Printf.bprintf insns "%d\n" r.Interp.rinsns)
          (tasks w payloads);
        ( "jvm/" ^ w.W.w_name,
          [ ("values", Buffer.contents values);
            ("cycles", Buffer.contents cycles);
            ("insns", Buffer.contents insns) ] ))
      (Lazy.force compiled)
  in
  Golden.check ~golden:"value_path.md5" ~prefix:"jvm/" cases

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
          Alcotest.test_case "C output buffers" `Quick test_c;
          Alcotest.test_case "error messages" `Quick test_errors ] ) ]
