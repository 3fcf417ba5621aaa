(* Bytecode compiler, verifier and interpreter tests. *)
module Ast = S2fa_scala.Ast
module Insn = S2fa_jvm.Insn
module Compile = S2fa_jvm.Compile
module Verify = S2fa_jvm.Verify
module Interp = S2fa_jvm.Interp
module W = S2fa_workloads.Workloads

let compile_one src = List.hd (Compile.compile_source src)

let run_int cls name args =
  let inst = { Interp.icls = cls; ifields = [] } in
  match (Interp.run_method inst name args).Interp.rvalue with
  | Interp.VInt n -> n
  | v -> Alcotest.failf "expected Int, got %a" Interp.pp_value v

let run_double cls name args =
  let inst = { Interp.icls = cls; ifields = [] } in
  match (Interp.run_method inst name args).Interp.rvalue with
  | Interp.VDouble f -> f
  | v -> Alcotest.failf "expected Double, got %a" Interp.pp_value v

let test_arith () =
  let cls =
    compile_one
      {|
class C() {
  def f(a: Int, b: Int): Int = a * b + a / b - a % b
}
|}
  in
  Verify.verify_class cls;
  Alcotest.(check int) "17*5+17/5-17%5" ((17 * 5) + (17 / 5) - (17 mod 5))
    (run_int cls "f" [ Interp.VInt 17; Interp.VInt 5 ])

let test_if_expression () =
  let cls =
    compile_one
      {|
class C() {
  def f(a: Int, b: Int): Int = if (a > b) a else b
}
|}
  in
  Verify.verify_class cls;
  Alcotest.(check int) "max" 9 (run_int cls "f" [ Interp.VInt 4; Interp.VInt 9 ]);
  Alcotest.(check int) "max'" 7 (run_int cls "f" [ Interp.VInt 7; Interp.VInt 2 ])

let test_nested_if_expression () =
  let cls =
    compile_one
      {|
class C() {
  def sign(x: Int): Int = if (x > 0) 1 else if (x < 0) 0 - 1 else 0
}
|}
  in
  Verify.verify_class cls;
  Alcotest.(check int) "pos" 1 (run_int cls "sign" [ Interp.VInt 5 ]);
  Alcotest.(check int) "neg" (-1) (run_int cls "sign" [ Interp.VInt (-5) ]);
  Alcotest.(check int) "zero" 0 (run_int cls "sign" [ Interp.VInt 0 ])

let test_short_circuit () =
  (* Short-circuit must not evaluate the second operand: division by
     zero on the right of && would raise otherwise. *)
  let cls =
    compile_one
      {|
class C() {
  def f(a: Int, b: Int): Int = {
    var r = 0
    if (b != 0 && a / b > 1) { r = 1 }
    r
  }
}
|}
  in
  Verify.verify_class cls;
  Alcotest.(check int) "b=0 short-circuits" 0
    (run_int cls "f" [ Interp.VInt 10; Interp.VInt 0 ]);
  Alcotest.(check int) "b=3" 1
    (run_int cls "f" [ Interp.VInt 10; Interp.VInt 3 ])

let test_while_loop () =
  let cls =
    compile_one
      {|
class C() {
  def collatz(n0: Int): Int = {
    var n = n0
    var steps = 0
    while (n != 1) {
      if (n % 2 == 0) { n = n / 2 } else { n = 3 * n + 1 }
      steps = steps + 1
    }
    steps
  }
}
|}
  in
  Verify.verify_class cls;
  Alcotest.(check int) "collatz 6" 8 (run_int cls "collatz" [ Interp.VInt 6 ])

let test_for_loop_sum () =
  let cls =
    compile_one
      {|
class C() {
  def f(n: Int): Int = {
    var s = 0
    for (i <- 0 until n) { s = s + i }
    s
  }
  def g(n: Int): Int = {
    var s = 0
    for (i <- 1 to n) { s = s + i }
    s
  }
}
|}
  in
  Verify.verify_class cls;
  Alcotest.(check int) "until" 45 (run_int cls "f" [ Interp.VInt 10 ]);
  Alcotest.(check int) "to" 55 (run_int cls "g" [ Interp.VInt 10 ])

let test_arrays () =
  let cls =
    compile_one
      {|
class C() {
  def f(x: Int): Int = {
    val a = new Array[Int](8)
    for (i <- 0 until 8) { a(i) = i * x }
    var s = 0
    for (i <- 0 until a.length) { s = s + a(i) }
    s
  }
}
|}
  in
  Verify.verify_class cls;
  Alcotest.(check int) "sum" (28 * 3) (run_int cls "f" [ Interp.VInt 3 ])

let test_array_zero_initialized () =
  let cls =
    compile_one
      {|
class C() {
  def f(x: Int): Int = {
    val a = new Array[Int](4)
    a(0) + a(1) + a(2) + a(3)
  }
}
|}
  in
  Alcotest.(check int) "zeros" 0 (run_int cls "f" [ Interp.VInt 1 ])

let test_method_call () =
  let cls =
    compile_one
      {|
class C() {
  def sq(x: Int): Int = x * x
  def f(a: Int): Int = sq(a) + sq(a + 1)
}
|}
  in
  Verify.verify_class cls;
  Alcotest.(check int) "composition" 25 (run_int cls "f" [ Interp.VInt 3 ])

let test_math_calls () =
  let cls =
    compile_one
      {|
class C() {
  def f(x: Double): Double = math.sqrt(x) + math.pow(2.0, 3.0)
}
|}
  in
  Alcotest.(check (float 1e-9)) "sqrt+pow" 11.0
    (run_double cls "f" [ Interp.VDouble 9.0 ])

let test_tuples () =
  let cls =
    compile_one
      {|
class C() {
  def f(p: (Int, Int)): Int = {
    val q = (p._2, p._1)
    q._1 * 10 + q._2
  }
}
|}
  in
  Alcotest.(check int) "swap" 73
    (run_int cls "f" [ Interp.VTuple [| Interp.VInt 3; Interp.VInt 7 |] ])

let test_fields () =
  let cls =
    compile_one
      {|
class C(base: Int) {
  def f(x: Int): Int = x + base
}
|}
  in
  let inst = { Interp.icls = cls; ifields = [ ("base", Interp.VInt 100) ] } in
  match (Interp.run_method inst "f" [ Interp.VInt 5 ]).Interp.rvalue with
  | Interp.VInt 105 -> ()
  | v -> Alcotest.failf "expected 105, got %a" Interp.pp_value v

let test_conversions () =
  let cls =
    compile_one
      {|
class C() {
  def f(x: Double): Int = x.toInt
  def g(c: Char): Int = c.toInt
  def h(n: Int): Char = n.toChar
}
|}
  in
  Alcotest.(check int) "toInt truncates" 3
    (run_int cls "f" [ Interp.VDouble 3.9 ]);
  Alcotest.(check int) "char code" 65 (run_int cls "g" [ Interp.VChar 'A' ]);
  let inst = { Interp.icls = cls; ifields = [] } in
  (match (Interp.run_method inst "h" [ Interp.VInt 66 ]).Interp.rvalue with
  | Interp.VChar 'B' -> ()
  | v -> Alcotest.failf "expected 'B', got %a" Interp.pp_value v)

let test_fuel_exhaustion () =
  let cls =
    compile_one
      {|
class C() {
  def f(x: Int): Int = {
    var i = 0
    while (x < 100) { i = i + 1 }
    i
  }
}
|}
  in
  let inst = { Interp.icls = cls; ifields = [] } in
  Alcotest.check_raises "fuel"
    (Interp.Runtime_error "fuel exhausted (infinite loop?)")
    (fun () -> ignore (Interp.run_method ~fuel:1_000 inst "f" [ Interp.VInt 1 ]))

let test_division_by_zero () =
  let cls = compile_one {|
class C() {
  def f(a: Int): Int = a / 0
}
|} in
  let inst = { Interp.icls = cls; ifields = [] } in
  Alcotest.check_raises "div0" (Interp.Runtime_error "division by zero")
    (fun () -> ignore (Interp.run_method inst "f" [ Interp.VInt 1 ]))

let test_out_of_bounds () =
  let cls =
    compile_one
      {|
class C() {
  def f(i: Int): Int = {
    val a = new Array[Int](4)
    a(i)
  }
}
|}
  in
  let inst = { Interp.icls = cls; ifields = [] } in
  try
    ignore (Interp.run_method inst "f" [ Interp.VInt 9 ]);
    Alcotest.fail "expected bounds error"
  with Interp.Runtime_error _ -> ()

let test_cost_accounting () =
  let cls =
    compile_one
      {|
class C() {
  def f(n: Int): Int = {
    var s = 0
    for (i <- 0 until n) { s = s + i * i }
    s
  }
}
|}
  in
  let inst = { Interp.icls = cls; ifields = [] } in
  let r10 = Interp.run_method inst "f" [ Interp.VInt 10 ] in
  let r100 = Interp.run_method inst "f" [ Interp.VInt 100 ] in
  Alcotest.(check bool) "cycles grow with work" true
    (r100.Interp.rcycles > r10.Interp.rcycles *. 5.0);
  Alcotest.(check bool) "insns positive" true (r10.Interp.rinsns > 0)

(* The fuel a run needs is exactly its instruction count plus one: one
   instruction less raises, on every workload. *)
let test_fuel_boundary () =
  List.iter
    (fun (w : W.t) ->
      let c = W.compile w in
      let inst =
        { Interp.icls = c.S2fa_core.S2fa.c_class;
          ifields = w.W.w_fields (S2fa_util.Rng.create 1) }
      in
      let p = (w.W.w_gen (S2fa_util.Rng.create 2) 1).(0) in
      let r = Interp.run_method inst "call" [ p ] in
      let r' = Interp.run_method ~fuel:(r.Interp.rinsns + 1) inst "call" [ p ] in
      Alcotest.(check bool)
        (w.W.w_name ^ ": same value at the boundary")
        true
        (Interp.equal_value r.Interp.rvalue r'.Interp.rvalue);
      Alcotest.check_raises (w.W.w_name ^ ": one instruction short")
        (Interp.Runtime_error "fuel exhausted (infinite loop?)") (fun () ->
          ignore (Interp.run_method ~fuel:r.Interp.rinsns inst "call" [ p ])))
    W.all

(* ---------- verifier on all workloads ---------- *)

let test_verify_all_workloads () =
  List.iter
    (fun (w : W.t) ->
      let classes = Compile.compile_source w.W.w_source in
      List.iter Verify.verify_class classes)
    W.all

(* Verifier must reject hand-built bad code. *)
let bad_method code =
  { Insn.jname = "bad";
    jargs = [];
    jret = Ast.TInt;
    jslots = 1;
    jcode = code;
    jslot_names = [| "x" |] }

let bad_class m =
  { Insn.jcname = "Bad";
    jfields = [];
    jconsts = [];
    jaccel = None;
    jmethods = [ m ] }

let expect_verify_error code =
  let m = bad_method code in
  try
    Verify.verify_method (bad_class m) m;
    Alcotest.fail "expected a verification error"
  with Verify.Verify_error _ -> ()

let test_verify_underflow () = expect_verify_error [| Insn.Pop; Insn.RetVoid |]

let test_verify_ret_depth () =
  expect_verify_error [| Insn.Ldc (Ast.LInt 1); Insn.Ldc (Ast.LInt 2); Insn.Ret |]

let test_verify_fallthrough () = expect_verify_error [| Insn.Ldc (Ast.LInt 1) |]

let test_verify_bad_slot () = expect_verify_error [| Insn.Load 5; Insn.Ret |]

let test_verify_bad_target () =
  expect_verify_error [| Insn.Goto 99; Insn.RetVoid |]

let test_verify_nonempty_stack_at_branch () =
  expect_verify_error
    [| Insn.Ldc (Ast.LInt 1);
       Insn.Ldc (Ast.LBool true);
       Insn.IfFalse 3;
       Insn.Ret;
       Insn.Ret |]

(* Each reachable pc is processed exactly once: a straight-line method's
   worklist count equals its instruction count. A duplicated entry-point
   seed used to make the whole method verify twice. *)
let test_verify_count_exactly_once () =
  let m = bad_method [| Insn.Ldc (Ast.LInt 1); Insn.Ret |] in
  Alcotest.(check int)
    "straight-line count" 2
    (Verify.verify_method_count (bad_class m) m);
  let cls = compile_one {|
class A() {
  def f(a: Int): Int = {
    a + 1
  }
}
|} in
  let f =
    List.find (fun (m : Insn.methd) -> m.Insn.jname = "f") cls.Insn.jmethods
  in
  Alcotest.(check int)
    "compiled straight-line count"
    (Array.length f.Insn.jcode)
    (Verify.verify_method_count cls f)

(* A long shift's count is an Int on the JVM stack (lshl takes an int
   count); the interpreter used to demand a Long and crash. *)
let test_long_shift_int_count () =
  let cls = compile_one {|
class A() {
  def f(a: Long): Long = {
    (a << 2) + (a >> 1) + (a >>> 1)
  }
}
|} in
  let inst = { Interp.icls = cls; ifields = [] } in
  let r = Interp.run_method inst "f" [ Interp.VLong 8L ] in
  Alcotest.(check bool) "8<<2 + 8>>1 + 8>>>1" true
    (r.Interp.rvalue = Interp.VLong 40L)

(* math.abs on a Long stays Long (it used to be demoted to Double,
   making [def f(...): Long = math.abs(x)] ill-typed). *)
let test_math_abs_long () =
  let cls = compile_one {|
class A() {
  def f(a: Long): Long = {
    math.abs(a) + math.min(a, 0L)
  }
}
|} in
  let inst = { Interp.icls = cls; ifields = [] } in
  let r = Interp.run_method inst "f" [ Interp.VLong (-5L) ] in
  Alcotest.(check bool) "abs(-5) + min(-5,0)" true
    (r.Interp.rvalue = Interp.VLong 0L)

(* ---------- property: generated bytecode always verifies ---------- *)

let gen_kernel_src =
  (* Random straight-line + loop kernels over ints. *)
  let open QCheck.Gen in
  let var = oneofl [ "x"; "y"; "s" ] in
  let atom = oneof [ map string_of_int (int_range 0 9); var ] in
  let expr =
    map3
      (fun a op b -> Printf.sprintf "%s %s %s" a op b)
      atom
      (oneofl [ "+"; "-"; "*" ])
      atom
  in
  let assign = map2 (fun v e -> Printf.sprintf "%s = %s" v e) var expr in
  let loop body =
    map2
      (fun n b -> Printf.sprintf "for (i <- 0 until %d) { %s }" n b)
      (int_range 1 5) body
  in
  let cond_stmt =
    map3
      (fun v e b ->
        Printf.sprintf "if (%s < %s) { %s }" v e b)
      var expr assign
  in
  let stmt = oneof [ assign; loop assign; cond_stmt ] in
  let stmts = list_size (int_range 1 6) stmt in
  map
    (fun body ->
      Printf.sprintf
        {|
class G() {
  def f(a: Int): Int = {
    var x = a
    var y = 1
    var s = 0
    %s
    x + y + s
  }
}
|}
        (String.concat "\n    " body))
    stmts

let prop_generated_code_verifies =
  QCheck.Test.make ~name:"random kernels compile and verify" ~count:200
    (QCheck.make gen_kernel_src) (fun src ->
      match Compile.compile_source src with
      | [ cls ] ->
        Verify.verify_class cls;
        (* also execute to make sure the code runs *)
        let inst = { Interp.icls = cls; ifields = [] } in
        ignore (Interp.run_method ~fuel:100_000 inst "f" [ Interp.VInt 3 ]);
        true
      | _ -> false)

let () =
  Alcotest.run "jvm"
    [ ( "interp",
        [ Alcotest.test_case "arithmetic" `Quick test_arith;
          Alcotest.test_case "if expression" `Quick test_if_expression;
          Alcotest.test_case "nested if expression" `Quick
            test_nested_if_expression;
          Alcotest.test_case "short circuit" `Quick test_short_circuit;
          Alcotest.test_case "while loop" `Quick test_while_loop;
          Alcotest.test_case "for loops" `Quick test_for_loop_sum;
          Alcotest.test_case "arrays" `Quick test_arrays;
          Alcotest.test_case "arrays zero-init" `Quick
            test_array_zero_initialized;
          Alcotest.test_case "method call" `Quick test_method_call;
          Alcotest.test_case "math calls" `Quick test_math_calls;
          Alcotest.test_case "tuples" `Quick test_tuples;
          Alcotest.test_case "fields" `Quick test_fields;
          Alcotest.test_case "conversions" `Quick test_conversions;
          Alcotest.test_case "fuel" `Quick test_fuel_exhaustion;
          Alcotest.test_case "fuel boundary on every workload" `Quick
            test_fuel_boundary;
          Alcotest.test_case "division by zero" `Quick test_division_by_zero;
          Alcotest.test_case "bounds" `Quick test_out_of_bounds;
          Alcotest.test_case "cost accounting" `Quick test_cost_accounting;
          Alcotest.test_case "long shift by int count" `Quick
            test_long_shift_int_count;
          Alcotest.test_case "math.abs on Long" `Quick test_math_abs_long ] );
      ( "verify",
        [ Alcotest.test_case "all workloads verify" `Quick
            test_verify_all_workloads;
          Alcotest.test_case "underflow" `Quick test_verify_underflow;
          Alcotest.test_case "ret depth" `Quick test_verify_ret_depth;
          Alcotest.test_case "fallthrough" `Quick test_verify_fallthrough;
          Alcotest.test_case "bad slot" `Quick test_verify_bad_slot;
          Alcotest.test_case "bad target" `Quick test_verify_bad_target;
          Alcotest.test_case "branch with stack" `Quick
            test_verify_nonempty_stack_at_branch;
          Alcotest.test_case "worklist visits each pc once" `Quick
            test_verify_count_exactly_once ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_generated_code_verifies ]
      ) ]
