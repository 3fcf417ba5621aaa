(* Framework facade and workload-level tests. *)
module W = S2fa_workloads.Workloads
module S2fa = S2fa_core.S2fa
module Space = S2fa_tuner.Space
module Driver = S2fa_dse.Driver
module E = S2fa_hls.Estimate
module Rng = S2fa_util.Rng

let contains hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_compile_all_workloads () =
  List.iter
    (fun (w : W.t) ->
      let c = W.compile w in
      Alcotest.(check bool)
        (w.W.w_name ^ " identifies loops")
        true
        (List.length c.S2fa.c_dspace.S2fa_dse.Dspace.ds_loop_ids > 0))
    W.all

let test_error_reporting_stages () =
  let expect_stage stage src =
    try
      ignore (S2fa.compile src);
      Alcotest.fail "expected failure"
    with S2fa.Error m ->
      Alcotest.(check bool) (stage ^ " in message") true (contains m stage)
  in
  expect_stage "parse" "class C( {}";
  expect_stage "typecheck" {|
class C() extends Accelerator[Int, Int] {
  val id: String = "c"
  def call(in: Int): Int = zzz
}
|};
  expect_stage "compile" "class C() { def f(x: Int): Int = x }"

let test_class_selection () =
  let src = {|
class A() { def f(x: Int): Int = x }
class B() extends Accelerator[Int, Int] {
  val id: String = "b"
  def call(in: Int): Int = in + 1
}
|} in
  let c = S2fa.compile src in
  Alcotest.(check string) "picks the accelerator" "B"
    c.S2fa.c_class.S2fa.Insn.jcname;
  (* Selecting a class that is not an Accelerator fails at the
     bytecode-to-C stage with a clear message. *)
  try
    ignore (S2fa.compile ~class_name:"A" src);
    Alcotest.fail "non-accelerator selection should fail"
  with S2fa.Error m ->
    Alcotest.(check bool) "mentions Accelerator" true
      (contains m "Accelerator")

let test_emit_c_with_design () =
  let w = Option.get (W.find "KMeans") in
  let c = W.compile w in
  let plain = S2fa.emit_c c in
  Alcotest.(check bool) "no pragma without design" false
    (contains plain "#pragma ACCEL parallel");
  let design = W.manual_design w c in
  let s = S2fa.emit_c ~design c in
  Alcotest.(check bool) "pragmas with design" true (contains s "#pragma ACCEL")

let test_objective_matches_estimate () =
  let w = Option.get (W.find "KMeans") in
  let c = W.compile w in
  let cfg = S2fa_dse.Seed.area_seed c.S2fa.c_dspace in
  let o = S2fa.objective c cfg in
  let r = S2fa.estimate c cfg in
  Alcotest.(check (float 1e-12))
    "perf is the steady-state (double-buffered) time"
    (Float.max r.E.r_compute_seconds r.E.r_xfer_seconds)
    o.S2fa_tuner.Tuner.e_perf;
  Alcotest.(check bool) "feasible" true o.S2fa_tuner.Tuner.e_feasible

let test_accelerator_id_from_source () =
  let w = Option.get (W.find "AES") in
  let c = W.compile w in
  let rng = Rng.create 1 in
  let a = S2fa.make_accelerator c ~fields:(w.W.w_fields rng) in
  Alcotest.(check string) "Blaze id" "AES" a.S2fa_blaze.Blaze.acc_id

let test_manual_designs_feasible () =
  List.iter
    (fun (w : W.t) ->
      let c = W.compile w in
      let cfg = W.manual_design w c in
      let r = S2fa.estimate ~tasks:w.W.w_tasks c cfg in
      Alcotest.(check bool) (w.W.w_name ^ " manual feasible") true
        r.E.r_feasible)
    W.all

let test_workload_table_metadata () =
  (* Table 2's rows: name and category. *)
  let names = List.map (fun (w : W.t) -> w.W.w_name) W.all in
  Alcotest.(check (list string)) "order of Table 2"
    [ "PR"; "KMeans"; "KNN"; "LR"; "SVM"; "LLS"; "AES"; "S-W" ]
    names;
  List.iter
    (fun (w : W.t) ->
      Alcotest.(check bool) "has a kind" true (String.length w.W.w_kind > 0))
    W.all

let test_generators_deterministic () =
  List.iter
    (fun (w : W.t) ->
      let a = w.W.w_gen (Rng.create 9) 5 in
      let b = w.W.w_gen (Rng.create 9) 5 in
      Array.iteri
        (fun i v ->
          Alcotest.(check bool)
            (w.W.w_name ^ " deterministic gen")
            true
            (S2fa_jvm.Interp.equal_value v b.(i)))
        a)
    W.all

let test_explore_quick () =
  let w = Option.get (W.find "PR") in
  let c = W.compile w in
  let opts =
    { Driver.default_s2fa_opts with
      Driver.so_time_limit = 60.0;
      so_samples = 16 }
  in
  let r = S2fa.explore ~opts c (Rng.create 3) in
  Alcotest.(check bool) "found a design" true (r.Driver.rr_best <> None);
  match r.Driver.rr_best with
  | Some (cfg, perf) ->
    let check = S2fa.estimate c cfg in
    Alcotest.(check (float 1e-12)) "reported perf reproducible"
      (Float.max check.E.r_compute_seconds check.E.r_xfer_seconds)
      perf
  | None -> ()

(* ---------- end-to-end coverage of the trickier types ---------- *)

module Blaze = S2fa_blaze.Blaze
module Interp = S2fa_jvm.Interp

let end_to_end ?operator ?(in_caps = []) ?(out_caps = []) src id tasks =
  let c = S2fa.compile ?operator ~in_caps ~out_caps src in
  let jvm = Blaze.map_jvm (S2fa.jvm_program c ~fields:[]) tasks in
  let mgr = Blaze.create_manager () in
  Blaze.register mgr (S2fa.make_accelerator c ~fields:[]);
  let fpga = Blaze.map_accelerated mgr ~id tasks in
  Array.iteri
    (fun i v ->
      Alcotest.(check bool)
        (Printf.sprintf "task %d" i)
        true
        (Interp.equal_value v fpga.Blaze.tr_values.(i)))
    jvm.Blaze.tr_values

let test_long_kernel () =
  end_to_end
    {|
class Lk() extends Accelerator[Long, Long] {
  val id: String = "lk"
  def call(in: Long): Long = {
    var h = in
    for (i <- 0 until 4) {
      h = h * 31L + 17L
    }
    h
  }
}
|}
    "lk"
    (Array.init 6 (fun i -> Interp.VLong (Int64.of_int (i * 1000))))

let test_tuple3_kernel () =
  end_to_end ~in_caps:[ 4 ]
    {|
class T3() extends Accelerator[(Int, Array[Int], Int), Int] {
  val id: String = "t3"
  def call(in: (Int, Array[Int], Int)): Int = {
    val scale = in._1
    val xs = in._2
    val off = in._3
    var s = off
    for (i <- 0 until 4) {
      s = s + scale * xs(i)
    }
    s
  }
}
|}
    "t3"
    (Array.init 5 (fun i ->
         Interp.VTuple
           [| Interp.VInt (i + 1);
              Interp.VArr
                { Interp.aelem = S2fa.Ast.TInt;
                  adata = Array.init 4 (fun j -> Interp.VInt (j - i)) };
              Interp.VInt (10 * i) |]))

let test_charat_kernel () =
  end_to_end ~in_caps:[ 8 ]
    {|
class Ch() extends Accelerator[String, Int] {
  val id: String = "ch"
  def call(in: String): Int = {
    var vowels = 0
    for (i <- 0 until 8) {
      val ci = in.charAt(i)
      if (ci == 'a' || ci == 'e' || ci == 'i' || ci == 'o' || ci == 'u') {
        vowels = vowels + 1
      }
    }
    vowels
  }
}
|}
    "ch"
    [| S2fa_workloads.Workloads.str "overhead";
       S2fa_workloads.Workloads.str "qqqqqqqq";
       S2fa_workloads.Workloads.str "aeiouaei" |]

let test_boolean_output_kernel () =
  end_to_end ~in_caps:[ 4 ]
    {|
class Bk() extends Accelerator[Array[Int], Boolean] {
  val id: String = "bk"
  def call(in: Array[Int]): Boolean = {
    var sorted = true
    for (i <- 0 until 3) {
      if (in(i) > in(i + 1)) { sorted = false }
    }
    sorted
  }
}
|}
    "bk"
    [| S2fa_workloads.Workloads.iarr [| 1; 2; 3; 4 |];
       S2fa_workloads.Workloads.iarr [| 4; 1; 2; 3 |];
       S2fa_workloads.Workloads.iarr [| 2; 2; 2; 2 |] |]

let test_shifts_and_bitwise_kernel () =
  end_to_end
    {|
class Bits() extends Accelerator[Int, Int] {
  val id: String = "bits"
  def call(in: Int): Int = {
    val a = (in << 3) ^ (in >> 1)
    val b = (a & 255) | (in & 3840)
    b + (a % 7)
  }
}
|}
    "bits"
    (Array.init 8 (fun i -> Interp.VInt ((i * 37) + 1)))

let () =
  Alcotest.run "core"
    [ ( "framework",
        [ Alcotest.test_case "compile all workloads" `Quick
            test_compile_all_workloads;
          Alcotest.test_case "error stages" `Quick test_error_reporting_stages;
          Alcotest.test_case "class selection" `Quick test_class_selection;
          Alcotest.test_case "emit C with design" `Quick test_emit_c_with_design;
          Alcotest.test_case "objective = estimate" `Quick
            test_objective_matches_estimate;
          Alcotest.test_case "accelerator id" `Quick
            test_accelerator_id_from_source ] );
      ( "workloads",
        [ Alcotest.test_case "manual designs feasible" `Slow
            test_manual_designs_feasible;
          Alcotest.test_case "table metadata" `Quick
            test_workload_table_metadata;
          Alcotest.test_case "deterministic generators" `Quick
            test_generators_deterministic;
          Alcotest.test_case "quick explore" `Slow test_explore_quick ] );
      ( "type coverage",
        [ Alcotest.test_case "Long kernel" `Quick test_long_kernel;
          Alcotest.test_case "Tuple3 kernel" `Quick test_tuple3_kernel;
          Alcotest.test_case "charAt kernel" `Quick test_charat_kernel;
          Alcotest.test_case "Boolean output" `Quick
            test_boolean_output_kernel;
          Alcotest.test_case "shifts and bitwise" `Quick
            test_shifts_and_bitwise_kernel ] ) ]
