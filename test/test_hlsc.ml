(* C AST, printer, interpreter and analysis tests. *)
module Csyntax = S2fa_hlsc.Csyntax
module Cinterp = S2fa_hlsc.Cinterp
module Canalysis = S2fa_hlsc.Canalysis
open Csyntax

let contains hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* A little factorial function in the C AST:
   int fact(int n) { int r = 1; for (i = 1; i < n+1; i++) r = r * i; return r; } *)
let fact_func =
  let loop =
    mk_loop ~var:"i" ~lo:(EInt 1)
      ~hi:(EBin (CAdd, EVar "n", EInt 1))
      [ SAssign (EVar "r", EBin (CMul, EVar "r", EVar "i")) ]
  in
  { cfname = "fact";
    cfparams = [ { cpname = "n"; cpty = CInt; cpbitwidth = None } ];
    cfret = Some CInt;
    cfbody = [ SDecl (CInt, "r", Some (EInt 1)); SFor loop; SReturn (Some (EVar "r")) ] }

let fact_prog = { cfuncs = [ fact_func ] }

let test_interp_fact () =
  match Cinterp.run_func fact_prog "fact" [ ("n", Cinterp.VI 6) ] with
  | Some (Cinterp.VI 720) -> ()
  | _ -> Alcotest.fail "6! = 720"

let test_interp_buffers_mutate () =
  (* void fill(int *buf) { for (i=0;i<4;i++) buf[i] = i*i; } *)
  let loop =
    mk_loop ~var:"i" ~lo:(EInt 0) ~hi:(EInt 4)
      [ SAssign (EIndex (EVar "buf", EVar "i"), EBin (CMul, EVar "i", EVar "i")) ]
  in
  let f =
    { cfname = "fill";
      cfparams = [ { cpname = "buf"; cpty = CPtr CInt; cpbitwidth = None } ];
      cfret = None;
      cfbody = [ SFor loop ] }
  in
  let buf = Array.make 4 (Cinterp.VI 0) in
  ignore
    (Cinterp.run_func { cfuncs = [ f ] } "fill" [ ("buf", Cinterp.VA buf) ]);
  Alcotest.(check bool) "squares" true
    (buf = [| Cinterp.VI 0; Cinterp.VI 1; Cinterp.VI 4; Cinterp.VI 9 |])

let test_interp_conditionals () =
  let f =
    { cfname = "absdiff";
      cfparams =
        [ { cpname = "a"; cpty = CInt; cpbitwidth = None };
          { cpname = "b"; cpty = CInt; cpbitwidth = None } ];
      cfret = Some CInt;
      cfbody =
        [ SIf
            ( EBin (CGt, EVar "a", EVar "b"),
              [ SReturn (Some (EBin (CSub, EVar "a", EVar "b"))) ],
              [ SReturn (Some (EBin (CSub, EVar "b", EVar "a"))) ] ) ] }
  in
  let run a b =
    match
      Cinterp.run_func { cfuncs = [ f ] } "absdiff"
        [ ("a", Cinterp.VI a); ("b", Cinterp.VI b) ]
    with
    | Some (Cinterp.VI n) -> n
    | _ -> Alcotest.fail "int expected"
  in
  Alcotest.(check int) "7-3" 4 (run 7 3);
  Alcotest.(check int) "3-7" 4 (run 3 7)

let test_interp_math () =
  let f =
    { cfname = "m";
      cfparams = [ { cpname = "x"; cpty = CDouble; cpbitwidth = None } ];
      cfret = Some CDouble;
      cfbody =
        [ SReturn
            (Some (ECall ("sqrt", [ ECall ("fmax", [ EVar "x"; EInt 16 ]) ])))
        ] }
  in
  match Cinterp.run_func { cfuncs = [ f ] } "m" [ ("x", Cinterp.VF 4.0) ] with
  | Some (Cinterp.VF v) -> Alcotest.(check (float 1e-9)) "sqrt(max(4,16))" 4.0 v
  | _ -> Alcotest.fail "float expected"

let test_interp_user_call () =
  let callee =
    { cfname = "twice";
      cfparams = [ { cpname = "v"; cpty = CInt; cpbitwidth = None } ];
      cfret = Some CInt;
      cfbody = [ SReturn (Some (EBin (CMul, EVar "v", EInt 2))) ] }
  in
  let caller =
    { cfname = "go";
      cfparams = [ { cpname = "x"; cpty = CInt; cpbitwidth = None } ];
      cfret = Some CInt;
      cfbody = [ SReturn (Some (ECall ("twice", [ EBin (CAdd, EVar "x", EInt 1) ]))) ] }
  in
  match
    Cinterp.run_func { cfuncs = [ callee; caller ] } "go" [ ("x", Cinterp.VI 20) ]
  with
  | Some (Cinterp.VI 42) -> ()
  | _ -> Alcotest.fail "expected 42"

let test_interp_char_cast () =
  let f =
    { cfname = "c";
      cfparams = [ { cpname = "x"; cpty = CInt; cpbitwidth = None } ];
      cfret = Some CInt;
      cfbody = [ SReturn (Some (ECast (CChar, EVar "x"))) ] }
  in
  match Cinterp.run_func { cfuncs = [ f ] } "c" [ ("x", Cinterp.VI 300) ] with
  | Some (Cinterp.VI v) -> Alcotest.(check int) "masked" (300 land 0xff) v
  | _ -> Alcotest.fail "int expected"

(* ---------- printing ---------- *)

let test_pp_basic () =
  let s = to_string fact_prog in
  Alcotest.(check bool) "signature" true (contains s "int fact(int n)");
  Alcotest.(check bool) "loop" true (contains s "for (int i = 1; i < n + 1; i++)");
  Alcotest.(check bool) "return" true (contains s "return r;")

let test_pp_pragmas () =
  let loop =
    { (mk_loop ~var:"i" ~lo:(EInt 0) ~hi:(EInt 8) []) with
      lpragmas = [ Pipeline PipeOn; Parallel 4; Tile 2 ] }
  in
  let f =
    { cfname = "k"; cfparams = []; cfret = None; cfbody = [ SFor loop ] }
  in
  let s = Format.asprintf "%a" pp_func f in
  Alcotest.(check bool) "pipeline" true (contains s "#pragma ACCEL pipeline");
  Alcotest.(check bool) "parallel" true
    (contains s "#pragma ACCEL parallel factor=4");
  Alcotest.(check bool) "tile" true (contains s "#pragma ACCEL tile factor=2")

let test_pp_precedence_parens () =
  let e = EBin (CMul, EBin (CAdd, EVar "a", EVar "b"), EVar "c") in
  Alcotest.(check string) "parens" "(a + b) * c"
    (Format.asprintf "%a" pp_expr e);
  let e2 = EBin (CAdd, EVar "a", EBin (CMul, EVar "b", EVar "c")) in
  Alcotest.(check string) "no parens" "a + b * c"
    (Format.asprintf "%a" pp_expr e2)

(* ---------- helpers / structure ---------- *)

let test_const_int_of () =
  Alcotest.(check (option int)) "folds" (Some 65)
    (const_int_of (EBin (CAdd, EInt 64, EInt 1)));
  Alcotest.(check (option int)) "div" (Some 21)
    (const_int_of (EBin (CDiv, EInt 64, EInt 3)));
  Alcotest.(check (option int)) "var" None
    (const_int_of (EBin (CAdd, EVar "n", EInt 1)))

let test_ty_bits () =
  Alcotest.(check int) "char" 8 (ty_bits CChar);
  Alcotest.(check int) "double" 64 (ty_bits CDouble);
  Alcotest.(check int) "ptr elem" 32 (ty_bits (CPtr CInt));
  Alcotest.(check int) "arr elem" 32 (ty_bits (CArr (CFloat, 10)))

let nested_loops_func =
  (* for i in 0..4 { for j in 0..8 { acc = acc + a[i*8+j]; } } *)
  let inner =
    mk_loop ~var:"j" ~lo:(EInt 0) ~hi:(EInt 8)
      [ SAssign
          ( EVar "acc",
            EBin
              ( CAdd,
                EVar "acc",
                EIndex
                  ( EVar "a",
                    EBin (CAdd, EBin (CMul, EVar "i", EInt 8), EVar "j") ) ) )
      ]
  in
  let outer = mk_loop ~var:"i" ~lo:(EInt 0) ~hi:(EInt 4) [ SFor inner ] in
  ( { cfname = "sum";
      cfparams = [ { cpname = "a"; cpty = CPtr CDouble; cpbitwidth = Some 64 } ];
      cfret = None;
      cfbody = [ SDecl (CDouble, "acc", Some (EDouble 0.0)); SFor outer ] },
    outer.lid,
    (match outer.lbody with [ SFor l ] -> l.lid | _ -> assert false) )

let test_map_loops () =
  let f, outer_id, inner_id = nested_loops_func in
  let seen = ref [] in
  let _ =
    map_loops
      (fun l ->
        seen := l.lid :: !seen;
        l)
      f.cfbody
  in
  Alcotest.(check bool) "visits both" true
    (List.mem outer_id !seen && List.mem inner_id !seen)

let test_iter_loops_ancestors () =
  let f, outer_id, inner_id = nested_loops_func in
  let anc = ref [] in
  iter_loops (fun ancestors l -> if l.lid = inner_id then anc := ancestors) f.cfbody;
  Alcotest.(check (list int)) "inner's ancestors" [ outer_id ] !anc

(* ---------- analysis ---------- *)

let test_analysis_trips_and_depths () =
  let f, outer_id, inner_id = nested_loops_func in
  let s = Canalysis.analyze f in
  Alcotest.(check int) "two loops" 2 (List.length s.Canalysis.loops);
  let outer = Option.get (Canalysis.find_loop s outer_id) in
  let inner = Option.get (Canalysis.find_loop s inner_id) in
  Alcotest.(check (option int)) "outer trip" (Some 4) outer.Canalysis.li_trip;
  Alcotest.(check (option int)) "inner trip" (Some 8) inner.Canalysis.li_trip;
  Alcotest.(check int) "outer depth" 0 outer.Canalysis.li_depth;
  Alcotest.(check int) "inner depth" 1 inner.Canalysis.li_depth;
  Alcotest.(check (list int)) "children" [ inner_id ] outer.Canalysis.li_children

let test_analysis_reduction_detected () =
  let f, _, inner_id = nested_loops_func in
  let s = Canalysis.analyze f in
  let inner = Option.get (Canalysis.find_loop s inner_id) in
  match inner.Canalysis.li_dep with
  | Canalysis.ScalarRec ("acc", _) -> ()
  | _ -> Alcotest.fail "accumulation not detected"

let test_analysis_op_counts () =
  let f, _, inner_id = nested_loops_func in
  let s = Canalysis.analyze f in
  let inner = Option.get (Canalysis.find_loop s inner_id) in
  let ops = inner.Canalysis.li_ops in
  Alcotest.(check int) "one fp add" 1 ops.Canalysis.fp_add;
  Alcotest.(check int) "index arithmetic" 2
    (ops.Canalysis.int_add + ops.Canalysis.int_mul);
  Alcotest.(check int) "one read of a" 1
    (Option.value ~default:0 (List.assoc_opt "a" ops.Canalysis.mem_reads))

let test_analysis_buffers () =
  let f, _, _ = nested_loops_func in
  let s = Canalysis.analyze f in
  match s.Canalysis.buffers with
  | [ ("a", CPtr CDouble, Some 64) ] -> ()
  | _ -> Alcotest.fail "buffer list"

let test_analysis_array_dependence () =
  (* m[i] = m[i-1] + 1 is loop-carried. *)
  let loop =
    mk_loop ~var:"i" ~lo:(EInt 1) ~hi:(EInt 8)
      [ SAssign
          ( EIndex (EVar "m", EVar "i"),
            EBin (CAdd, EIndex (EVar "m", EBin (CSub, EVar "i", EInt 1)), EInt 1)
          ) ]
  in
  let f =
    { cfname = "scan";
      cfparams = [];
      cfret = None;
      cfbody = [ SDecl (CArr (CInt, 8), "m", None); SFor loop ] }
  in
  let s = Canalysis.analyze f in
  match (List.hd s.Canalysis.loops).Canalysis.li_dep with
  | Canalysis.ArrayRec "m" -> ()
  | _ -> Alcotest.fail "array recurrence not detected"

let test_analysis_no_dependence () =
  (* out[i] = in[i] * 2 is parallel. *)
  let loop =
    mk_loop ~var:"i" ~lo:(EInt 0) ~hi:(EInt 8)
      [ SAssign
          ( EIndex (EVar "o", EVar "i"),
            EBin (CMul, EIndex (EVar "a", EVar "i"), EInt 2) ) ]
  in
  let f =
    { cfname = "dbl";
      cfparams =
        [ { cpname = "a"; cpty = CPtr CInt; cpbitwidth = None };
          { cpname = "o"; cpty = CPtr CInt; cpbitwidth = None } ];
      cfret = None;
      cfbody = [ SFor loop ] }
  in
  let s = Canalysis.analyze f in
  match (List.hd s.Canalysis.loops).Canalysis.li_dep with
  | Canalysis.NoDep -> ()
  | _ -> Alcotest.fail "false dependence"

let test_analysis_local_arrays () =
  let f =
    { cfname = "l";
      cfparams = [];
      cfret = None;
      cfbody = [ SDecl (CArr (CInt, 100), "buf", None); SReturn None ] }
  in
  let s = Canalysis.analyze f in
  Alcotest.(check int) "bytes" 400 s.Canalysis.locals_bytes;
  match s.Canalysis.local_arrays with
  | [ ("buf", CInt, 100) ] -> ()
  | _ -> Alcotest.fail "local array list"

(* ---------- affine analysis ---------- *)

let test_affine_of () =
  (* i*8 + j + 3 *)
  let e =
    EBin (CAdd, EBin (CAdd, EBin (CMul, EVar "i", EInt 8), EVar "j"), EInt 3)
  in
  match Canalysis.affine_of e with
  | Some a ->
    Alcotest.(check int) "const" 3 a.Canalysis.aff_const;
    Alcotest.(check (option int)) "i coeff" (Some 8)
      (List.assoc_opt "i" a.Canalysis.aff_terms);
    Alcotest.(check (option int)) "j coeff" (Some 1)
      (List.assoc_opt "j" a.Canalysis.aff_terms)
  | None -> Alcotest.fail "expected affine"

let test_affine_rejects_nonaffine () =
  Alcotest.(check bool) "i*j is not affine" true
    (Canalysis.affine_of (EBin (CMul, EVar "i", EVar "j")) = None);
  Alcotest.(check bool) "a[i] is not affine" true
    (Canalysis.affine_of (EIndex (EVar "a", EVar "i")) = None)

let test_affine_diff_cancels () =
  let x = Option.get (Canalysis.affine_of (EBin (CAdd, EVar "i", EInt 5))) in
  let y = Option.get (Canalysis.affine_of (EBin (CAdd, EVar "i", EInt 3))) in
  let d = Canalysis.affine_diff x y in
  Alcotest.(check bool) "terms cancel" true (d.Canalysis.aff_terms = []);
  Alcotest.(check int) "distance 2" 2 d.Canalysis.aff_const

let test_affine_equal_modulo_order () =
  let x =
    Option.get (Canalysis.affine_of (EBin (CAdd, EVar "i", EVar "j")))
  in
  let y =
    Option.get (Canalysis.affine_of (EBin (CAdd, EVar "j", EVar "i")))
  in
  Alcotest.(check bool) "commutative" true (Canalysis.affine_equal x y)

let test_dependence_private_iteration () =
  (* o[i] = o[i] * 2: reads and writes the same moving cell — private
     per iteration, no carried dependence. *)
  let loop =
    mk_loop ~var:"i" ~lo:(EInt 0) ~hi:(EInt 8)
      [ SAssign
          ( EIndex (EVar "o", EVar "i"),
            EBin (CMul, EIndex (EVar "o", EVar "i"), EInt 2) ) ]
  in
  let f =
    { cfname = "d";
      cfparams = [ { cpname = "o"; cpty = CPtr CInt; cpbitwidth = None } ];
      cfret = None;
      cfbody = [ SFor loop ] }
  in
  let s = Canalysis.analyze f in
  match (List.hd s.Canalysis.loops).Canalysis.li_dep with
  | Canalysis.NoDep -> ()
  | _ -> Alcotest.fail "in-place update flagged as carried"

let test_dependence_accumulator_cell () =
  (* o[0] = o[0] + a[i]: the same loop-invariant cell every iteration. *)
  let loop =
    mk_loop ~var:"i" ~lo:(EInt 0) ~hi:(EInt 8)
      [ SAssign
          ( EIndex (EVar "o", EInt 0),
            EBin (CAdd, EIndex (EVar "o", EInt 0), EIndex (EVar "a", EVar "i"))
          ) ]
  in
  let f =
    { cfname = "d";
      cfparams =
        [ { cpname = "o"; cpty = CPtr CInt; cpbitwidth = None };
          { cpname = "a"; cpty = CPtr CInt; cpbitwidth = None } ];
      cfret = None;
      cfbody = [ SFor loop ] }
  in
  let s = Canalysis.analyze f in
  match (List.hd s.Canalysis.loops).Canalysis.li_dep with
  | Canalysis.ArrayRec "o" -> ()
  | _ -> Alcotest.fail "accumulator cell not detected"

(* property: affine_diff (x, x) is zero *)
let gen_affine_expr =
  let open QCheck.Gen in
  let rec gen depth =
    if depth = 0 then
      oneof
        [ map (fun n -> EInt n) (int_range (-9) 9);
          oneofl [ EVar "i"; EVar "j"; EVar "k" ] ]
    else
      let sub = gen (depth - 1) in
      oneof
        [ map2 (fun a b -> EBin (CAdd, a, b)) sub sub;
          map2 (fun a b -> EBin (CSub, a, b)) sub sub;
          map2 (fun k a -> EBin (CMul, EInt k, a)) (int_range (-4) 4) sub;
          sub ]
  in
  gen 3

let prop_affine_self_diff_zero =
  QCheck.Test.make ~name:"affine x - x = 0" ~count:300
    (QCheck.make gen_affine_expr) (fun e ->
      match Canalysis.affine_of e with
      | Some a ->
        let d = Canalysis.affine_diff a a in
        d.Canalysis.aff_terms = [] && d.Canalysis.aff_const = 0
      | None -> QCheck.assume_fail ())

let prop_affine_matches_eval =
  (* Evaluate the expression and its affine form at random points. *)
  QCheck.Test.make ~name:"affine form evaluates like the expression"
    ~count:300
    QCheck.(
      pair (QCheck.make gen_affine_expr)
        (triple (int_range (-5) 5) (int_range (-5) 5) (int_range (-5) 5)))
    (fun (e, (vi, vj, vk)) ->
      match Canalysis.affine_of e with
      | None -> QCheck.assume_fail ()
      | Some a ->
        let env = [ ("i", vi); ("j", vj); ("k", vk) ] in
        let rec eval = function
          | EInt n -> n
          | EVar v -> List.assoc v env
          | EBin (CAdd, x, y) -> eval x + eval y
          | EBin (CSub, x, y) -> eval x - eval y
          | EBin (CMul, x, y) -> eval x * eval y
          | _ -> 0
        in
        let from_affine =
          a.Canalysis.aff_const
          + List.fold_left
              (fun acc (v, c) -> acc + (c * List.assoc v env))
              0 a.Canalysis.aff_terms
        in
        eval e = from_affine)

(* ---------- property: interpreter agrees with OCaml on arithmetic ---------- *)

let prop_interp_arith =
  QCheck.Test.make ~name:"C interpreter agrees on int arithmetic" ~count:300
    QCheck.(triple (int_range (-100) 100) (int_range (-100) 100)
              (int_range 0 3))
    (fun (a, b, opi) ->
      let op, eval =
        match opi with
        | 0 -> (CAdd, ( + ))
        | 1 -> (CSub, ( - ))
        | 2 -> (CMul, ( * ))
        | _ -> (CBXor, ( lxor ))
      in
      let f =
        { cfname = "f";
          cfparams =
            [ { cpname = "a"; cpty = CInt; cpbitwidth = None };
              { cpname = "b"; cpty = CInt; cpbitwidth = None } ];
          cfret = Some CInt;
          cfbody = [ SReturn (Some (EBin (op, EVar "a", EVar "b"))) ] }
      in
      match
        Cinterp.run_func { cfuncs = [ f ] } "f"
          [ ("a", Cinterp.VI a); ("b", Cinterp.VI b) ]
      with
      | Some (Cinterp.VI r) -> r = eval a b
      | _ -> false)

(* ---------- exact fuel boundary on every workload ---------- *)

module W = S2fa_workloads.Workloads
module S2fa = S2fa_core.S2fa
module Serde = S2fa_blaze.Serde

(* A batch of two tasks through each workload's flat kernel: the fuel
   the run needs (statements plus loop iterations, plus one). *)
let kernel_fuel =
  [ ("PR", 299); ("KMeans", 864); ("KNN", 6702); ("LR", 790); ("SVM", 659);
    ("LLS", 790); ("AES", 952); ("S-W", 108548) ]

let test_fuel_boundary () =
  List.iter
    (fun (w : W.t) ->
      let c = W.compile w in
      let iface = c.S2fa.c_iface in
      let tasks = w.W.w_gen (S2fa_util.Rng.create 2) 2 in
      let fields = w.W.w_fields (S2fa_util.Rng.create 1) in
      let run fuel =
        let args =
          (("N", Cinterp.VI 2)
          :: Serde.serialize_inputs iface c.S2fa.c_input_ty tasks)
          @ Serde.alloc_outputs iface 2
          @ Serde.field_buffers iface fields
        in
        Cinterp.run_func ~fuel c.S2fa.c_flat iface.S2fa_b2c.Decompile.if_kernel
          args
      in
      let fuel = List.assoc w.W.w_name kernel_fuel in
      ignore (run fuel);
      Alcotest.check_raises (w.W.w_name ^ ": one tick short")
        (Cinterp.C_error "fuel exhausted") (fun () -> ignore (run (fuel - 1))))
    W.all

let () =
  Alcotest.run "hlsc"
    [ ( "interp",
        [ Alcotest.test_case "factorial" `Quick test_interp_fact;
          Alcotest.test_case "buffer mutation" `Quick test_interp_buffers_mutate;
          Alcotest.test_case "conditionals" `Quick test_interp_conditionals;
          Alcotest.test_case "math" `Quick test_interp_math;
          Alcotest.test_case "user calls" `Quick test_interp_user_call;
          Alcotest.test_case "char cast" `Quick test_interp_char_cast;
          Alcotest.test_case "fuel boundary on every workload" `Quick
            test_fuel_boundary ] );
      ( "printer",
        [ Alcotest.test_case "basic" `Quick test_pp_basic;
          Alcotest.test_case "pragmas" `Quick test_pp_pragmas;
          Alcotest.test_case "precedence parens" `Quick
            test_pp_precedence_parens ] );
      ( "structure",
        [ Alcotest.test_case "const_int_of" `Quick test_const_int_of;
          Alcotest.test_case "ty_bits" `Quick test_ty_bits;
          Alcotest.test_case "map_loops" `Quick test_map_loops;
          Alcotest.test_case "iter_loops ancestors" `Quick
            test_iter_loops_ancestors ] );
      ( "analysis",
        [ Alcotest.test_case "trips and depths" `Quick
            test_analysis_trips_and_depths;
          Alcotest.test_case "reduction" `Quick test_analysis_reduction_detected;
          Alcotest.test_case "op counts" `Quick test_analysis_op_counts;
          Alcotest.test_case "buffers" `Quick test_analysis_buffers;
          Alcotest.test_case "array dependence" `Quick
            test_analysis_array_dependence;
          Alcotest.test_case "no false dependence" `Quick
            test_analysis_no_dependence;
          Alcotest.test_case "local arrays" `Quick test_analysis_local_arrays
        ] );
      ( "affine",
        [ Alcotest.test_case "affine_of" `Quick test_affine_of;
          Alcotest.test_case "rejects non-affine" `Quick
            test_affine_rejects_nonaffine;
          Alcotest.test_case "diff cancels" `Quick test_affine_diff_cancels;
          Alcotest.test_case "order-insensitive equality" `Quick
            test_affine_equal_modulo_order;
          Alcotest.test_case "iteration-private update" `Quick
            test_dependence_private_iteration;
          Alcotest.test_case "accumulator cell" `Quick
            test_dependence_accumulator_cell ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_interp_arith;
            prop_affine_self_diff_zero;
            prop_affine_matches_eval ] ) ]
