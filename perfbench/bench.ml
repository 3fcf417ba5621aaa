(* The repo benchmark: one seeded workload per run, end-to-end metrics
   with tracing off (--trace 0) or per-layer metrics from a traced run
   (--trace 1), every output checked. The last line of stdout is the
   JSON result. See README.md in this directory.

     bench.exe --workload serve-sw|federate-pr|toolchain --seed N
               --seconds S --trace 0|1
     bench.exe --self-test *)

module Fleet = S2fa_fleet.Fleet
module Interp = S2fa_jvm.Interp
module Driver = S2fa_dse.Driver
module Sym = S2fa_sym.Sym

(* Name, unit; the order in which the result line lists them. *)
let end_to_end =
  [ ("setup_s", "s"); ("ops_per_s", "1/s"); ("alloc_words_per_op", "words");
    ("peak_heap_mb", "MB") ]

let per_layer =
  [ ("jvm.interp_s_per_req", "s"); ("jvm.interp_words_per_req", "words");
    ("jvm.insns_per_req", "count"); ("blaze.serde_s_per_req", "s");
    ("hlsc.cinterp_s_per_req", "s"); ("hlsc.cinterp_words_per_req", "words");
    ("hls.estimate_s_per_batch", "s"); ("blaze.accel_self_s_per_req", "s");
    ("fleet.self_s", "s"); ("federation.self_s", "s");
    ("fleet.batches", "count"); ("fleet.mean_batch", "count");
    ("fleet.reconfigs", "count"); ("federation.remote_route_share", "share");
    ("federation.leases", "count"); ("traffic.gen_s", "s");
    ("scala_front.parse_s", "s"); ("scala_front.typecheck_s", "s");
    ("jvm.compile_s", "s"); ("jvm.verify_s", "s"); ("b2c.decompile_s", "s");
    ("dse.identify_s", "s"); ("jvm.bytecode_insns", "count");
    ("dse.evals_per_s", "1/s"); ("dse.objective_s_per_call", "s");
    ("merlin.apply_s_per_call", "s"); ("hls.estimate_s_per_call", "s");
    ("dse.driver_self_share", "share");
    ("dse.objective_calls_per_eval", "ratio");
    ("tuner.resultdb_hit_ratio", "ratio"); ("sym.proofs_per_s", "1/s");
    ("sym.equiv_s_per_proof", "s"); ("sym.nodes_per_proof", "count");
    ("sym.steps_per_proof", "count"); ("trace.overhead_ops_per_s", "1/s");
    ("vlat_p50_ms", "ms"); ("vlat_p95_ms", "ms"); ("accel_share", "share");
    ("dse_qor_s", "s"); ("dse_vminutes", "min") ]

(* Lists every metric of [schema]; a layer the workload never runs
   reads 0. *)
let metrics schema values =
  List.iter
    (fun (k, _) ->
      if not (List.mem_assoc k schema) then failwith ("unlisted metric " ^ k))
    values;
  List.map
    (fun (name, unit) ->
      Meter.metric name unit
        (Option.value ~default:0.0 (List.assoc_opt name values)))
    schema

(* Timed set-up. [rep ()] runs [f] [reps] times, each from a fully
   collected heap, and returns the last result. A workload calls it once
   before the passes and again between passes, so the reps spread over
   the whole run; [fastest ()] is the fastest of them all, which is the
   steadiest estimate, as for pass pieces (see Meter.fastest_sum). *)
let setup_timer reps f =
  let times = ref [] in
  let rec rep_n k last =
    if k = 0 then Option.get last
    else begin
      Gc.full_major ();
      let x, s, _ = Meter.timed f in
      times := s :: !times;
      rep_n (k - 1) (Some x)
    end
  in
  let fastest () =
    let sorted = List.sort compare !times in
    Printf.eprintf "setup x%d: min %.6f s, median %.6f s, max %.6f s\n%!"
      (List.length sorted) (List.hd sorted) (Meter.median sorted)
      (List.hd (List.rev sorted));
    List.hd sorted
  in
  ((fun () -> rep_n reps None), fastest)

let stage_values st =
  [ ("scala_front.parse_s", st.Toolchain.st_parse);
    ("scala_front.typecheck_s", st.Toolchain.st_typecheck);
    ("jvm.compile_s", st.Toolchain.st_compile);
    ("jvm.verify_s", st.Toolchain.st_verify);
    ("b2c.decompile_s", st.Toolchain.st_decompile);
    ("dse.identify_s", st.Toolchain.st_identify);
    ("jvm.bytecode_insns", float_of_int st.Toolchain.st_insns) ]

(* Timed passes over one stream for [budget] seconds. Each pass is
   checked as soon as it ends and only its guards, allocation and (for a
   traced pass) replay input are kept, so retained results never grow
   the heap with the number of passes. *)
let serve_passes ?between tally sc oracle ~traced budget =
  Meter.repeat_for_heap ?between budget (fun () ->
      let tr = if traced then Some (Meter.tracer ()) else None in
      let sv, s, w =
        Meter.timed (fun () -> sc.Serving.sc_serve (Option.map fst tr))
      in
      Serving.check tally sc oracle sv.Serving.sv_results;
      Printf.eprintf "pass%s %.4f s\n%!" (if traced then " traced" else "") s;
      ( Serving.guards sv, s, w, sv.Serving.sv_pieces,
        Option.map (fun (_, ev) -> (sv, ev)) tr ))

(* Passes over one input must agree exactly on [key]. *)
let check_repeats tally key = function
  | [] -> ()
  | p0 :: rest -> List.iter (fun p -> Meter.check tally (key p = key p0)) rest

let serving ~trace ~setup_reps mk seed seconds =
  let tally = Meter.tally () in
  (* Request generation is timed inside each set-up; the fastest counts,
     as for set-up itself. *)
  let gen_s = ref infinity in
  let setup, setup_s =
    setup_timer setup_reps (fun () ->
        let sc = mk seed in
        gen_s := Float.min !gen_s sc.Serving.sc_gen_s;
        sc)
  in
  let sc = setup () in
  let n = List.length sc.Serving.sc_requests in
  let oracle = Serving.oracle sc in
  let pass_s passes =
    Meter.fastest_sum (List.map (fun (_, _, _, p, _) -> p) passes)
  in
  let rate passes = float_of_int n /. pass_s passes in
  let guards (g, _, _, _, _) = g and alloc (_, _, w, _, _) = w in
  let budget = if trace then seconds /. 3.0 else seconds in
  let plain, heap =
    serve_passes tally sc oracle ~traced:false
      ~between:(fun () -> ignore (setup ()))
      budget
  in
  check_repeats tally (fun p -> (guards p, alloc p)) plain;
  if not trace then
    ( tally,
      [ ("setup_s", setup_s ());
        ("ops_per_s", rate plain);
        ("alloc_words_per_op", alloc (List.hd plain) /. float_of_int n);
        ("peak_heap_mb", heap) ] )
  else begin
    let traced, _ = serve_passes tally sc oracle ~traced:true budget in
    (* Tracing must not move the simulation. *)
    check_repeats tally guards (List.hd plain :: traced);
    let _, _, _, _, last = List.hd (List.rev traced) in
    let sv, events = Option.get last in
    (* Self time is a difference of host times, so both sides use the same
       estimator over the same stretch of the run: replays alternate with
       untraced passes, and each replayed call's fastest time is set
       against each pass piece's fastest time. *)
    let cycles, _ =
      Meter.repeat_for_heap budget (fun () ->
          let vp = Serving.replay sc sv events in
          (vp, fst (serve_passes tally sc oracle ~traced:false 0.0)))
    in
    let vps = List.map fst cycles and after = List.concat_map snd cycles in
    check_repeats tally (fun p -> (guards p, alloc p)) (plain @ after);
    let vp = List.hd vps in
    let fastest f = Meter.fastest_sum (List.map f vps) in
    let jvm_s = fastest (fun v -> v.Serving.vp_jvm_s)
    and whole_s = fastest (fun v -> v.Serving.vp_whole_s)
    and serde_s = fastest (fun v -> v.Serving.vp_serde_s)
    and cinterp_s = fastest (fun v -> v.Serving.vp_cinterp_s)
    and estimate_s = fastest (fun v -> v.Serving.vp_estimate_s) in
    let wall = pass_s after in
    let per a b = Meter.ratio a (float_of_int b) in
    let acc = vp.Serving.vp_acc_reqs
    and jvm = Array.length vp.Serving.vp_jvm_s
    and batches = Array.length vp.Serving.vp_whole_s in
    let st = Toolchain.stages [ Serving.workload sc.Serving.sc_kernel ] in
    let p50, p95, share = Serving.guards sv in
    (* Shares of the untraced pass time, for README.md's table. *)
    let pct x = 100.0 *. x /. wall in
    Printf.eprintf
      "shares of %.3f s serve: jvm %.1f%%, map_accelerated %.1f%% (serde \
       %.1f%%, cinterp %.1f%%, estimate %.1f%%), rest %.1f%%\n%!"
      wall (pct jvm_s) (pct whole_s) (pct serde_s) (pct cinterp_s)
      (pct estimate_s)
      (pct (wall -. jvm_s -. whole_s));
    ( tally,
      [ ("jvm.interp_s_per_req", per jvm_s jvm);
        ("jvm.interp_words_per_req", per vp.Serving.vp_jvm_words jvm);
        ("jvm.insns_per_req", per (float_of_int vp.Serving.vp_jvm_insns) jvm);
        ("blaze.serde_s_per_req", per serde_s acc);
        ("hlsc.cinterp_s_per_req", per cinterp_s acc);
        ("hlsc.cinterp_words_per_req", per vp.Serving.vp_cinterp_words acc);
        ("hls.estimate_s_per_batch", per estimate_s batches);
        ("blaze.accel_self_s_per_req",
         per (whole_s -. serde_s -. cinterp_s -. estimate_s) acc);
        ( (if sc.Serving.sc_federated then "federation.self_s"
           else "fleet.self_s"),
          wall -. jvm_s -. whole_s );
        ("fleet.batches", float_of_int sv.Serving.sv_batches);
        ("fleet.mean_batch",
         per (float_of_int sv.Serving.sv_accelerated) sv.Serving.sv_batches);
        ("fleet.reconfigs", float_of_int sv.Serving.sv_reconfigs);
        ("federation.remote_route_share", vp.Serving.vp_remote_share);
        ("federation.leases", float_of_int sv.Serving.sv_leases);
        ("traffic.gen_s", !gen_s);
        ("trace.overhead_ops_per_s", rate traced -. rate plain);
        ("vlat_p50_ms", p50); ("vlat_p95_ms", p95); ("accel_share", share) ]
      @ stage_values st )
  end

(* A toolchain pass: the DSE set, then the proof subset. *)
type tc_pass = {
  tp_evals : int;
  tp_proofs : int;
  tp_dse : float array;    (* host seconds of each exploration *)
  tp_prove : float array;  (* host seconds of each proof *)
  tp_words : float;
  tp_guards : float * float;
}

let toolchain_passes ?between tally ts seed ?trace budget =
  Meter.repeat_for_heap ?between budget (fun () ->
      let tr = Option.map (fun () -> Meter.tracer ()) trace in
      let (runs, dse), dse_s, dw =
        Meter.timed (fun () ->
            Toolchain.dse_pass ?trace:(Option.map fst tr) ts seed)
      in
      let (verdicts, prove), proof_s, pw =
        if trace = None then Meter.timed (fun () -> Toolchain.proof_pass ts seed)
        else (([], [||]), 0.0, 0.0)
      in
      Printf.eprintf "pass%s dse %.4f s, proofs %.4f s\n%!"
        (if trace = None then "" else " traced") dse_s proof_s;
      Toolchain.check_dse tally runs;
      Toolchain.check_proofs tally verdicts;
      { tp_evals = Toolchain.evals runs; tp_proofs = List.length verdicts;
        tp_dse = dse; tp_prove = prove; tp_words = dw +. pw;
        tp_guards = Toolchain.guards runs })

let toolchain ~trace seed seconds =
  let tally = Meter.tally () in
  let setup, setup_s = setup_timer 30 (fun () -> Toolchain.setup seed) in
  let ts = setup () in
  let ops p = float_of_int (p.tp_evals + p.tp_proofs) in
  let total = Array.fold_left ( +. ) 0.0 in
  let evals_s ps =
    float_of_int (List.hd ps).tp_evals
    /. Meter.fastest_sum (List.map (fun p -> p.tp_dse) ps)
  in
  let budget = if trace then seconds /. 3.0 else seconds in
  let plain, heap =
    toolchain_passes tally ts seed ~between:(fun () -> ignore (setup ())) budget
  in
  check_repeats tally
    (fun p -> (p.tp_guards, p.tp_words, p.tp_evals, p.tp_proofs))
    plain;
  let p0 = List.hd plain in
  if not trace then
    ( tally,
      [ ("setup_s", setup_s ());
        ( "ops_per_s",
          ops p0
          /. Meter.fastest_sum
               (List.map (fun p -> Array.append p.tp_dse p.tp_prove) plain) );
        ("alloc_words_per_op", p0.tp_words /. ops p0);
        ("peak_heap_mb", heap) ] )
  else begin
    let traced, _ = toolchain_passes tally ts seed ~trace:() budget in
    check_repeats tally (fun p -> p.tp_guards) (p0 :: traced);
    let dl = Toolchain.dse_layers ts seed in
    let proofs =
      List.map
        (fun pf -> Meter.timed (fun () -> Toolchain.prove seed pf))
        ts.Toolchain.ts_proofs
    in
    Toolchain.check_proofs tally (List.map (fun (v, _, _) -> v) proofs);
    let proof_s = Meter.sum (List.map (fun (_, s, _) -> s) proofs) in
    let stat f =
      Meter.sum
        (List.map
           (fun (v, _, _) ->
             match v with Sym.Proved st -> float_of_int (f st) | _ -> 0.0)
           proofs)
    in
    let np = List.length proofs in
    let per a b = Meter.ratio a (float_of_int b) in
    (* Shares of an untraced pass and of DSE wall, for README.md's table. *)
    let dse_s = Meter.median (List.map (fun p -> total p.tp_dse) plain) in
    let pass_s =
      dse_s +. Meter.median (List.map (fun p -> total p.tp_prove) plain)
    in
    let of_dse x = 100.0 *. x /. dl.Toolchain.dl_wall_s in
    Printf.eprintf
      "shares of %.3f s pass: dse %.1f%%, proofs %.1f%%; of dse wall: \
       objective %.1f%% (merlin %.1f%%, hls %.1f%%), driver+tuner %.1f%%\n%!"
      pass_s (100.0 *. dse_s /. pass_s)
      (100.0 *. (pass_s -. dse_s) /. pass_s)
      (of_dse dl.Toolchain.dl_objective_s) (of_dse dl.Toolchain.dl_apply_s)
      (of_dse dl.Toolchain.dl_estimate_s)
      (100.0 -. of_dse dl.Toolchain.dl_objective_s);
    let calls = dl.Toolchain.dl_calls in
    let st =
      Toolchain.stages (List.map fst ts.Toolchain.ts_kernels)
    in
    let qor, vmin = p0.tp_guards in
    ( tally,
      [ ("dse.evals_per_s", evals_s plain);
        ("dse.objective_s_per_call", per dl.Toolchain.dl_objective_s calls);
        ("merlin.apply_s_per_call", per dl.Toolchain.dl_apply_s calls);
        ("hls.estimate_s_per_call", per dl.Toolchain.dl_estimate_s calls);
        ( "dse.driver_self_share",
          Meter.ratio
            (dl.Toolchain.dl_wall_s -. dl.Toolchain.dl_objective_s)
            dl.Toolchain.dl_wall_s );
        ( "dse.objective_calls_per_eval",
          per (float_of_int calls) dl.Toolchain.dl_evals );
        ( "tuner.resultdb_hit_ratio",
          per
            (float_of_int dl.Toolchain.dl_hits)
            (dl.Toolchain.dl_hits + dl.Toolchain.dl_misses) );
        ("sym.proofs_per_s", Meter.ratio (float_of_int np) proof_s);
        ("sym.equiv_s_per_proof", per proof_s np);
        ("sym.nodes_per_proof", per (stat (fun st -> st.Sym.pv_nodes)) np);
        ("sym.steps_per_proof", per (stat (fun st -> st.Sym.pv_steps)) np);
        ("trace.overhead_ops_per_s", evals_s traced -. evals_s plain);
        ("dse_qor_s", qor); ("dse_vminutes", vmin) ]
      @ stage_values st )
  end

(* {1 Self-test} *)

let self_test () =
  let ok = ref true in
  let expect what cond =
    Printf.printf "%s %s\n" (if cond then "ok  " else "FAIL") what;
    if not cond then ok := false
  in
  let failed f =
    let t = Meter.tally () in
    f t;
    t.Meter.failed
  in
  (* A corrupted output is counted as failed. *)
  let sc = Serving.serve_sw ~count:30 1 in
  let oracle = Serving.oracle sc in
  let results = (sc.Serving.sc_serve None).Serving.sv_results in
  let check rs t = Serving.check t sc oracle rs in
  expect "clean serve passes the oracle check" (failed (check results) = 0);
  (match results with
  | r :: rest ->
    expect "a corrupted value is counted as failed"
      (failed (check ({ r with Fleet.rs_value = Interp.VUnit } :: rest)) = 1);
    expect "a dropped request is counted as failed" (failed (check rest) = 1);
    expect "a duplicated request is counted as failed"
      (failed (check (r :: r :: rest)) = 1)
  | [] -> expect "the small serve produced results" false);
  let ts = Toolchain.setup 1 in
  let c = snd (List.hd ts.Toolchain.ts_kernels) in
  let rr =
    Toolchain.S2fa.explore c (Toolchain.dse_rng 1 0)
  in
  expect "a real DSE passes the feasibility check"
    (failed (fun t -> Toolchain.check_dse t [ (c, rr) ]) = 0);
  expect "a DSE without a best is counted as failed"
    (failed (fun t ->
         Toolchain.check_dse t [ (c, { rr with Driver.rr_best = None }) ])
    = 1);
  let v = Toolchain.prove 1 (List.hd ts.Toolchain.ts_proofs) in
  expect "a real proof passes" (failed (fun t -> Toolchain.check_proofs t [ v ]) = 0);
  expect "an unproved verdict is counted as failed"
    (failed (fun t -> Toolchain.check_proofs t [ Sym.Unknown "corrupted" ]) = 1);
  expect "a pass time sums each piece's fastest time"
    (Meter.fastest_sum [ [| 1.0; 5.0 |]; [| 2.0; 3.0 |] ] = 4.0);
  (* One seed gives identical guards and allocation; another seed
     changes the request stream. *)
  let measure seed =
    let sc = Serving.serve_sw ~count:30 seed in
    let sv, _, w = Meter.timed (fun () -> sc.Serving.sc_serve None) in
    (Serving.guards sv, w, sc.Serving.sc_requests)
  in
  let g1, w1, r1 = measure 7 and g2, w2, r2 = measure 7 in
  let _, _, r3 = measure 8 in
  let stream rs =
    List.map (fun (r : Fleet.request) -> (r.Fleet.rq_id, r.Fleet.rq_arrival)) rs
  in
  expect "same seed: identical guards" (g1 = g2);
  expect "same seed: identical allocation" (w1 = w2);
  expect "same seed: identical request stream" (stream r1 = stream r2);
  expect "another seed: a different request stream" (stream r1 <> stream r3);
  !ok

(* {1 Command line} *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload serve-sw|federate-pr|toolchain --seed N \
     --seconds S --trace 0|1\n       bench.exe --self-test";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  if args = [ "--self-test" ] then exit (if self_test () then 0 else 1);
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = opts [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some i -> i | None -> usage () in
  let seed = int "seed" and seconds = float_of_int (int "seconds") in
  let trace =
    match get "trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  let tally, values =
    match get "workload" with
    | "serve-sw" ->
      serving ~trace ~setup_reps:30 (fun s -> Serving.serve_sw s) seed seconds
    | "federate-pr" ->
      serving ~trace ~setup_reps:3 (fun s -> Serving.federate_pr s) seed seconds
    | "toolchain" -> toolchain ~trace seed seconds
    | _ -> usage ()
  in
  let schema = if trace then per_layer else end_to_end in
  print_endline (Meter.result_line tally (metrics schema values))
