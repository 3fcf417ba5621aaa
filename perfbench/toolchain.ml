(* The toolchain workload: compile all 8 kernels, explore each over
   several seeds sharing one result database per kernel, and prove a
   sized subset of the `s2fa verify --symbolic` sweep. *)

module S2fa = S2fa_core.S2fa
module Workloads = S2fa_workloads.Workloads
module Driver = S2fa_dse.Driver
module Dspace = S2fa_dse.Dspace
module Resultdb = S2fa_tuner.Resultdb
module Space = S2fa_tuner.Space
module Rng = S2fa_util.Rng
module Estimate = S2fa_hls.Estimate
module Transform = S2fa_merlin.Transform
module Csyntax = S2fa_hlsc.Csyntax
module Cinterp = S2fa_hlsc.Cinterp
module Sym = S2fa_sym.Sym
module Fuzz = S2fa_fuzz.Fuzz
module Parser = S2fa_scala.Parser
module Typecheck = S2fa_scala.Typecheck
module Compile = S2fa_jvm.Compile
module Verify = S2fa_jvm.Verify
module Insn = S2fa_jvm.Insn
module Decompile = S2fa_b2c.Decompile

(* Explorations per kernel in one pass, all sharing the kernel's DB. *)
let dse_seeds = 8

(* AES and S-W hold ~95% of the full sweep's proving time; the subset
   keeps the other six kernels so a pass stays short. *)
let proof_kernels = [ "PR"; "KMeans"; "KNN"; "LR"; "SVM"; "LLS" ]

(* Random design-space configurations proved per kernel. *)
let proof_chains = 6

(* Task count the proofs bind the kernel to ([s2fa verify]'s default). *)
let proof_tasks = 2

type proof = {
  pf_flat : Csyntax.cprog;
  pf_p2 : Csyntax.cprog;
  pf_caps : (string * int) list;
}

(* The verify sweep of one kernel: every step-1 loop under tile4 /
   unroll3 / reduce4, then [proof_chains] random design points. Rewrites
   the transform layer refuses as illegal are skipped, as in the CLI. *)
let proofs_of ~seed (c : S2fa.compiled) =
  let flat = c.S2fa.c_flat in
  let caps = Fuzz.scale_caps ~tasks:proof_tasks c.S2fa.c_buffer_elems in
  let jobs = ref [] in
  let add mk =
    match mk () with
    | exception Transform.Transform_error _ -> ()
    | p2 -> jobs := { pf_flat = flat; pf_p2 = p2; pf_caps = caps } :: !jobs
  in
  let lids = ref [] in
  List.iter
    (fun (f : Csyntax.cfunc) ->
      Csyntax.iter_loops
        (fun _ l -> if l.Csyntax.lstep = 1 then lids := l.Csyntax.lid :: !lids)
        f.Csyntax.cfbody)
    flat.Csyntax.cfuncs;
  List.iter
    (fun lid ->
      add (fun () ->
          Transform.apply
            { Transform.cfg_loops =
                [ ( lid,
                    { Transform.lc_tile = 4; lc_parallel = 1;
                      lc_pipeline = Csyntax.PipeOff } ) ];
              cfg_bitwidths = [] }
            flat);
      add (fun () ->
          Transform.real_unroll ~factor:3 ~loop_id:lid flat);
      add (fun () ->
          Transform.tree_reduce ~lanes:4 ~loop_id:lid flat))
    (List.rev !lids);
  let ds = c.S2fa.c_dspace in
  let rng = Rng.create seed in
  for _ = 1 to proof_chains do
    add (fun () ->
        Transform.apply
          (Dspace.to_merlin ds (Space.random_cfg rng ds.Dspace.ds_space))
          flat)
  done;
  List.rev !jobs

type setup = {
  ts_kernels : (Workloads.t * S2fa.compiled) list;
  ts_proofs : proof list;
}

let setup seed =
  let kernels = List.map (fun w -> (w, Workloads.compile w)) Workloads.all in
  let proofs =
    List.concat_map
      (fun (w, c) ->
        if List.mem w.Workloads.w_name proof_kernels then proofs_of ~seed c
        else [])
      kernels
  in
  { ts_kernels = kernels; ts_proofs = proofs }

let dse_rng seed i = Rng.create ((seed * 104729) + i)

(* [timed_each f xs] maps [f] over [xs] and also returns the host
   seconds of each call: the timed pieces of a pass. *)
let timed_each f xs =
  let timed =
    List.map
      (fun x ->
        let t0 = Meter.now () in
        let r = f x in
        (r, Meter.now () -. t0))
      xs
  in
  (List.map fst timed, Array.of_list (List.map snd timed))

(* One DSE pass: [dse_seeds] explorations per kernel, each one piece. *)
let dse_pass ?trace ts seed =
  timed_each
    (fun (c, db, i) -> (c, S2fa.explore ~db ?trace c (dse_rng seed i)))
    (List.concat_map
       (fun (_, c) ->
         let db = Resultdb.create () in
         List.init dse_seeds (fun i -> (c, db, i)))
       ts.ts_kernels)

let evals runs =
  List.fold_left (fun a (_, rr) -> a + rr.Driver.rr_evals) 0 runs

let prove seed pf =
  Sym.equiv ~bindings:[ ("N", Cinterp.VI proof_tasks) ] ~seed ~caps:pf.pf_caps
    pf.pf_flat pf.pf_p2 "kernel"

(* One proof pass, each proof one piece. *)
let proof_pass ts seed = timed_each (prove seed) ts.ts_proofs

(* The simulated guards of a DSE pass: geometric mean of the best
   designs' seconds, and mean virtual DSE minutes. *)
let guards runs =
  let bests =
    List.filter_map
      (fun (_, rr) ->
        match rr.Driver.rr_best with Some (_, p) -> Some p | None -> None)
      runs
  in
  let qor =
    if bests = [] then 0.0
    else
      exp
        (Meter.sum (List.map log bests) /. float_of_int (List.length bests))
  in
  let vmin =
    Meter.sum (List.map (fun (_, rr) -> rr.Driver.rr_minutes) runs)
    /. float_of_int (max 1 (List.length runs))
  in
  (qor, vmin)

(* Every exploration returns a best the estimator calls feasible. *)
let check_dse tally runs =
  List.iter
    (fun (c, rr) ->
      Meter.check tally
        (match rr.Driver.rr_best with
        | Some (cfg, p) ->
          Float.is_finite p && (S2fa.estimate c cfg).Estimate.r_feasible
        | None -> false))
    runs

let check_proofs tally verdicts =
  List.iter
    (fun v -> Meter.check tally (match v with Sym.Proved _ -> true | _ -> false))
    verdicts

(* {1 Traced layers} *)

type dse_layers = {
  dl_evals : int;
  dl_calls : int;
  dl_wall_s : float;
  dl_objective_s : float;
  dl_apply_s : float;     (* replayed Merlin apply, summed over calls *)
  dl_estimate_s : float;  (* replayed HLS estimate, summed over calls *)
  dl_hits : int;
  dl_misses : int;
}

(* One DSE pass through Driver.run_s2fa with S2fa.objective wrapped in a
   timer — the composition S2fa.explore makes — then every objective
   call's design replayed through the Merlin and HLS layers alone. *)
let dse_layers ts seed =
  let evals = ref 0 and calls = ref 0 in
  let wall = ref 0.0 and obj = ref 0.0 in
  let hits = ref 0 and misses = ref 0 in
  let replay = ref [] in
  List.iter
    (fun (_, (c : S2fa.compiled)) ->
      let db = Resultdb.create () in
      for i = 0 to dse_seeds - 1 do
        let objective cfg =
          incr calls;
          replay := (c, cfg) :: !replay;
          let r, s, _ = Meter.timed (fun () -> S2fa.objective ~db c cfg) in
          obj := !obj +. s;
          r
        in
        let rr, s, _ =
          Meter.timed (fun () ->
              Driver.run_s2fa ~db c.S2fa.c_dspace objective (dse_rng seed i))
        in
        wall := !wall +. s;
        evals := !evals + rr.Driver.rr_evals;
        match rr.Driver.rr_cache with
        | Some sn ->
          hits := !hits + sn.Resultdb.sn_hits;
          misses := !misses + sn.Resultdb.sn_misses
        | None -> ()
      done)
    ts.ts_kernels;
  let apply_s = ref 0.0 and est_s = ref 0.0 in
  List.iter
    (fun ((c : S2fa.compiled), cfg) ->
      let prog, a, _ = Meter.timed (fun () -> S2fa.apply_design c cfg) in
      let e =
        Meter.seconds_of (fun () ->
            Estimate.estimate prog ~tasks:4096
              ~buffer_elems:c.S2fa.c_buffer_elems)
      in
      apply_s := !apply_s +. a;
      est_s := !est_s +. e)
    !replay;
  { dl_evals = !evals; dl_calls = !calls; dl_wall_s = !wall;
    dl_objective_s = !obj; dl_apply_s = !apply_s; dl_estimate_s = !est_s;
    dl_hits = !hits; dl_misses = !misses }

(* Host seconds of each S2fa.compile stage, called stage by stage. *)
type stages = {
  st_parse : float;
  st_typecheck : float;
  st_compile : float;
  st_verify : float;
  st_decompile : float;
  st_identify : float;
  st_insns : int;  (* bytecode instructions of the kernel class *)
}

let stages_once (w : Workloads.t) =
  let prog, parse, _ =
    Meter.timed (fun () -> Parser.parse_program w.Workloads.w_source)
  in
  let tprog, typecheck, _ =
    Meter.timed (fun () -> Typecheck.check_program prog)
  in
  let classes, compile, _ =
    Meter.timed (fun () -> Compile.compile_program tprog)
  in
  let cls = List.find (fun (c : Insn.cls) -> c.Insn.jaccel <> None) classes in
  let verify = Meter.seconds_of (fun () -> Verify.verify_class cls) in
  let flat, decompile, _ =
    Meter.timed (fun () ->
        let pretty, _ =
          Decompile.decompile_class ~in_caps:w.Workloads.w_in_caps
            ~out_caps:w.Workloads.w_out_caps
            ~field_caps:w.Workloads.w_field_caps cls
        in
        Decompile.flat_kernel pretty)
  in
  let identify = Meter.seconds_of (fun () -> Dspace.identify flat) in
  { st_parse = parse; st_typecheck = typecheck; st_compile = compile;
    st_verify = verify; st_decompile = decompile; st_identify = identify;
    st_insns =
      List.fold_left
        (fun a (m : Insn.methd) -> a + Array.length m.Insn.jcode)
        0 cls.Insn.jmethods }

(* Per-kernel means over [ws], each stage the median of 9 runs. *)
let stages ws =
  let reps = 9 in
  let per_kernel =
    List.map (fun w -> List.init reps (fun _ -> stages_once w)) ws
  in
  let mean f =
    Meter.sum
      (List.map (fun runs -> Meter.median (List.map f runs)) per_kernel)
    /. float_of_int (List.length ws)
  in
  { st_parse = mean (fun s -> s.st_parse);
    st_typecheck = mean (fun s -> s.st_typecheck);
    st_compile = mean (fun s -> s.st_compile);
    st_verify = mean (fun s -> s.st_verify);
    st_decompile = mean (fun s -> s.st_decompile);
    st_identify = mean (fun s -> s.st_identify);
    st_insns =
      int_of_float (Float.round (mean (fun s -> float_of_int s.st_insns))) }
