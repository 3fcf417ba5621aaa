(* The span profiler's contracts:

     - spans nest, close on exceptions, and attribute counters to the
       innermost open span;
     - the serialized span log is byte-reproducible: identical across
       repeated runs of the same seeded pipeline and across profiler
       pool sizes;
     - profiling has zero observer effect — the instrumented DSE
       produces bit-identical results with and without a profiler —
       and the two instruments ignore each other: trace bytes do not
       depend on the profiler, profile bytes not on the tracer;
     - neither a serve's per-batch estimates nor a federation's nested
       re-tuning DSE put modeled minutes under serving spans;
     - [golden/observability.md5] pins six CLI runs' traces, replays
       and profiles, and three runs' last checkpoint file;
     - the folded-stack encoding falls back to span counts when the
       whole profile has zero virtual duration;
     - the perf trajectory round-trips through BENCH_<section>.json,
       loads from any layout of the same JSON and rejects malformed
       files, and `Perf.diff` flags an injected 2x regression while
       passing an identical trajectory;
     - the Prometheus exposition of a metrics snapshot is deterministic
       and well-formed. *)

module Obs = S2fa_obs.Obs
module Perf = S2fa_obs.Perf
module Telemetry = S2fa_telemetry.Telemetry
module W = S2fa_workloads.Workloads
module S2fa = S2fa_core.S2fa
module Driver = S2fa_dse.Driver
module Space = S2fa_tuner.Space
module Rng = S2fa_util.Rng

exception Boom

(* ------------------------- profiler core -------------------------- *)

let test_nesting_and_counters () =
  let p = Obs.Profiler.create () in
  Obs.with_profiler p (fun () ->
      Obs.count "dropped.outside";
      Obs.span "outer" (fun () ->
          Obs.count "outer.k";
          Obs.span "inner" (fun () ->
              Obs.count ~by:3 "inner.k";
              Obs.count "inner.k")));
  Alcotest.(check int) "stack empty" 0 (Obs.Profiler.depth p);
  match Obs.Profiler.spans p with
  | [ inner; outer ] ->
    (* Completion order: children before parents. *)
    Alcotest.(check string) "inner name" "inner" inner.Obs.Profiler.sp_name;
    Alcotest.(check string) "outer name" "outer" outer.Obs.Profiler.sp_name;
    Alcotest.(check string) "inner path" "outer;inner"
      inner.Obs.Profiler.sp_path;
    Alcotest.(check int) "inner parent" outer.Obs.Profiler.sp_id
      inner.Obs.Profiler.sp_parent;
    Alcotest.(check (list (pair string int)))
      "inner counters" [ ("inner.k", 4) ] inner.Obs.Profiler.sp_counters;
    Alcotest.(check (list (pair string int)))
      "outer counters (outside-span count dropped)" [ ("outer.k", 1) ]
      outer.Obs.Profiler.sp_counters
  | spans ->
    Alcotest.failf "expected 2 spans, got %d" (List.length spans)

let test_exception_safety () =
  let p = Obs.Profiler.create () in
  (try
     Obs.with_profiler p (fun () ->
         Obs.span "outer" (fun () -> Obs.span "inner" (fun () -> raise Boom)))
   with Boom -> ());
  Alcotest.(check int) "stack unwound" 0 (Obs.Profiler.depth p);
  Alcotest.(check int) "both spans closed" 2
    (List.length (Obs.Profiler.spans p));
  Alcotest.(check bool) "ambient profiler restored" true
    (Obs.profiler () = None)

let test_disabled_is_passthrough () =
  Alcotest.(check bool) "disabled" false (Obs.enabled ());
  Alcotest.(check bool) "no tracer" false (Obs.tracing ());
  let r = Obs.span "nope" (fun () -> 41 + 1) in
  Alcotest.(check int) "value passes through" 42 r;
  Obs.count "nowhere";
  Obs.emit (Telemetry.Run_begin { flow = "x"; cores = 1; time_limit = 1.0 });
  Alcotest.(check int) "stage passes through" 7 (Obs.stage "parse" (fun () -> 7));
  (* The one clock keeps time whether or not an instrument listens. *)
  Obs.set_clock 99.0;
  Alcotest.(check (float 0.0)) "clock runs without instruments" 99.0
    (Obs.clock ());
  Obs.off_clock (fun () -> Obs.set_clock 5.0; Obs.advance_clock 1.0);
  Alcotest.(check (float 0.0)) "off_clock freezes it" 99.0 (Obs.clock ());
  Obs.set_clock 0.0

let test_virtual_clock_attribution () =
  let p = Obs.Profiler.create () in
  Obs.with_profiler p (fun () ->
      Obs.set_clock 10.0;
      Obs.span "work" (fun () -> Obs.advance_clock 5.0));
  match Obs.Profiler.spans p with
  | [ s ] ->
    Alcotest.(check (float 0.0)) "vbegin" 10.0 s.Obs.Profiler.sp_vbegin;
    Alcotest.(check (float 0.0)) "vend" 15.0 s.Obs.Profiler.sp_vend
  | _ -> Alcotest.fail "expected one span"

(* ------------------------- serialization -------------------------- *)

(* Compile the kernel once: loop ids are gensym'd per compile, so two
   compiles give structurally equal but differently-named configs. *)
let kmeans =
  lazy
    (let w = Option.get (W.find "KMeans") in
     (w, W.compile w))

let run_profiled_dse ?size () =
  let w, c = Lazy.force kmeans in
  let opts = { Driver.default_s2fa_opts with Driver.so_time_limit = 30.0 } in
  let p = Obs.Profiler.create ?size () in
  let result =
    Obs.with_profiler p (fun () ->
        S2fa.explore ~opts ~tasks:w.W.w_tasks c (Rng.create 7))
  in
  (result, p)

let serialize spans =
  let buf = Buffer.create 4096 in
  List.iter
    (fun s ->
      Buffer.add_string buf (Obs.span_to_json s);
      Buffer.add_char buf '\n')
    spans;
  Buffer.contents buf

let test_span_log_reproducible () =
  let _, p1 = run_profiled_dse () in
  let _, p2 = run_profiled_dse () in
  let a = serialize (Obs.Profiler.spans p1) in
  let b = serialize (Obs.Profiler.spans p2) in
  Alcotest.(check bool) "log non-empty" true (String.length a > 0);
  Alcotest.(check string) "byte-identical across runs" a b

let test_span_log_pool_size_independent () =
  let logs =
    List.map
      (fun size ->
        let _, p = run_profiled_dse ~size () in
        serialize (Obs.Profiler.spans p))
      [ 1; 16; 1024 ]
  in
  match logs with
  | [ a; b; c ] ->
    Alcotest.(check string) "size 1 = size 16" a b;
    Alcotest.(check string) "size 16 = size 1024" b c
  | _ -> assert false

let test_zero_observer_effect () =
  let w, c = Lazy.force kmeans in
  let opts = { Driver.default_s2fa_opts with Driver.so_time_limit = 30.0 } in
  let run () = S2fa.explore ~opts ~tasks:w.W.w_tasks c (Rng.create 7) in
  let plain = run () in
  let profiled, _ = run_profiled_dse () in
  Alcotest.(check int) "same evaluations" plain.Driver.rr_evals
    profiled.Driver.rr_evals;
  Alcotest.(check bool) "same clock (bit-identical)" true
    (plain.Driver.rr_minutes = profiled.Driver.rr_minutes);
  match (plain.Driver.rr_best, profiled.Driver.rr_best) with
  | Some (ca, pa), Some (cb, pb) ->
    Alcotest.(check string) "same design" (Space.key ca) (Space.key cb);
    Alcotest.(check bool) "same quality (bit-identical)" true (pa = pb)
  | None, None -> ()
  | _ -> Alcotest.fail "one run found a best, the other did not"

let test_json_roundtrip () =
  let _, p = run_profiled_dse () in
  List.iter
    (fun s ->
      match Obs.span_of_json (Obs.span_to_json s) with
      | None -> Alcotest.fail "roundtrip failed to parse"
      | Some s' ->
        (* Host fields are not serialized by default. *)
        Alcotest.(check bool) "deterministic fields survive" true
          (s' = { s with Obs.Profiler.sp_wall_ns = 0.0; sp_alloc_bytes = 0.0 }))
    (Obs.Profiler.spans p);
  (* With ~host:true the non-deterministic fields ride along. *)
  let s = List.hd (Obs.Profiler.spans p) in
  match Obs.span_of_json (Obs.span_to_json ~host:true s) with
  | Some s' -> Alcotest.(check bool) "host fields survive" true (s' = s)
  | None -> Alcotest.fail "host roundtrip failed to parse"

let test_load_file_rejects_garbage () =
  let bad = Filename.temp_file "obs" ".jsonl" in
  let oc = open_out bad in
  output_string oc "not a span\n";
  close_out oc;
  (match Obs.load_file bad with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected Failure");
  Sys.remove bad

(* ------------------------- folded stacks -------------------------- *)

let test_folded_fallback_counts () =
  (* No virtual time advances: compile-only profile. Weights fall back
     to span counts so the flamegraph still renders. *)
  let p = Obs.Profiler.create () in
  Obs.with_profiler p (fun () ->
      for _ = 1 to 3 do
        Obs.span "a" (fun () -> Obs.span "b" (fun () -> ()))
      done);
  let rows = Obs.folded (Obs.Profiler.spans p) in
  Alcotest.(check (list (pair string int)))
    "span-count weights" [ ("a", 3); ("a;b", 3) ] rows

let test_folded_self_time () =
  let p = Obs.Profiler.create () in
  Obs.with_profiler p (fun () ->
      Obs.span "a" (fun () ->
          Obs.advance_clock 1.0;
          Obs.span "b" (fun () -> Obs.advance_clock 2.0)));
  let rows = Obs.folded (Obs.Profiler.spans p) in
  (* Self micro-minutes: a = 1.0, b = 2.0. *)
  Alcotest.(check (list (pair string int)))
    "self-time weights" [ ("a", 1_000_000); ("a;b", 2_000_000) ] rows

(* ---------------------------- serving ----------------------------- *)

module Fleet = S2fa_fleet.Fleet
module Traffic = S2fa_workloads.Traffic
module Interp = S2fa_jvm.Interp

(* [serve --apps S-W:100 --devices 2] on a 1 s horizon: the arrivals
   come during the bitstream load, so most overflow to the JVM and the
   rest run accelerated once the device is up. *)
let sw_serve =
  lazy
    (let tenants = [ Traffic.tenant ~rate:100.0 (Option.get (W.find "S-W")) ] in
     (Traffic.apps ~seed:1 tenants, Traffic.requests ~seed:1 ~horizon:1.0 tenants))

(* The results (floats by their bits) and the serving JSONL. *)
let serve_bytes () =
  let apps, requests = Lazy.force sw_serve in
  let buf = Buffer.create 4096 in
  let trace = Telemetry.create ~sinks:[ Telemetry.buffer_sink buf ] () in
  let opts = { Fleet.default_opts with Fleet.o_devices = 2 } in
  let oc = Fleet.serve ~opts ~trace apps requests in
  let results =
    List.map
      (fun (r : Fleet.result) ->
        Format.asprintf "%d %d %a %h %h %b\n" r.Fleet.rs_app r.Fleet.rs_id
          Interp.pp_value r.Fleet.rs_value r.Fleet.rs_done r.Fleet.rs_latency
          r.Fleet.rs_accelerated)
      oc.Fleet.oc_results
  in
  (String.concat "" results ^ Fleet.report_to_string oc.Fleet.oc_report,
   Buffer.contents buf)

let test_serve_zero_observer_effect () =
  let plain = serve_bytes () in
  let p = Obs.Profiler.create () in
  let profiled = Obs.with_profiler p serve_bytes in
  Alcotest.(check string) "results byte-identical" (fst plain) (fst profiled);
  Alcotest.(check string) "JSONL byte-identical" (snd plain) (snd profiled)

(* Total virtual minutes per span path; fails if any path under [root]
   outlasts [root] itself. *)
let path_totals ~root p =
  let totals = Hashtbl.create 16 in
  List.iter
    (fun (s : Obs.Profiler.span) ->
      let path = s.Obs.Profiler.sp_path in
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt totals path) in
      Hashtbl.replace totals path
        (prev +. (s.Obs.Profiler.sp_vend -. s.Obs.Profiler.sp_vbegin)))
    (Obs.Profiler.spans p);
  let serve = Hashtbl.find totals root in
  Hashtbl.iter
    (fun path total ->
      if String.starts_with ~prefix:(root ^ ";") path && total > serve then
        Alcotest.failf "%s: %.4f vmin under a %.4f vmin serve" path total
          serve)
    totals;
  totals

(* A serve's virtual time is the event loop's: the modeled DSE minutes
   the per-batch estimate charges must not land in spans under it, and
   the accelerated path is attributed to its own spans. *)
let test_serve_attribution () =
  let p = Obs.Profiler.create () in
  ignore (Obs.with_profiler p serve_bytes);
  let totals = path_totals ~root:"fleet.serve" p in
  List.iter
    (fun path ->
      Alcotest.(check bool) (path ^ " recorded") true (Hashtbl.mem totals path))
    [ "fleet.serve;blaze.accelerated";
      "fleet.serve;blaze.accelerated;blaze.serde";
      "fleet.serve;blaze.accelerated;hlsc.cinterp" ]

module Fed = S2fa_federation.Federation

(* The README's re-tuning federation: S-W served untransformed across
   two regions breaches its p99 SLO and the online loop re-tunes it. *)
let retune_federation () =
  let w = Option.get (W.find "S-W") in
  let tenants = [ Traffic.tenant ~rate:50.0 w ] in
  let apps = Traffic.apps ~seed:23 tenants in
  let requests =
    Traffic.regional_requests ~seed:23 ~horizon:8.0
      [ Traffic.region "east"; Traffic.region "west" ]
      tenants
  in
  let opts =
    { Fed.default_opts with
      Fed.fd_seed = 23;
      fd_retune = Some (Fed.retune ~epoch_s:1.0 2000.0) }
  in
  Fed.serve ~opts
    ~clusters:[ Fed.cluster ~devices:2 "east"; Fed.cluster ~devices:2 "west" ]
    [ Fed.tenant ~compiled:(W.compile w) apps.(0) ]
    requests

(* A re-tuning DSE nested in a federation is billed to the offline
   clock: its spans must not stretch the serving clock, and the
   promotion after it runs at serving time. *)
let test_federate_attribution () =
  let p = Obs.Profiler.create () in
  let fo = Obs.with_profiler p (fun () -> retune_federation ()) in
  Alcotest.(check bool) "re-tuned" true (fo.Fed.fo_report.Fed.fr_retunes > 0);
  let totals = path_totals ~root:"federation.serve" p in
  Alcotest.(check bool) "re-tune DSE recorded" true
    (Hashtbl.mem totals "federation.serve;dse.s2fa")

(* ---------------------- instruments in pairs ----------------------- *)

(* Run [scenario] from virtual 0 under a tracer, a profiler or both;
   return the trace JSONL and the virtual-only span log. The scenario
   gets the tracer to hand to its run entry point. The serving
   scenarios compile inside the instruments, so the stage brackets are
   covered too; the DSE reuses one compile (loop ids are gensym'd per
   compile and appear in its configuration keys). *)
let instrumented ~trace ~profile scenario =
  Obs.set_clock 0.0;
  let buf = Buffer.create 4096 in
  let tr =
    if trace then Some (Telemetry.create ~sinks:[ Telemetry.buffer_sink buf ] ())
    else None
  in
  let p = Obs.Profiler.create () in
  let run () = Obs.with_tracer tr (fun () -> scenario tr) in
  if profile then Obs.with_profiler p run else run ();
  (Buffer.contents buf, serialize (Obs.Profiler.spans p))

let dse_scenario trace =
  let w, c = Lazy.force kmeans in
  let opts = { Driver.default_s2fa_opts with Driver.so_time_limit = 30.0 } in
  let faults =
    match S2fa_fault.Fault.parse_spec "crash=0.1,core_loss=0.05" with
    | Ok spec -> S2fa_fault.Fault.create ~seed:3 spec
    | Error m -> Alcotest.fail m
  in
  ignore
    (S2fa.explore ~opts ~tasks:w.W.w_tasks
       ~db:(S2fa_tuner.Resultdb.create ()) ?trace ~faults c (Rng.create 3))

let serve_scenario trace =
  let tenants =
    [ Traffic.tenant ~rate:400.0 ~weight:1.0 (Option.get (W.find "KMeans"));
      Traffic.tenant ~rate:300.0 ~weight:2.0 (Option.get (W.find "LR")) ]
  in
  let apps = Traffic.apps ~seed:7 tenants in
  let requests = Traffic.requests ~seed:7 ~horizon:0.5 tenants in
  let opts = { Fleet.default_opts with Fleet.o_policy = Fleet.Fair } in
  ignore (Fleet.serve ~opts ?trace apps requests)

let federate_scenario trace =
  let tenants =
    [ Traffic.tenant ~rate:300.0 ~weight:1.0 (Option.get (W.find "KMeans"));
      Traffic.tenant ~rate:200.0 ~weight:3.0 (Option.get (W.find "PR")) ]
  in
  let apps = Traffic.apps ~seed:7 tenants in
  let requests =
    Traffic.regional_requests ~seed:7 ~horizon:0.5
      [ Traffic.region "east"; Traffic.region ~scale:2.0 "west" ]
      tenants
  in
  let opts =
    { Fed.default_opts with
      Fed.fd_route = Fed.Locality;
      fd_seed = 7;
      fd_autoscale =
        Some { Fed.default_autoscale with Fed.as_max_devices = 3 } }
  in
  ignore
    (Fed.serve ~opts ?trace
       ~clusters:
         [ Fed.cluster ~devices:2 ~rtt_s:[| 0.0; 0.002 |] "east";
           Fed.cluster ~devices:2 ~rtt_s:[| 0.002; 0.0 |] "west" ]
       (Array.to_list (Array.map Fed.tenant apps))
       requests)

(* Neither instrument observes the other: the trace bytes are the same
   with and without a profiler installed, and the profile bytes the same
   with and without a tracer. *)
let test_instruments_independent () =
  List.iter
    (fun (name, scenario) ->
      let trace_only, _ = instrumented ~trace:true ~profile:false scenario in
      let _, profile_only = instrumented ~trace:false ~profile:true scenario in
      let trace_both, profile_both =
        instrumented ~trace:true ~profile:true scenario
      in
      Alcotest.(check bool) (name ^ ": trace non-empty") true (trace_only <> "");
      Alcotest.(check bool) (name ^ ": profile non-empty") true
        (profile_only <> "");
      Alcotest.(check string) (name ^ ": trace ignores the profiler")
        trace_only trace_both;
      Alcotest.(check string) (name ^ ": profile ignores the tracer")
        profile_only profile_both)
    [ ("dse", dse_scenario);
      ("serve", serve_scenario);
      ("federate", federate_scenario) ]

(* ------------------- trace and profile golden --------------------- *)

(* [test/golden/observability.md5] pins, per CLI run, the bytes of its
   stdout (minus the lines naming the output files), its JSONL trace,
   that trace's [s2fa trace] replay and its virtual-only span profile.
   Each run is a fresh process with both instruments on. *)
let cli =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/s2fa_cli.exe"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let sh fmt =
  Printf.ksprintf
    (fun cmd ->
      let code = Sys.command cmd in
      if code <> 0 then Alcotest.failf "exit %d: %s" code cmd)
    fmt

let traced_run args =
  let tmp ext = Filename.temp_file "s2fa_obs" ext in
  let out = tmp ".out" and trace = tmp ".jsonl" and prof = tmp ".prof" in
  let replay = tmp ".replay" in
  sh "S2FA_PROFILE_HOST=0 S2FA_LOGS= %s %s --trace %s --profile %s > %s" cli
    args (Filename.quote trace) (Filename.quote prof) (Filename.quote out);
  sh "%s trace %s > %s" cli (Filename.quote trace) (Filename.quote replay);
  let stdout =
    String.split_on_char '\n' (read_file out)
    |> List.filter (fun l ->
           not
             (String.starts_with ~prefix:"# trace" l
             || String.starts_with ~prefix:"# profile" l))
    |> String.concat "\n"
  in
  let parts =
    [ ("stdout", stdout);
      ("trace", read_file trace);
      ("replay", read_file replay);
      ("profile", read_file prof) ]
  in
  List.iter Sys.remove [ out; trace; prof; prof ^ ".folded"; replay ];
  parts

let golden_runs =
  [ ("obs/dse-kmeans-s2fa", "dse -w KMeans --seed 3 --minutes 60");
    ("obs/dse-kmeans-vanilla", "dse -w KMeans --mode vanilla --seed 3 --minutes 60");
    ( "obs/dse-sw-faulted-shared-db",
      "dse -w S-W --seed 3 --minutes 60 --shared-db \
       --faults crash=0.1,hang=0.05,core_loss=0.05" );
    ( "obs/serve-two-app",
      "serve --apps KMeans:400:1,LR:300:2 --policy fair --horizon 0.5 --seed 7" );
    ( "obs/federate-two-cluster",
      "federate --apps KMeans:300:1,PR:200:3 --clusters east:2,west:2:2 \
       --regions east,west:2 --route locality --rtt-ms 2 --horizon 0.5 \
       --seed 7 --autoscale --scale-max 3" );
    ( "obs/federate-retune",
      "federate --apps S-W:50 --clusters east:2,west:2 --regions east,west \
       --horizon 8 --seed 23 --retune-slo-ms 2000 --retune-epoch-s 1" ) ]

let test_observability_golden () =
  Golden.check ~golden:"observability.md5" ~prefix:"obs/"
    (List.map (fun (case, args) -> (case, traced_run args)) golden_runs)

(* The same golden pins the bytes of the last checkpoint each run
   writes. Resume only compares regenerated lines with lines the same
   build stored, so without these a change to the checkpoint encoding
   would go unnoticed. *)
let checkpoint_runs =
  [ ( "ck/dse-kmeans-faulted",
      "dse -w KMeans --minutes 40 --seed 3 --faults crash=0.1,hang=0.05 \
       --ck-every 10" );
    ( "ck/dse-kmeans-faulted-shared-db",
      "dse -w KMeans --minutes 40 --seed 3 --shared-db \
       --faults crash=0.1,hang=0.05 --ck-every 10" );
    ( "ck/serve-slo-faulted",
      "serve --apps KMeans:400:1,LR:300:2 --policy fair --horizon 0.5 \
       --seed 7 --slo-ms 30000 --hang-factor 3 --hedge --breaker \
       --faults hang=0.2,core_loss=0.05 --ck-every-s 2" ) ]

let checkpoint_run args =
  let ck = Filename.temp_file "s2fa_obs" ".ck.jsonl" in
  sh "S2FA_LOGS= %s %s --checkpoint %s > /dev/null" cli args
    (Filename.quote ck);
  let bytes = read_file ck in
  Sys.remove ck;
  [ ("checkpoint", bytes) ]

let test_checkpoint_golden () =
  Golden.check ~golden:"observability.md5" ~prefix:"ck/"
    (List.map (fun (case, args) -> (case, checkpoint_run args))
       checkpoint_runs)

(* ----------------------- perf trajectories ------------------------ *)

let traj results =
  { Perf.p_bench = "t"; p_unit = "ns/run"; p_results = results }

let test_perf_roundtrip () =
  let path = Filename.temp_file "perf" ".json" in
  let t = traj [ ("b.two", 2e9); ("a.one", 123.0) ] in
  Perf.save path t;
  let t' = Perf.load path in
  Sys.remove path;
  Alcotest.(check string) "bench" "t" t'.Perf.p_bench;
  Alcotest.(check string) "unit" "ns/run" t'.Perf.p_unit;
  Alcotest.(check (list (pair string (float 0.0))))
    "results sorted" [ ("a.one", 123.0); ("b.two", 2e9) ] t'.Perf.p_results

(* [Perf.load] reads through the shared JSON codec: any layout of the
   same object loads (CRLF line ends, no blanks), anything else is a
   [Failure] naming the file. *)
let test_perf_load_layouts () =
  let load text =
    let path = Filename.temp_file "perf" ".json" in
    Out_channel.with_open_bin path (fun oc -> output_string oc text);
    Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> Perf.load path)
  in
  let t =
    load
      "{\r\n\"results\":{\"b\":2,\r\n\"a\":1e3},\"unit\":\"ns/run\",\
       \"bench\":\"t\"}\r\n"
  in
  Alcotest.(check (list (pair string (float 0.0))))
    "CRLF layout" [ ("a", 1e3); ("b", 2.0) ] t.Perf.p_results;
  List.iter
    (fun text ->
      match load text with
      | _ -> Alcotest.failf "accepted %S" text
      | exception Failure _ -> ())
    [ "{\"bench\":\"t\",\"unit\":\"u\",\"results\":{}}x";
      "{\"bench\":\"t\",\"unit\":\"u\",\"results\":{\"a\":\"1\"}}";
      "{\"bench\":\"t\",\"unit\":\"u\"}";
      "" ]

let test_perf_diff_flags_regression () =
  let old_t = traj [ ("a", 100.0); ("b", 100.0) ] in
  let new_t = traj [ ("a", 200.0); ("b", 101.0) ] in
  let d = Perf.diff ~threshold:10.0 old_t new_t in
  (match d.Perf.d_regressions with
  | [ c ] ->
    Alcotest.(check string) "the 2x key" "a" c.Perf.c_name;
    Alcotest.(check (float 1e-9)) "+100%" 100.0 c.Perf.c_pct
  | _ -> Alcotest.fail "expected exactly one regression");
  Alcotest.(check int) "b is within threshold" 1 d.Perf.d_within

let test_perf_diff_passes_identical () =
  let t = traj [ ("a", 100.0); ("b", 2e9) ] in
  let d = Perf.diff ~threshold:10.0 t t in
  Alcotest.(check int) "no regressions" 0 (List.length d.Perf.d_regressions);
  Alcotest.(check int) "no improvements" 0
    (List.length d.Perf.d_improvements);
  Alcotest.(check int) "all within" 2 d.Perf.d_within

let test_perf_diff_improvement_and_churn () =
  let old_t = traj [ ("a", 100.0); ("gone", 5.0) ] in
  let new_t = traj [ ("a", 50.0); ("fresh", 7.0) ] in
  let d = Perf.diff ~threshold:10.0 old_t new_t in
  Alcotest.(check int) "no regressions" 0 (List.length d.Perf.d_regressions);
  (match d.Perf.d_improvements with
  | [ c ] -> Alcotest.(check (float 1e-9)) "-50%" (-50.0) c.Perf.c_pct
  | _ -> Alcotest.fail "expected one improvement");
  Alcotest.(check (list string)) "removed keys" [ "gone" ] d.Perf.d_only_old;
  Alcotest.(check (list string)) "added keys" [ "fresh" ] d.Perf.d_only_new

(* -------------------------- prometheus ---------------------------- *)

let test_prometheus_exposition () =
  let m = Telemetry.Metrics.create () in
  Telemetry.Metrics.incr ~by:3 m "evals.total";
  Telemetry.Metrics.set_gauge m "best quality" 0.5;
  Telemetry.Metrics.observe ~buckets:[| 1.0; 10.0 |] m "lat" 0.5;
  Telemetry.Metrics.observe m "lat" 5.0;
  let snap = Telemetry.Metrics.snapshot m in
  let a = Obs.prometheus_of_snapshot snap in
  let b = Obs.prometheus_of_snapshot snap in
  Alcotest.(check string) "deterministic" a b;
  let has needle =
    Alcotest.(check bool) ("has " ^ needle) true
      (let hl = String.length a and nl = String.length needle in
       let rec go i =
         i + nl <= hl && (String.sub a i nl = needle || go (i + 1))
       in
       go 0)
  in
  has "# TYPE s2fa_evals_total counter";
  has "s2fa_evals_total 3";
  has "# TYPE s2fa_best_quality gauge";
  has "# TYPE s2fa_lat histogram";
  has "s2fa_lat_bucket{le=\"1\"} 1";
  has "s2fa_lat_bucket{le=\"10\"} 2";
  has "s2fa_lat_bucket{le=\"+Inf\"} 2";
  has "s2fa_lat_sum 5.5";
  has "s2fa_lat_count 2"

let () =
  Alcotest.run "obs"
    [ ( "profiler",
        [ Alcotest.test_case "nesting + counters" `Quick
            test_nesting_and_counters;
          Alcotest.test_case "exception safety" `Quick test_exception_safety;
          Alcotest.test_case "disabled passthrough" `Quick
            test_disabled_is_passthrough;
          Alcotest.test_case "virtual-clock attribution" `Quick
            test_virtual_clock_attribution ] );
      ( "determinism",
        [ Alcotest.test_case "span log byte-reproducible" `Quick
            test_span_log_reproducible;
          Alcotest.test_case "pool-size independent" `Quick
            test_span_log_pool_size_independent;
          Alcotest.test_case "zero observer effect" `Quick
            test_zero_observer_effect;
          Alcotest.test_case "serve: zero observer effect" `Quick
            test_serve_zero_observer_effect;
          Alcotest.test_case "serve: no phantom DSE minutes" `Quick
            test_serve_attribution;
          Alcotest.test_case "federate: no phantom DSE minutes" `Quick
            test_federate_attribution;
          Alcotest.test_case "tracer and profiler independent" `Quick
            test_instruments_independent;
          Alcotest.test_case "trace + profile golden" `Quick
            test_observability_golden;
          Alcotest.test_case "checkpoint golden" `Quick
            test_checkpoint_golden ] );
      ( "serialization",
        [ Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "load_file rejects garbage" `Quick
            test_load_file_rejects_garbage;
          Alcotest.test_case "folded fallback to counts" `Quick
            test_folded_fallback_counts;
          Alcotest.test_case "folded self time" `Quick test_folded_self_time ]
      );
      ( "perf",
        [ Alcotest.test_case "save/load roundtrip" `Quick test_perf_roundtrip;
          Alcotest.test_case "load: layouts and rejects" `Quick
            test_perf_load_layouts;
          Alcotest.test_case "diff flags 2x regression" `Quick
            test_perf_diff_flags_regression;
          Alcotest.test_case "diff passes identical" `Quick
            test_perf_diff_passes_identical;
          Alcotest.test_case "diff improvements + churn" `Quick
            test_perf_diff_improvement_and_churn ] );
      ( "prometheus",
        [ Alcotest.test_case "text exposition" `Quick
            test_prometheus_exposition ] ) ]
