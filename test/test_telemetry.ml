(* Telemetry tests: the determinism contract (traced runs are
   bit-reproducible and tracing has zero observer effect), exact JSON
   round-trips of one event of every kind against a committed golden,
   the shared JSON reader's strictness and a random round-trip
   property, the logs rendering following the event table, the
   trace-replay analyzer agreeing with the driver's own accounting,
   and the checkpoint envelope's guards for both checkpoint kinds. *)
module Rng = S2fa_util.Rng
module Space = S2fa_tuner.Space
module Driver = S2fa_dse.Driver
module T = S2fa_telemetry.Telemetry
module Trace = S2fa_telemetry.Trace
module W = S2fa_workloads.Workloads
module S2fa = S2fa_core.S2fa
module Envelope = S2fa_telemetry.Envelope
module Fleet = S2fa_fleet.Fleet
module Traffic = S2fa_workloads.Traffic
module Obs = S2fa_obs.Obs

let kmeans = lazy (W.compile (Option.get (W.find "KMeans")))

let quick_opts =
  { Driver.default_s2fa_opts with
    Driver.so_time_limit = 30.0;
    so_samples = 24 }

(* ---------- event vocabulary & serialization ---------- *)

let sample_events =
  (* One of every kind, with awkward floats on purpose. *)
  [ T.Run_begin { flow = "s2fa"; cores = 8; time_limit = 240.0 };
    T.Span_begin "parse";
    T.Span_end "parse";
    T.Eval_start { cfg_key = "a=1;b=\"x\""; partition = 0; technique = "ga" };
    T.Eval_done
      { cfg_key = "a=1";
        quality = 0.1 +. 0.2 (* not representable exactly: 0.30000000000000004 *);
        feasible = true;
        eval_minutes = 12.5;
        cache_hit = false;
        partition = 3;
        technique = "DifferentialEvolution";
        improved = true };
    T.Eval_done
      { cfg_key = "a=2";
        quality = infinity;
        feasible = false;
        eval_minutes = 1.0;
        cache_hit = true;
        partition = -1;
        technique = "";
        improved = false };
    T.Bandit_select
      { arm = 2; technique = "pso"; scores = [| 0.5; nan; infinity |] };
    T.Partition_start
      { partition = 1; core = 4; constrs = "par_L1<=16 & pipe_L2 in {on,off}";
        points = 1.23456789012345e+15 };
    T.Partition_stop
      { partition = 1; core = 4; reason = T.Stop_entropy; evals = 17 };
    T.Entropy_sample { partition = 1; evaluated = 9; entropy = 1.9219280948 };
    T.Seed_injected { cfg_key = "a=3"; partition = 2 };
    T.Serve_enqueue { app = "KMeans"; request = 41; queue_len = 7 };
    T.Serve_batch
      { app = "K\"Means"; device = 1; size = 16;
        service_minutes = 0.1 +. 0.2 };
    T.Serve_reconfig
      { device = 0; from_app = ""; to_app = "LR"; minutes = 0.05 };
    T.Serve_fallback { app = "LR"; request = 99; reason = "overflow" };
    T.Serve_complete
      { app = "LR"; request = 99; latency_minutes = 1.25e-7;
        accelerated = false };
    T.Fault_injected
      { cfg_key = "tab\there\\back\001ctl"; partition = 2; failure = "crash";
        lost_minutes = 6.8; attempt = 0 };
    T.Eval_retry
      { cfg_key = "a=4"; partition = 2; attempt = 1; backoff_minutes = -0.0 };
    T.Quarantined
      { cfg_key = "a=5\nb=6"; partition = 0; attempts = 4;
        lost_minutes = 5e-324 };
    T.Core_lost { core = 3; partition = -1 };
    T.Failover { partition = 5; from_core = 3; to_core = 0 };
    T.Checkpoint_written
      { path = "/tmp/k.ck.jsonl"; minutes = 1e300; evals = 123456789012 };
    T.Serve_shed
      { app = "KMeans"; request = 7; stage = "dispatch";
        deadline_minutes = 0.5; estimate_minutes = neg_infinity };
    T.Serve_timeout
      { app = "LR"; device = 2; size = 3; waited_minutes = 2.0 /. 3.0 };
    T.Serve_hedge { app = "LR"; from_device = 2; to_device = 1; size = 3 };
    T.Serve_breaker
      { device = 1; from_state = "healthy"; to_state = "half_open" };
    T.Serve_deadline
      { app = "KMeans"; request = 7; met = false; slack_minutes = -1e-3 };
    T.Fed_route
      { app = "PR"; request = 12; region = 1; cluster = "west";
        rtt_minutes = 2.0 /. 60000.0 };
    T.Fed_autoscale
      { cluster = "east"; action = "lease"; devices = 3; queue_len = 48 };
    T.Fed_retune
      { app = "S-W"; epoch = 4; p99_minutes = 0.05; slo_minutes = 1.0 /. 30.0;
        tune_minutes = 12.75; evals = 30 };
    T.Fed_promote { app = "S-W"; epoch = 4; cfg = "par_L1=16;pipe_L1=on" };
    T.Run_end { minutes = 239.5; evals = 512; best = 6.5e-4 } ]
  |> List.mapi (fun i kind ->
         { T.e_seq = i; e_minutes = float_of_int i *. 0.5; e_kind = kind })

(* Exhaustive on purpose: a new kind does not compile until it gets a
   rank here, and [test_samples_cover_every_kind] then needs a sample
   of it. *)
let kind_rank = function
  | T.Run_begin _ -> 0 | T.Run_end _ -> 1 | T.Span_begin _ -> 2
  | T.Span_end _ -> 3 | T.Eval_start _ -> 4 | T.Eval_done _ -> 5
  | T.Bandit_select _ -> 6 | T.Partition_start _ -> 7
  | T.Partition_stop _ -> 8 | T.Entropy_sample _ -> 9
  | T.Seed_injected _ -> 10 | T.Fault_injected _ -> 11
  | T.Eval_retry _ -> 12 | T.Quarantined _ -> 13 | T.Core_lost _ -> 14
  | T.Failover _ -> 15 | T.Checkpoint_written _ -> 16
  | T.Serve_enqueue _ -> 17 | T.Serve_batch _ -> 18
  | T.Serve_reconfig _ -> 19 | T.Serve_fallback _ -> 20
  | T.Serve_complete _ -> 21 | T.Serve_shed _ -> 22
  | T.Serve_timeout _ -> 23 | T.Serve_hedge _ -> 24
  | T.Serve_breaker _ -> 25 | T.Serve_deadline _ -> 26
  | T.Fed_route _ -> 27 | T.Fed_autoscale _ -> 28 | T.Fed_retune _ -> 29
  | T.Fed_promote _ -> 30

let n_kinds = 31

let test_samples_cover_every_kind () =
  let seen = List.sort_uniq compare
      (List.map (fun ev -> kind_rank ev.T.e_kind) sample_events) in
  Alcotest.(check (list int)) "one sample of every kind"
    (List.init n_kinds Fun.id) seen

(* [golden/events.jsonl] holds one encoded line per sample: encoding
   must reproduce it byte for byte and decoding it must give the
   samples back. *)
let test_events_golden () =
  let lines = List.map T.json_of_event sample_events in
  Golden.check_text ~golden:"events.jsonl"
    (String.concat "" (List.map (fun l -> l ^ "\n") lines));
  let stored =
    In_channel.with_open_bin (Golden.file "events.jsonl") In_channel.input_lines
  in
  Alcotest.(check int) "one line per sample" (List.length sample_events)
    (List.length stored);
  List.iter2
    (fun line ev ->
      if compare (T.event_of_json line) (Some ev) <> 0 then
        Alcotest.failf "golden line does not decode to its sample: %s" line)
    stored sample_events

let test_json_roundtrip () =
  List.iter
    (fun ev ->
      let line = T.json_of_event ev in
      match T.event_of_json line with
      | None -> Alcotest.failf "unparsable: %s" line
      | Some ev' ->
        (* Structural equality via compare covers nan (compare nan nan = 0)
           and distinguishes every payload field bit for bit. *)
        if compare ev ev' <> 0 then
          Alcotest.failf "round-trip changed the event: %s" line)
    sample_events

(* The logs rendering walks the same table as the encoding: one line
   per event, the JSON tag, then every JSON key in order as [key=]. *)
let test_pp_event_follows_table () =
  List.iter
    (fun ev ->
      let text = Format.asprintf "%a" T.pp_event ev in
      let fields = T.Json.parse_obj (T.json_of_event ev) in
      let prefix =
        Printf.sprintf "[%6d] %8.1fm %s" ev.T.e_seq ev.T.e_minutes
          (T.Json.get_str fields "ev")
      in
      if not (String.starts_with ~prefix text) then
        Alcotest.failf "%S does not start with %S" text prefix;
      if String.contains text '\n' then Alcotest.failf "%S spans lines" text;
      let find_from i needle =
        let n = String.length needle in
        let rec go i =
          if i + n > String.length text then
            Alcotest.failf "%S lacks %S in order" text needle
          else if String.sub text i n = needle then i + n
          else go (i + 1)
        in
        go i
      in
      ignore
        (List.fold_left
           (fun i (k, _) ->
             if List.mem k [ "seq"; "min"; "ev" ] then i
             else find_from i (" " ^ k ^ "="))
           (String.length prefix) fields))
    sample_events

let test_json_rejects_malformed () =
  List.iter
    (fun line ->
      Alcotest.(check bool) ("rejects " ^ line) true
        (T.event_of_json line = None))
    [ ""; "{"; "{}"; "{\"seq\":0}"; "{\"seq\":0,\"min\":1,\"ev\":\"nope\"}" ]

(* The shared reader's strictness, one row per input it must refuse by
   raising [Json.Bad] and nothing else. *)
let test_json_reader_strict () =
  let module J = T.Json in
  let obj s () = ignore (J.parse_obj s) in
  let field get s () = ignore (get (J.parse_obj s) "n") in
  let envelope lines () =
    match Envelope.of_lines lines with
    | Ok _ -> ()
    | Error _ -> raise J.Bad
  in
  let rows =
    [ ("trailing bytes", obj "{\"a\":1}xyz");
      ("a second object", obj "{\"a\":1}{\"b\":2}");
      ("bad number 1-2", obj "{\"a\":1-2}");
      ("bad number 1e", obj "{\"a\":1e}");
      ("bad number +1", obj "{\"a\":+1}");
      ("bad number 1.", obj "{\"a\":1.}");
      ("bad \\u escape", obj "{\"a\":\"\\uZZZZ\"}");
      ("numeric string in an array", obj "{\"a\":[\"12\"]}");
      ("get_int of 1.5", field J.get_int "{\"n\":1.5}");
      ("get_int of inf", field J.get_int "{\"n\":\"inf\"}");
      ("get_int of -inf", field J.get_int "{\"n\":\"-inf\"}");
      ("get_int of nan", field J.get_int "{\"n\":\"nan\"}");
      ("get_int of 1e300", field J.get_int "{\"n\":1e300}");
      ("get_float of \"12\"", field J.get_float "{\"n\":\"12\"}");
      ("get_float of \"Infinity\"", field J.get_float "{\"n\":\"Infinity\"}");
      ( "fractional envelope count",
        envelope [ "{\"ck\":\"header\"}"; "{\"ck\":\"end\",\"lines\":1.9}" ] ) ]
  in
  let wrong =
    List.filter_map
      (fun (what, f) ->
        match f () with
        | () -> Some (what ^ ": accepted")
        | exception J.Bad -> None
        | exception e -> Some (what ^ ": raised " ^ Printexc.to_string e))
      rows
  in
  Alcotest.(check (list string)) "rows not refused with Bad" [] wrong

(* Random values through the codec and back: nested objects, strings of
   arbitrary bytes (quotes, backslashes, control characters), nan, ±inf,
   -0.0 and subnormals, and the same object re-rendered with random
   multi-line whitespace between its tokens. Floats must come back bit
   for bit, so -0.0 is checked on its bits, not with [compare]. A
   non-finite field value is written as a quoted string and so reads
   back as [Jstr] ([get_float] takes it); inside an array it reads back
   as a float. *)
let json_roundtrip_prop =
  let module J = T.Json in
  let open QCheck.Gen in
  let gen_float =
    oneof
      [ float;
        oneofl
          [ nan; infinity; neg_infinity; -0.0; 0.0; 5e-324; -5e-324;
            2.2250738585072009e-308; max_float; 1e17; 0.1 +. 0.2 ] ]
  in
  let gen_string =
    oneof
      [ string_size ~gen:char (int_bound 8);
        oneofl [ ""; "\""; "\\"; "\\\""; "a\nb\r\tc"; "\001\031\127"; "inf" ] ]
  in
  let gen_v =
    sized_size (int_bound 3)
    @@ fix (fun self n ->
           let atom =
             oneof
               [ map (fun s -> J.Jstr s) gen_string;
                 map (fun f -> J.Jnum f) gen_float;
                 map (fun b -> J.Jbool b) bool;
                 map (fun l -> J.Jarr l) (list_size (int_bound 4) gen_float) ]
           in
           if n = 0 then atom
           else
             frequency
               [ (3, atom);
                 ( 1,
                   map (fun fs -> J.Jobj fs)
                     (list_size (int_bound 4) (pair gen_string (self (n - 1)))) ) ])
  in
  let gen_fields = list_size (int_bound 5) (pair gen_string gen_v) in
  let blank = oneofl [ ""; " "; "\t"; "\n"; "\r\n"; " \n\t " ] in
  let same_float x y =
    (Float.is_nan x && Float.is_nan y)
    || Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  in
  let rec same a b =
    match (a, b) with
    | J.Jnum x, J.Jnum y -> same_float x y
    | J.Jarr xs, J.Jarr ys ->
      List.length xs = List.length ys && List.for_all2 same_float xs ys
    | J.Jobj xs, J.Jobj ys -> same_fields xs ys
    | a, b -> compare a b = 0
  and same_fields xs ys =
    List.length xs = List.length ys
    && List.for_all2 (fun (k, a) (k', b) -> k = k' && same a b) xs ys
  in
  let rec canon = function
    | J.Jnum f when not (Float.is_finite f) ->
      J.Jstr (String.sub (J.fstr f) 1 (String.length (J.fstr f) - 2))
    | J.Jobj fs -> J.Jobj (List.map (fun (k, v) -> (k, canon v)) fs)
    | v -> v
  in
  (* The whitespace layout is drawn from [seed], one blank per gap. *)
  let spaced seed fields =
    let st = Random.State.make [| seed |] in
    let ws () = generate1 ~rand:st blank in
    let rec value = function
      | J.Jstr s -> J.quote s
      | J.Jnum f -> J.fstr f
      | J.Jint i -> string_of_int i
      | J.Jbool b -> string_of_bool b
      | J.Jarr l ->
        "[" ^ ws () ^ String.concat (ws () ^ "," ^ ws ()) (List.map J.fstr l)
        ^ ws () ^ "]"
      | J.Jobj fs ->
        "{" ^ ws ()
        ^ String.concat ("," ^ ws ())
            (List.map
               (fun (k, v) -> J.quote k ^ ws () ^ ":" ^ ws () ^ value v ^ ws ())
               fs)
        ^ "}"
    in
    ws () ^ value (J.Jobj fields) ^ ws ()
  in
  let print (fields, seed, i) =
    Printf.sprintf "%s (seed %d, int %d)" (J.obj fields) seed i
  in
  QCheck.Test.make ~name:"json codec round-trips random values" ~count:500
    (QCheck.make ~print (triple gen_fields int int))
    (fun (fields, seed, i) ->
      let want = List.map (fun (k, v) -> (k, canon v)) fields in
      let back s =
        let got = J.parse_obj s in
        compare got want = 0 && same_fields got want
      in
      let i = i asr 9 (* within 2^53, where [get_int] reads exactly *) in
      let int_line = J.obj [ ("n", J.Jint i) ] in
      back (J.obj fields)
      && back (spaced seed fields)
      && int_line = "{\"n\":" ^ string_of_int i ^ "}"
      && J.get_int (J.parse_obj int_line) "n" = i)

let test_stage_and_reason_names () =
  (* Stage brackets carry the stage name as a string; the JSON key stays
     ["stage"]. *)
  List.iter
    (fun s ->
      let ev = { T.e_seq = 0; e_minutes = 0.0; e_kind = T.Span_end s } in
      let line = T.json_of_event ev in
      Alcotest.(check bool) (s ^ " keyed as stage") true
        (let needle = Printf.sprintf "\"stage\":\"%s\"" s in
         let n = String.length needle in
         let rec go i =
           i + n <= String.length line
           && (String.sub line i n = needle || go (i + 1))
         in
         go 0);
      Alcotest.(check bool) (s ^ " round-trips") true
        (T.event_of_json line = Some ev))
    [ "parse"; "typecheck"; "bytecode"; "decompile"; "transform"; "estimate" ];
  List.iter
    (fun r ->
      Alcotest.(check bool) (T.stop_reason_name r) true
        (T.stop_reason_of_name (T.stop_reason_name r) = Some r))
    [ T.Stop_time; T.Stop_exhausted; T.Stop_entropy; T.Stop_trivial ]

(* ---------- tracer & sinks ---------- *)

let test_tracer_sequencing () =
  let sink, got = T.collector () in
  let tr = T.create ~sinks:[ sink ] () in
  T.emit tr ~minutes:3.5 (T.Span_begin "parse");
  T.emit tr ~minutes:3.5 (T.Span_end "parse");
  Alcotest.(check int) "emitted" 2 (T.emitted tr);
  match got () with
  | [ a; b ] ->
    Alcotest.(check int) "seq 0" 0 a.T.e_seq;
    Alcotest.(check int) "seq 1" 1 b.T.e_seq;
    Alcotest.(check (float 0.0)) "virtual stamp" 3.5 a.T.e_minutes
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs)

let test_collector_capacity () =
  let sink, got = T.collector ~capacity:3 () in
  let tr = T.create ~sinks:[ sink ] () in
  for _ = 1 to 10 do
    T.emit tr ~minutes:0.0 (T.Span_begin "parse")
  done;
  let evs = got () in
  Alcotest.(check int) "ring keeps 3" 3 (List.length evs);
  Alcotest.(check int) "most recent survive" 7 (List.hd evs).T.e_seq

let test_metrics_registry () =
  let m = T.Metrics.create () in
  T.Metrics.incr m "a";
  T.Metrics.incr ~by:4 m "a";
  T.Metrics.incr m "b";
  T.Metrics.set_gauge m "g" 2.5;
  T.Metrics.observe ~buckets:[| 1.0; 10.0 |] m "h" 0.5;
  T.Metrics.observe m "h" 5.0;
  T.Metrics.observe m "h" 100.0;
  let s = T.Metrics.snapshot m in
  Alcotest.(check int) "counter a" 5 (T.Metrics.counter s "a");
  Alcotest.(check int) "counter b" 1 (T.Metrics.counter s "b");
  Alcotest.(check int) "absent counter" 0 (T.Metrics.counter s "zzz");
  Alcotest.(check (list string)) "counters sorted" [ "a"; "b" ]
    (List.map fst s.T.Metrics.ms_counters);
  match s.T.Metrics.ms_histograms with
  | [ ("h", h) ] ->
    Alcotest.(check int) "observations" 3 h.T.Metrics.h_count;
    Alcotest.(check (float 1e-9)) "sum" 105.5 h.T.Metrics.h_sum;
    (* 0.5 -> bucket <=1, 5.0 -> bucket <=10, 100.0 -> overflow *)
    Alcotest.(check (list int)) "bucket counts" [ 1; 1; 1 ]
      (Array.to_list h.T.Metrics.h_counts)
  | _ -> Alcotest.fail "expected one histogram"

let test_logs_sink_silent_by_default () =
  (* Without a reporter the logs sink must be inert: no output, no
     exception, and the events still reach other sinks untouched. *)
  let sink, got = T.collector () in
  let tr = T.create ~sinks:[ T.logs_sink (); sink ] () in
  T.emit tr ~minutes:0.0
    (T.Run_begin { flow = "x"; cores = 1; time_limit = 1.0 });
  T.flush tr;
  Alcotest.(check int) "event fanned out" 1 (List.length (got ()))

(* A stage that raises still closes its bracket: compiling a source
   that parses but does not type-check leaves a balanced trace ending
   in [span_end typecheck]. *)
let test_failing_stage_closes () =
  let sink, got = T.collector () in
  let tr = T.create ~sinks:[ sink ] () in
  (match
     Obs.with_tracer (Some tr) (fun () ->
         S2fa.compile "class C() { def f(x: Int): Int = y }")
   with
  | _ -> Alcotest.fail "an ill-typed source compiled"
  | exception S2fa.Error _ -> ());
  let stages =
    List.filter_map
      (fun e ->
        match e.T.e_kind with
        | T.Span_begin s -> Some ("+" ^ s)
        | T.Span_end s -> Some ("-" ^ s)
        | _ -> None)
      (got ())
  in
  Alcotest.(check (list string)) "balanced brackets"
    [ "+parse"; "-parse"; "+typecheck"; "-typecheck" ] stages;
  Alcotest.(check bool) "tracer uninstalled" false (Obs.tracing ())

(* ---------- determinism & zero observer effect ---------- *)

let traced_run seed =
  let c = Lazy.force kmeans in
  let buf = Buffer.create 4096 in
  let tr = T.create ~sinks:[ T.buffer_sink buf ] () in
  let r = S2fa.explore ~opts:quick_opts ~trace:tr c (Rng.create seed) in
  (r, Buffer.contents buf)

let test_trace_bit_reproducible () =
  let _, j1 = traced_run 11 in
  let _, j2 = traced_run 11 in
  Alcotest.(check bool) "non-empty JSONL" true (String.length j1 > 0);
  Alcotest.(check string) "byte-identical JSONL under one seed" j1 j2

let test_zero_observer_effect () =
  let c = Lazy.force kmeans in
  let plain = S2fa.explore ~opts:quick_opts c (Rng.create 12) in
  let traced, _ = traced_run 12 in
  Alcotest.(check int) "same evals" plain.Driver.rr_evals
    traced.Driver.rr_evals;
  Alcotest.(check bool) "same virtual minutes (bit-identical)" true
    (compare plain.Driver.rr_minutes traced.Driver.rr_minutes = 0);
  match (plain.Driver.rr_best, traced.Driver.rr_best) with
  | Some (c1, p1), Some (c2, p2) ->
    Alcotest.(check string) "same best design" (Space.key c1) (Space.key c2);
    Alcotest.(check bool) "same best quality (bit-identical)" true
      (compare p1 p2 = 0)
  | None, None -> ()
  | _ -> Alcotest.fail "traced and untraced disagree on feasibility"

(* ---------- replay ---------- *)

let replayed seed =
  let c = Lazy.force kmeans in
  let sink, got = T.collector () in
  let tr = T.create ~sinks:[ sink ] () in
  let r = S2fa.explore ~opts:quick_opts ~trace:tr c (Rng.create seed) in
  (r, Trace.of_events (got ()))

let test_replay_curve_exact () =
  let r, t = replayed 13 in
  let drv = Driver.best_curve r in
  let rep = Trace.best_curve t in
  Alcotest.(check int) "same curve length" (List.length drv) (List.length rep);
  (* compare = 0 asserts bit-identical floats, not approximate ones. *)
  Alcotest.(check bool) "bit-identical best-so-far curve" true
    (compare drv rep = 0)

let test_replay_summary_matches_run () =
  let r, t = replayed 14 in
  let rp = Trace.replay t in
  Alcotest.(check string) "flow" "s2fa" rp.Trace.rp_flow;
  Alcotest.(check int) "search evals" r.Driver.rr_evals rp.Trace.rp_evals;
  Alcotest.(check int) "offline probes = so_samples"
    quick_opts.Driver.so_samples rp.Trace.rp_offline;
  Alcotest.(check bool) "run end stamped (bit-identical)" true
    (compare r.Driver.rr_minutes rp.Trace.rp_minutes = 0);
  (match r.Driver.rr_best with
  | Some (_, p) ->
    Alcotest.(check bool) "best quality (bit-identical)" true
      (compare p rp.Trace.rp_best = 0)
  | None -> Alcotest.(check bool) "no best" true (rp.Trace.rp_best = infinity));
  Alcotest.(check bool) "every partition started stopped" true
    (rp.Trace.rp_occupancy <> []);
  List.iter
    (fun (o : Trace.occ_row) ->
      Alcotest.(check bool) "occupancy interval ordered" true
        (o.Trace.oc_start <= o.Trace.oc_stop))
    rp.Trace.rp_occupancy

let test_replay_via_jsonl_file () =
  (* The full pipeline users run: dse --trace writes JSONL, s2fa trace
     parses it back. Parsing must lose nothing the analyzer needs. *)
  let r, jsonl = traced_run 15 in
  let path = Filename.temp_file "s2fa_trace" ".jsonl" in
  let oc = open_out path in
  output_string oc jsonl;
  close_out oc;
  let t =
    match Trace.load path with
    | Ok t -> t
    | Error m -> Alcotest.failf "load failed: %s" m
  in
  Sys.remove path;
  Alcotest.(check bool) "curve from disk bit-identical" true
    (compare (Driver.best_curve r) (Trace.best_curve t) = 0)

let test_parse_lines_reports_bad_line () =
  match Trace.parse_lines [ "{\"seq\":0"; "" ] with
  | Error m ->
    Alcotest.(check bool) "names the line" true
      (String.length m > 0 && String.contains m '1')
  | Ok _ -> Alcotest.fail "accepted a malformed line"

(* ---------- metrics snapshot of a run ---------- *)

let test_run_metrics_snapshot () =
  let r, _ = traced_run 16 in
  match r.Driver.rr_metrics with
  | None -> Alcotest.fail "traced run must carry a metrics snapshot"
  | Some s ->
    Alcotest.(check int) "evals counter" r.Driver.rr_evals
      (T.Metrics.counter s "evals");
    Alcotest.(check int) "offline counter" quick_opts.Driver.so_samples
      (T.Metrics.counter s "evals.offline");
    Alcotest.(check int) "runs" 1 (T.Metrics.counter s "runs");
    Alcotest.(check bool) "partitions started" true
      (T.Metrics.counter s "partitions.started" > 0);
    (* The kernel was compiled before tracing started, so compile-stage
       spans are absent; the per-evaluation transform/estimate spans
       must be there, one pair per probe. *)
    Alcotest.(check bool) "spans seen" true
      (T.Metrics.counter s "spans.estimate" > 0)

let test_untraced_run_has_no_metrics () =
  let c = Lazy.force kmeans in
  let r = S2fa.explore ~opts:quick_opts c (Rng.create 17) in
  Alcotest.(check bool) "no snapshot without a tracer" true
    (r.Driver.rr_metrics = None)

(* ---------- the checkpoint envelope, both kinds ---------- *)

(* One checkpoint per header kind, each from its real writer, with the
   kind's decoder and a re-render of the decoded value: the DSE
   re-encodes its [ck]; a fleet snapshot is re-rendered by the replay
   that [Fleet.resume] validates against the stored lines. *)
type ck_kind = {
  kk_name : string;
  kk_lines : string list;
  kk_decode : Envelope.t -> (unit, string) result;
  kk_rerender : string -> string list;  (* path -> lines *)
}

let dse_kind =
  lazy
    (let ck =
       { Driver.ck_flow = "s2fa";
         ck_every = 10.0;
         ck_minutes = 20.0 +. (1.0 /. 3.0);
         ck_evals = 7;
         ck_best = Some ("a=1;b=2", 0.1 +. 0.2);
         ck_core_time = [| 20.5; infinity |];
         ck_db =
           [ ( "a=1;b=2",
               { S2fa_tuner.Resultdb.e_perf = 0.1 +. 0.2;
                 e_feasible = true;
                 e_minutes = 1.5 } ) ];
         ck_tuners =
           [ { Driver.ct_partition = 0;
               ct_evaluated = 7;
               ct_best = infinity;
               ct_entropy = 0.25 } ];
         ck_meta = [ ("workload", "KMeans"); ("seed", "3") ] }
     in
     { kk_name = "header";
       kk_lines = Driver.ck_lines ck;
       kk_decode = (fun env -> Result.map ignore (Driver.ck_of_envelope env));
       kk_rerender =
         (fun path ->
           match Driver.load_checkpoint path with
           | Ok ck -> Driver.ck_lines ck
           | Error m -> Alcotest.failf "dse reload: %s" m) })

let fleet_kind =
  lazy
    (let ts =
       [ Traffic.tenant ~rate:300.0 ~weight:1.0 (Option.get (W.find "KMeans")) ]
     in
     let apps = Traffic.apps ~seed:11 ts in
     let requests = Traffic.requests ~seed:11 ~horizon:0.2 ts in
     let path = Filename.temp_file "envelope" ".ck" in
     let spec =
       { Fleet.cks_path = path; cks_every_s = 2.0; cks_meta = [ ("seed", "11") ] }
     in
     ignore (Fleet.serve ~checkpoint:spec apps requests);
     let lines = In_channel.with_open_text path In_channel.input_lines in
     Sys.remove path;
     { kk_name = Fleet.checkpoint_kind;
       kk_lines = lines;
       kk_decode =
         (fun env -> Result.map ignore (Fleet.snapshot_of_envelope env));
       kk_rerender =
         (fun path ->
           match Fleet.load_checkpoint path with
           | Error m -> Alcotest.failf "fleet reload: %s" m
           | Ok snapshot ->
             (* Resume raises unless its replay re-renders the stored
                lines byte for byte. *)
             ignore (Fleet.resume ~snapshot apps requests);
             snapshot.Fleet.fk_lines) })

let load_decode kind lines =
  match Envelope.of_lines lines with
  | Error _ as e -> e
  | Ok env -> Result.map (fun () -> env) (kind.kk_decode env)

let test_envelope_both_kinds () =
  let kinds = [ Lazy.force dse_kind; Lazy.force fleet_kind ] in
  let swap_kind kind line =
    let other = if kind.kk_name = "header" then "fleet" else "header" in
    let tag = Printf.sprintf "{\"ck\":\"%s\"" kind.kk_name in
    let n = String.length tag in
    Printf.sprintf "{\"ck\":\"%s\"" other
    ^ String.sub line n (String.length line - n)
  in
  let end_marker n = Printf.sprintf "{\"ck\":\"end\",\"lines\":%d}" n in
  let body lines = List.filteri (fun i _ -> i < List.length lines - 1) lines in
  let rejected =
    [ ("missing end marker", fun _ l -> body l);
      ( "end count too high",
        fun _ l -> body l @ [ end_marker (List.length l) ] );
      ( "a body line dropped",
        fun _ l -> List.filteri (fun i _ -> i <> List.length l - 2) l );
      ( "missing header",
        fun _ l ->
          let b = List.tl (body l) in
          b @ [ end_marker (List.length b) ] );
      ("wrong header", fun k l -> swap_kind k (List.hd l) :: List.tl l);
      ( "malformed JSON",
        fun _ l -> List.mapi (fun i x -> if i = 1 then "{\"ck\":" else x) l );
      ( "untagged line",
        fun _ l -> List.mapi (fun i x -> if i = 1 then "{\"k\":1}" else x) l );
      ("empty file", fun _ _ -> []) ]
  in
  List.iter
    (fun kind ->
      let lines = kind.kk_lines in
      let tag what = kind.kk_name ^ ": " ^ what in
      Alcotest.(check bool) (tag "several body lines") true
        (List.length lines >= 4);
      (match load_decode kind lines with
      | Error m -> Alcotest.failf "%s" (tag m)
      | Ok env -> Alcotest.(check string) (tag "kind") kind.kk_name env.Envelope.kind);
      List.iter
        (fun (what, mutate) ->
          match load_decode kind (mutate kind lines) with
          | Ok _ -> Alcotest.failf "%s accepted" (tag what)
          | Error _ -> ()
          | exception e ->
            Alcotest.failf "%s raised %s" (tag what) (Printexc.to_string e))
        rejected;
      (* Blank and whitespace-only lines anywhere are not part of it. *)
      let padded =
        ("" :: List.concat_map (fun l -> [ l; "  " ]) lines) @ [ "" ]
      in
      (match load_decode kind padded with
      | Error m -> Alcotest.failf "%s" (tag ("blank lines: " ^ m))
      | Ok env ->
        Alcotest.(check (list string)) (tag "blank lines dropped") lines
          env.Envelope.lines);
      (* write -> load -> render, byte for byte. *)
      let path = Filename.temp_file "envelope" ".ck" in
      Envelope.write path lines;
      let bytes = In_channel.with_open_bin path In_channel.input_all in
      Alcotest.(check string) (tag "one line each")
        (String.concat "" (List.map (fun l -> l ^ "\n") lines))
        bytes;
      Alcotest.(check bool) (tag "no temp file left") false
        (Sys.file_exists (path ^ ".tmp"));
      Alcotest.(check (list string)) (tag "round trip") lines
        (kind.kk_rerender path);
      Sys.remove path)
    kinds;
  match Envelope.load "/nonexistent/envelope.ck" with
  | Ok _ -> Alcotest.fail "missing file accepted"
  | Error _ -> ()

let () =
  Alcotest.run "telemetry"
    [ ( "events",
        [ Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "samples cover every kind" `Quick
            test_samples_cover_every_kind;
          Alcotest.test_case "events golden" `Quick test_events_golden;
          Alcotest.test_case "logs rendering follows the table" `Quick
            test_pp_event_follows_table;
          Alcotest.test_case "rejects malformed" `Quick
            test_json_rejects_malformed;
          Alcotest.test_case "json reader is strict" `Quick
            test_json_reader_strict;
          QCheck_alcotest.to_alcotest json_roundtrip_prop;
          Alcotest.test_case "stage/reason names" `Quick
            test_stage_and_reason_names ] );
      ( "tracer",
        [ Alcotest.test_case "sequencing" `Quick test_tracer_sequencing;
          Alcotest.test_case "collector capacity" `Quick
            test_collector_capacity;
          Alcotest.test_case "metrics registry" `Quick test_metrics_registry;
          Alcotest.test_case "logs sink silent" `Quick
            test_logs_sink_silent_by_default;
          Alcotest.test_case "failing stage closes its bracket" `Quick
            test_failing_stage_closes ] );
      ( "determinism",
        [ Alcotest.test_case "bit-reproducible JSONL" `Quick
            test_trace_bit_reproducible;
          Alcotest.test_case "zero observer effect" `Quick
            test_zero_observer_effect ] );
      ( "replay",
        [ Alcotest.test_case "curve exact" `Quick test_replay_curve_exact;
          Alcotest.test_case "summary matches run" `Quick
            test_replay_summary_matches_run;
          Alcotest.test_case "via JSONL file" `Quick test_replay_via_jsonl_file;
          Alcotest.test_case "bad line reported" `Quick
            test_parse_lines_reports_bad_line ] );
      ( "metrics",
        [ Alcotest.test_case "run snapshot" `Quick test_run_metrics_snapshot;
          Alcotest.test_case "untraced has none" `Quick
            test_untraced_run_has_no_metrics ] );
      ( "envelope",
        [ Alcotest.test_case "both kinds: guards, blanks, round trip" `Quick
            test_envelope_both_kinds ] ) ]
