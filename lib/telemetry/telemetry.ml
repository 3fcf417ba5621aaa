(* Virtual-clock telemetry: all timestamps are simulated minutes plus a
   monotonic sequence number, never the wall clock, so traces under a
   fixed RNG seed are byte-reproducible. *)

type stop_reason = Stop_time | Stop_exhausted | Stop_entropy | Stop_trivial

let stop_reason_name = function
  | Stop_time -> "time_limit"
  | Stop_exhausted -> "exhausted"
  | Stop_entropy -> "entropy"
  | Stop_trivial -> "trivial"

let stop_reason_of_name = function
  | "time_limit" -> Some Stop_time
  | "exhausted" -> Some Stop_exhausted
  | "entropy" -> Some Stop_entropy
  | "trivial" -> Some Stop_trivial
  | _ -> None

type kind =
  | Run_begin of { flow : string; cores : int; time_limit : float }
  | Run_end of { minutes : float; evals : int; best : float }
  | Span_begin of string
  | Span_end of string
  | Eval_start of { cfg_key : string; partition : int; technique : string }
  | Eval_done of {
      cfg_key : string;
      quality : float;
      feasible : bool;
      eval_minutes : float;
      cache_hit : bool;
      partition : int;
      technique : string;
      improved : bool;
    }
  | Bandit_select of { arm : int; technique : string; scores : float array }
  | Partition_start of {
      partition : int;
      core : int;
      constrs : string;
      points : float;
    }
  | Partition_stop of {
      partition : int;
      core : int;
      reason : stop_reason;
      evals : int;
    }
  | Entropy_sample of { partition : int; evaluated : int; entropy : float }
  | Seed_injected of { cfg_key : string; partition : int }
  | Fault_injected of {
      cfg_key : string;
      partition : int;
      failure : string;
      lost_minutes : float;
      attempt : int;
    }
  | Eval_retry of {
      cfg_key : string;
      partition : int;
      attempt : int;
      backoff_minutes : float;
    }
  | Quarantined of {
      cfg_key : string;
      partition : int;
      attempts : int;
      lost_minutes : float;
    }
  | Core_lost of { core : int; partition : int }
  | Failover of { partition : int; from_core : int; to_core : int }
  | Checkpoint_written of { path : string; minutes : float; evals : int }
  | Serve_enqueue of { app : string; request : int; queue_len : int }
  | Serve_batch of {
      app : string;
      device : int;
      size : int;
      service_minutes : float;
    }
  | Serve_reconfig of {
      device : int;
      from_app : string;
      to_app : string;
      minutes : float;
    }
  | Serve_fallback of { app : string; request : int; reason : string }
  | Serve_complete of {
      app : string;
      request : int;
      latency_minutes : float;
      accelerated : bool;
    }
  | Serve_shed of {
      app : string;
      request : int;
      stage : string;  (* "enqueue" | "dispatch" *)
      deadline_minutes : float;
      estimate_minutes : float;
    }
  | Serve_timeout of {
      app : string;
      device : int;
      size : int;
      waited_minutes : float;
    }
  | Serve_hedge of {
      app : string;
      from_device : int;
      to_device : int;
      size : int;
    }
  | Serve_breaker of { device : int; from_state : string; to_state : string }
  | Serve_deadline of {
      app : string;
      request : int;
      met : bool;
      slack_minutes : float;
    }
  | Fed_route of {
      app : string;
      request : int;
      region : int;
      cluster : string;
      rtt_minutes : float;
    }
  | Fed_autoscale of {
      cluster : string;
      action : string;
      devices : int;
      queue_len : int;
    }
  | Fed_retune of {
      app : string;
      epoch : int;
      p99_minutes : float;
      slo_minutes : float;
      tune_minutes : float;
      evals : int;
    }
  | Fed_promote of { app : string; epoch : int; cfg : string }

type event = { e_seq : int; e_minutes : float; e_kind : kind }

type sink = { on_event : event -> unit; on_flush : unit -> unit }

(* ------------------------------------------------------------------ *)
(* Metrics registry *)
(* ------------------------------------------------------------------ *)

module Metrics = struct
  type hstate = {
    hs_buckets : float array;
    hs_counts : int array;  (* one per bucket + overflow *)
    mutable hs_count : int;
    mutable hs_sum : float;
  }

  type t = {
    counters : (string, int ref) Hashtbl.t;
    gauges : (string, float ref) Hashtbl.t;
    histos : (string, hstate) Hashtbl.t;
  }

  let create () =
    { counters = Hashtbl.create 32;
      gauges = Hashtbl.create 8;
      histos = Hashtbl.create 8 }

  let incr ?(by = 1) t name =
    match Hashtbl.find_opt t.counters name with
    | Some r -> r := !r + by
    | None -> Hashtbl.add t.counters name (ref by)

  let set_gauge t name v =
    match Hashtbl.find_opt t.gauges name with
    | Some r -> r := v
    | None -> Hashtbl.add t.gauges name (ref v)

  let default_buckets = [| 0.001; 0.01; 0.1; 1.0; 10.0; 100.0 |]

  let observe ?(buckets = default_buckets) t name v =
    let h =
      match Hashtbl.find_opt t.histos name with
      | Some h -> h
      | None ->
        let h =
          { hs_buckets = Array.copy buckets;
            hs_counts = Array.make (Array.length buckets + 1) 0;
            hs_count = 0;
            hs_sum = 0.0 }
        in
        Hashtbl.add t.histos name h;
        h
    in
    let n = Array.length h.hs_buckets in
    let rec slot i = if i >= n || v <= h.hs_buckets.(i) then i else slot (i + 1) in
    let i = slot 0 in
    h.hs_counts.(i) <- h.hs_counts.(i) + 1;
    h.hs_count <- h.hs_count + 1;
    if Float.is_finite v then h.hs_sum <- h.hs_sum +. v

  type histogram = {
    h_buckets : float array;
    h_counts : int array;
    h_count : int;
    h_sum : float;
  }

  type snapshot = {
    ms_counters : (string * int) list;
    ms_gauges : (string * float) list;
    ms_histograms : (string * histogram) list;
  }

  let sorted_bindings fold conv tbl =
    fold (fun k v acc -> (k, conv v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let snapshot t =
    { ms_counters = sorted_bindings Hashtbl.fold (fun r -> !r) t.counters;
      ms_gauges = sorted_bindings Hashtbl.fold (fun r -> !r) t.gauges;
      ms_histograms =
        sorted_bindings Hashtbl.fold
          (fun h ->
            { h_buckets = Array.copy h.hs_buckets;
              h_counts = Array.copy h.hs_counts;
              h_count = h.hs_count;
              h_sum = h.hs_sum })
          t.histos }

  let counter s name =
    match List.assoc_opt name s.ms_counters with Some n -> n | None -> 0

  let pp_snapshot ppf s =
    List.iter
      (fun (n, v) -> Format.fprintf ppf "%-36s %12d@." n v)
      s.ms_counters;
    List.iter
      (fun (n, v) -> Format.fprintf ppf "%-36s %12g@." n v)
      s.ms_gauges;
    List.iter
      (fun (n, h) ->
        Format.fprintf ppf "%-36s n=%d sum=%g@." n h.h_count h.h_sum;
        Array.iteri
          (fun i c ->
            if c > 0 then
              if i < Array.length h.h_buckets then
                Format.fprintf ppf "  le %-10g %12d@." h.h_buckets.(i) c
              else Format.fprintf ppf "  le %-10s %12d@." "+inf" c)
          h.h_counts)
      s.ms_histograms
end

(* ------------------------------------------------------------------ *)
(* Built-in metric derivation from the event stream *)
(* ------------------------------------------------------------------ *)

let minute_buckets = [| 1.0; 2.0; 5.0; 10.0; 15.0; 20.0; 30.0 |]

let quality_buckets =
  [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1.0; 10.0 |]

(* Serving latencies are sub-second, so their minute-denominated
   histogram needs much finer buckets than the DSE's eval_minutes. *)
let serve_latency_buckets =
  [| 1e-7; 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 1.0 |]

let fold_into_metrics m ev =
  match ev.e_kind with
  | Eval_done d ->
    (* "evals" counts search evaluations (it matches rr_evals); offline
       rule-fitting probes get their own counter. *)
    if d.partition < 0 then Metrics.incr m "evals.offline"
    else Metrics.incr m "evals";
    if d.feasible then Metrics.incr m "evals.feasible";
    if d.cache_hit then Metrics.incr m "evals.cache_hits";
    if d.improved then Metrics.incr m "evals.improved";
    if d.technique <> "" then begin
      Metrics.incr m ("technique." ^ d.technique ^ ".proposals");
      if d.improved then Metrics.incr m ("technique." ^ d.technique ^ ".wins")
    end;
    Metrics.observe ~buckets:minute_buckets m "eval_minutes" d.eval_minutes;
    if d.feasible then
      Metrics.observe ~buckets:quality_buckets m "quality" d.quality
  | Eval_start _ -> ()
  | Bandit_select s -> Metrics.incr m ("bandit.select." ^ s.technique)
  | Seed_injected _ -> Metrics.incr m "seeds.injected"
  | Partition_start _ -> Metrics.incr m "partitions.started"
  | Partition_stop p ->
    Metrics.incr m ("partitions.stopped." ^ stop_reason_name p.reason)
  | Entropy_sample s -> Metrics.set_gauge m "entropy" s.entropy
  | Fault_injected f ->
    Metrics.incr m ("faults.injected." ^ f.failure);
    Metrics.observe ~buckets:minute_buckets m "faults.lost_minutes"
      f.lost_minutes
  | Eval_retry _ -> Metrics.incr m "faults.retries"
  | Quarantined _ -> Metrics.incr m "faults.quarantined"
  | Core_lost _ -> Metrics.incr m "cores.lost"
  | Failover _ -> Metrics.incr m "failovers"
  | Checkpoint_written _ -> Metrics.incr m "checkpoints"
  | Serve_enqueue _ -> Metrics.incr m "serve.enqueued"
  | Serve_batch b ->
    Metrics.incr m "serve.batches";
    Metrics.incr ~by:b.size m "serve.batched"
  | Serve_reconfig _ -> Metrics.incr m "serve.reconfigs"
  | Serve_fallback _ -> Metrics.incr m "serve.fallbacks"
  | Serve_complete c ->
    Metrics.incr m "serve.completed";
    Metrics.observe ~buckets:serve_latency_buckets m "serve.latency_minutes"
      c.latency_minutes
  | Serve_shed _ -> Metrics.incr m "serve.shed"
  | Serve_timeout _ -> Metrics.incr m "serve.timeouts"
  | Serve_hedge _ -> Metrics.incr m "serve.hedges"
  | Serve_breaker b -> Metrics.incr m ("serve.breaker." ^ b.to_state)
  | Serve_deadline d ->
    Metrics.incr m
      (if d.met then "serve.deadline.met" else "serve.deadline.missed")
  | Fed_route _ -> Metrics.incr m "fed.routed"
  | Fed_autoscale a -> Metrics.incr m ("fed.autoscale." ^ a.action)
  | Fed_retune _ -> Metrics.incr m "fed.retunes"
  | Fed_promote _ -> Metrics.incr m "fed.promotions"
  | Span_begin _ -> ()
  | Span_end st -> Metrics.incr m ("spans." ^ st)
  | Run_begin _ -> Metrics.incr m "runs"
  | Run_end r -> Metrics.set_gauge m "best_quality" r.best

(* ------------------------------------------------------------------ *)
(* The tracer *)
(* ------------------------------------------------------------------ *)

type t = {
  sinks : sink list;
  t_metrics : Metrics.t;
  mutable t_seq : int;
  mutable t_partition : int;
}

let create ?(sinks = []) () =
  { sinks;
    t_metrics = Metrics.create ();
    t_seq = 0;
    t_partition = -1 }

let metrics t = t.t_metrics

let set_partition t p = t.t_partition <- p

let partition t = t.t_partition

let emitted t = t.t_seq

let emit t ~minutes kind =
  let ev = { e_seq = t.t_seq; e_minutes = minutes; e_kind = kind } in
  t.t_seq <- t.t_seq + 1;
  fold_into_metrics t.t_metrics ev;
  List.iter (fun s -> s.on_event ev) t.sinks

let flush t = List.iter (fun s -> s.on_flush ()) t.sinks

(* ------------------------------------------------------------------ *)
(* The JSON codec: every JSON file of the project goes through it *)
(* ------------------------------------------------------------------ *)

module Json = struct
  type v =
    | Jstr of string
    | Jnum of float
    | Jint of int
    | Jbool of bool
    | Jarr of float list
    | Jobj of (string * v) list

  exception Bad

  (* 17 significant digits round-trip every IEEE double exactly; the
     non-finite values JSON cannot express are quoted strings. *)
  let fstr x =
    if Float.is_nan x then "\"nan\""
    else if x = infinity then "\"inf\""
    else if x = neg_infinity then "\"-inf\""
    else Printf.sprintf "%.17g" x

  let add_quoted b s =
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 32 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'

  let quote s =
    let b = Buffer.create (String.length s + 2) in
    add_quoted b s;
    Buffer.contents b

  let add_list b ~sep add l =
    List.iteri (fun i x -> if i > 0 then Buffer.add_char b sep; add x) l

  let rec add_value b = function
    | Jstr s -> add_quoted b s
    | Jnum f -> Buffer.add_string b (fstr f)
    | Jint i -> Buffer.add_string b (string_of_int i)
    | Jbool v -> Buffer.add_string b (if v then "true" else "false")
    | Jarr l ->
      Buffer.add_char b '[';
      add_list b ~sep:',' (fun f -> Buffer.add_string b (fstr f)) l;
      Buffer.add_char b ']'
    | Jobj fields -> add_obj b fields

  and add_obj b fields =
    Buffer.add_char b '{';
    add_list b ~sep:','
      (fun (k, v) ->
        add_quoted b k;
        Buffer.add_char b ':';
        add_value b v)
      fields;
    Buffer.add_char b '}'

  let obj fields =
    let b = Buffer.create 160 in
    add_obj b fields;
    Buffer.contents b

  (* The only quoted floats are the three [fstr] writes. *)
  let nonfinite = function
    | "inf" -> infinity
    | "-inf" -> neg_infinity
    | "nan" -> Float.nan
    | _ -> raise Bad

  let parse_obj src =
    let n = String.length src in
    let pos = ref 0 in
    let peek () = if !pos < n then src.[!pos] else raise Bad in
    let skip_ws () =
      while
        !pos < n
        && match src.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
      do
        incr pos
      done
    in
    let expect c =
      skip_ws ();
      if peek () <> c then raise Bad;
      incr pos
    in
    let hex4 () =
      if !pos + 4 > n then raise Bad;
      let code = ref 0 in
      for i = !pos to !pos + 3 do
        let d =
          match src.[i] with
          | '0' .. '9' as c -> Char.code c - 48
          | 'a' .. 'f' as c -> Char.code c - 87
          | 'A' .. 'F' as c -> Char.code c - 55
          | _ -> raise Bad
        in
        code := (!code * 16) + d
      done;
      pos := !pos + 4;
      if !code > 255 then raise Bad;
      Char.chr !code
    in
    let string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        let c = peek () in
        incr pos;
        if c = '"' then Buffer.contents b
        else begin
          (if c <> '\\' then Buffer.add_char b c
           else
             let e = peek () in
             incr pos;
             Buffer.add_char b
               (match e with
               | '"' | '\\' -> e
               | 'n' -> '\n'
               | 'r' -> '\r'
               | 't' -> '\t'
               | 'u' -> hex4 ()
               | _ -> raise Bad));
          go ()
        end
      in
      go ()
    in
    (* RFC 8259 number grammar, so [float_of_string] cannot fail. *)
    let number () =
      let start = !pos in
      let digits () =
        let d = !pos in
        while !pos < n && src.[!pos] >= '0' && src.[!pos] <= '9' do
          incr pos
        done;
        if !pos = d then raise Bad
      in
      let skip c =
        if !pos < n && src.[!pos] = c then (incr pos; true) else false
      in
      ignore (skip '-');
      if not (skip '0') then digits ();
      if skip '.' then digits ();
      if skip 'e' || skip 'E' then begin
        ignore (skip '+' || skip '-');
        digits ()
      end;
      float_of_string (String.sub src start (!pos - start))
    in
    let literal word v =
      let k = String.length word in
      if !pos + k > n || String.sub src !pos k <> word then raise Bad;
      pos := !pos + k;
      v
    in
    let items close item =
      skip_ws ();
      if peek () = close then (incr pos; [])
      else
        let rec go acc =
          let x = item () in
          skip_ws ();
          match peek () with
          | ',' -> incr pos; go (x :: acc)
          | c when c = close -> incr pos; List.rev (x :: acc)
          | _ -> raise Bad
        in
        go []
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | '"' -> Jstr (string ())
      | 't' -> literal "true" (Jbool true)
      | 'f' -> literal "false" (Jbool false)
      | '{' -> Jobj (obj ())
      | '[' ->
        incr pos;
        Jarr
          (items ']' (fun () ->
               skip_ws ();
               if peek () = '"' then nonfinite (string ()) else number ()))
      | _ -> Jnum (number ())
    and obj () =
      expect '{';
      items '}' (fun () ->
          let k = string () in
          expect ':';
          (k, value ()))
    in
    let fields = obj () in
    skip_ws ();
    if !pos <> n then raise Bad;
    fields

  let find fields k = List.assoc_opt k fields

  let get fields k = match find fields k with Some v -> v | None -> raise Bad

  let get_float fields k =
    match get fields k with
    | Jnum f -> f
    | Jint i -> float_of_int i
    | Jstr s -> nonfinite s
    | _ -> raise Bad

  (* Integral and no larger than 2^53, where the float reading is exact. *)
  let get_int fields k =
    match get fields k with
    | Jint i -> i
    | Jnum f when Float.is_integer f && Float.abs f <= 0x1p53 -> int_of_float f
    | _ -> raise Bad

  let get_str fields k = match get fields k with Jstr s -> s | _ -> raise Bad

  let get_bool fields k = match get fields k with Jbool b -> b | _ -> raise Bad

  let get_arr fields k = match get fields k with Jarr l -> l | _ -> raise Bad

  let get_obj fields k = match get fields k with Jobj o -> o | _ -> raise Bad
end

(* ------------------------------------------------------------------ *)
(* The event table: each kind's tag and wire fields, declared once for
   the JSONL encoding and the logs rendering *)
(* ------------------------------------------------------------------ *)

let fields_of_kind : kind -> string * (string * Json.v) list =
  let open Json in
  function
  | Run_begin r ->
    ("run_begin", [ ("flow", Jstr r.flow); ("cores", Jint r.cores);
                    ("limit", Jnum r.time_limit) ])
  | Run_end r ->
    ("run_end", [ ("minutes", Jnum r.minutes); ("evals", Jint r.evals);
                  ("best", Jnum r.best) ])
  | Span_begin st -> ("span_begin", [ ("stage", Jstr st) ])
  | Span_end st -> ("span_end", [ ("stage", Jstr st) ])
  | Eval_start v ->
    ("eval_start", [ ("cfg", Jstr v.cfg_key); ("part", Jint v.partition);
                     ("tech", Jstr v.technique) ])
  | Eval_done v ->
    ("eval_done", [ ("cfg", Jstr v.cfg_key); ("q", Jnum v.quality);
                    ("feas", Jbool v.feasible); ("emin", Jnum v.eval_minutes);
                    ("hit", Jbool v.cache_hit); ("part", Jint v.partition);
                    ("tech", Jstr v.technique); ("imp", Jbool v.improved) ])
  | Bandit_select s ->
    ("bandit_select", [ ("arm", Jint s.arm); ("tech", Jstr s.technique);
                        ("scores", Jarr (Array.to_list s.scores)) ])
  | Partition_start p ->
    ("partition_start", [ ("part", Jint p.partition); ("core", Jint p.core);
                          ("constrs", Jstr p.constrs);
                          ("points", Jnum p.points) ])
  | Partition_stop p ->
    ("partition_stop", [ ("part", Jint p.partition); ("core", Jint p.core);
                         ("reason", Jstr (stop_reason_name p.reason));
                         ("evals", Jint p.evals) ])
  | Entropy_sample s ->
    ("entropy_sample", [ ("part", Jint s.partition);
                         ("evals", Jint s.evaluated);
                         ("entropy", Jnum s.entropy) ])
  | Seed_injected s ->
    ("seed_injected", [ ("cfg", Jstr s.cfg_key); ("part", Jint s.partition) ])
  | Fault_injected f ->
    ("fault", [ ("cfg", Jstr f.cfg_key); ("part", Jint f.partition);
                ("class", Jstr f.failure); ("lost", Jnum f.lost_minutes);
                ("attempt", Jint f.attempt) ])
  | Eval_retry r ->
    ("retry", [ ("cfg", Jstr r.cfg_key); ("part", Jint r.partition);
                ("attempt", Jint r.attempt);
                ("backoff", Jnum r.backoff_minutes) ])
  | Quarantined q ->
    ("quarantine", [ ("cfg", Jstr q.cfg_key); ("part", Jint q.partition);
                     ("attempts", Jint q.attempts);
                     ("lost", Jnum q.lost_minutes) ])
  | Core_lost c ->
    ("core_lost", [ ("core", Jint c.core); ("part", Jint c.partition) ])
  | Failover f ->
    ("failover", [ ("part", Jint f.partition); ("from", Jint f.from_core);
                   ("to", Jint f.to_core) ])
  | Checkpoint_written c ->
    ("checkpoint", [ ("path", Jstr c.path); ("minutes", Jnum c.minutes);
                     ("evals", Jint c.evals) ])
  | Serve_enqueue s ->
    ("serve_enq", [ ("app", Jstr s.app); ("req", Jint s.request);
                    ("qlen", Jint s.queue_len) ])
  | Serve_batch s ->
    ("serve_batch", [ ("app", Jstr s.app); ("dev", Jint s.device);
                      ("size", Jint s.size);
                      ("svc", Jnum s.service_minutes) ])
  | Serve_reconfig s ->
    ("serve_reconfig", [ ("dev", Jint s.device); ("from", Jstr s.from_app);
                         ("to", Jstr s.to_app); ("minutes", Jnum s.minutes) ])
  | Serve_fallback s ->
    ("serve_fallback", [ ("app", Jstr s.app); ("req", Jint s.request);
                         ("reason", Jstr s.reason) ])
  | Serve_complete s ->
    ("serve_done", [ ("app", Jstr s.app); ("req", Jint s.request);
                     ("lat", Jnum s.latency_minutes);
                     ("acc", Jbool s.accelerated) ])
  | Serve_shed s ->
    ("serve_shed", [ ("app", Jstr s.app); ("req", Jint s.request);
                     ("stage", Jstr s.stage);
                     ("deadline", Jnum s.deadline_minutes);
                     ("est", Jnum s.estimate_minutes) ])
  | Serve_timeout s ->
    ("serve_timeout", [ ("app", Jstr s.app); ("dev", Jint s.device);
                        ("size", Jint s.size);
                        ("waited", Jnum s.waited_minutes) ])
  | Serve_hedge s ->
    ("serve_hedge", [ ("app", Jstr s.app); ("from", Jint s.from_device);
                      ("to", Jint s.to_device); ("size", Jint s.size) ])
  | Serve_breaker s ->
    ("serve_breaker", [ ("dev", Jint s.device); ("from", Jstr s.from_state);
                        ("to", Jstr s.to_state) ])
  | Serve_deadline s ->
    ("serve_deadline", [ ("app", Jstr s.app); ("req", Jint s.request);
                         ("met", Jbool s.met);
                         ("slack", Jnum s.slack_minutes) ])
  | Fed_route s ->
    ("fed_route", [ ("app", Jstr s.app); ("req", Jint s.request);
                    ("region", Jint s.region); ("cluster", Jstr s.cluster);
                    ("rtt", Jnum s.rtt_minutes) ])
  | Fed_autoscale s ->
    ("fed_autoscale", [ ("cluster", Jstr s.cluster);
                        ("action", Jstr s.action);
                        ("devices", Jint s.devices);
                        ("queue", Jint s.queue_len) ])
  | Fed_retune s ->
    ("fed_retune", [ ("app", Jstr s.app); ("epoch", Jint s.epoch);
                     ("p99", Jnum s.p99_minutes); ("slo", Jnum s.slo_minutes);
                     ("minutes", Jnum s.tune_minutes);
                     ("evals", Jint s.evals) ])
  | Fed_promote s ->
    ("fed_promote", [ ("app", Jstr s.app); ("epoch", Jint s.epoch);
                      ("cfg", Jstr s.cfg) ])

let json_of_event e =
  let tag, fields = fields_of_kind e.e_kind in
  Json.obj
    (("seq", Json.Jint e.e_seq) :: ("min", Json.Jnum e.e_minutes)
    :: ("ev", Json.Jstr tag) :: fields)

(* One decode arm per kind, reading the fields [fields_of_kind] wrote. *)
let event_of_json line =
  match
    let f = Json.parse_obj line in
    let str = Json.get_str f and int = Json.get_int f
    and num = Json.get_float f and bool = Json.get_bool f in
    let kind =
      match str "ev" with
      | "run_begin" ->
        Run_begin
          { flow = str "flow"; cores = int "cores"; time_limit = num "limit" }
      | "run_end" ->
        Run_end
          { minutes = num "minutes"; evals = int "evals"; best = num "best" }
      | "span_begin" -> Span_begin (str "stage")
      | "span_end" -> Span_end (str "stage")
      | "eval_start" ->
        Eval_start
          { cfg_key = str "cfg";
            partition = int "part";
            technique = str "tech" }
      | "eval_done" ->
        Eval_done
          { cfg_key = str "cfg";
            quality = num "q";
            feasible = bool "feas";
            eval_minutes = num "emin";
            cache_hit = bool "hit";
            partition = int "part";
            technique = str "tech";
            improved = bool "imp" }
      | "bandit_select" ->
        Bandit_select
          { arm = int "arm";
            technique = str "tech";
            scores = Array.of_list (Json.get_arr f "scores") }
      | "partition_start" ->
        Partition_start
          { partition = int "part";
            core = int "core";
            constrs = str "constrs";
            points = num "points" }
      | "partition_stop" ->
        Partition_stop
          { partition = int "part";
            core = int "core";
            reason =
              (match stop_reason_of_name (str "reason") with
              | Some r -> r
              | None -> raise Json.Bad);
            evals = int "evals" }
      | "entropy_sample" ->
        Entropy_sample
          { partition = int "part";
            evaluated = int "evals";
            entropy = num "entropy" }
      | "seed_injected" ->
        Seed_injected { cfg_key = str "cfg"; partition = int "part" }
      | "fault" ->
        Fault_injected
          { cfg_key = str "cfg";
            partition = int "part";
            failure = str "class";
            lost_minutes = num "lost";
            attempt = int "attempt" }
      | "retry" ->
        Eval_retry
          { cfg_key = str "cfg";
            partition = int "part";
            attempt = int "attempt";
            backoff_minutes = num "backoff" }
      | "quarantine" ->
        Quarantined
          { cfg_key = str "cfg";
            partition = int "part";
            attempts = int "attempts";
            lost_minutes = num "lost" }
      | "core_lost" -> Core_lost { core = int "core"; partition = int "part" }
      | "failover" ->
        Failover
          { partition = int "part"; from_core = int "from"; to_core = int "to" }
      | "checkpoint" ->
        Checkpoint_written
          { path = str "path"; minutes = num "minutes"; evals = int "evals" }
      | "serve_enq" ->
        Serve_enqueue
          { app = str "app"; request = int "req"; queue_len = int "qlen" }
      | "serve_batch" ->
        Serve_batch
          { app = str "app";
            device = int "dev";
            size = int "size";
            service_minutes = num "svc" }
      | "serve_reconfig" ->
        Serve_reconfig
          { device = int "dev";
            from_app = str "from";
            to_app = str "to";
            minutes = num "minutes" }
      | "serve_fallback" ->
        Serve_fallback
          { app = str "app"; request = int "req"; reason = str "reason" }
      | "serve_done" ->
        Serve_complete
          { app = str "app";
            request = int "req";
            latency_minutes = num "lat";
            accelerated = bool "acc" }
      | "serve_shed" ->
        Serve_shed
          { app = str "app";
            request = int "req";
            stage = str "stage";
            deadline_minutes = num "deadline";
            estimate_minutes = num "est" }
      | "serve_timeout" ->
        Serve_timeout
          { app = str "app";
            device = int "dev";
            size = int "size";
            waited_minutes = num "waited" }
      | "serve_hedge" ->
        Serve_hedge
          { app = str "app";
            from_device = int "from";
            to_device = int "to";
            size = int "size" }
      | "serve_breaker" ->
        Serve_breaker
          { device = int "dev"; from_state = str "from"; to_state = str "to" }
      | "serve_deadline" ->
        Serve_deadline
          { app = str "app";
            request = int "req";
            met = bool "met";
            slack_minutes = num "slack" }
      | "fed_route" ->
        Fed_route
          { app = str "app";
            request = int "req";
            region = int "region";
            cluster = str "cluster";
            rtt_minutes = num "rtt" }
      | "fed_autoscale" ->
        Fed_autoscale
          { cluster = str "cluster";
            action = str "action";
            devices = int "devices";
            queue_len = int "queue" }
      | "fed_retune" ->
        Fed_retune
          { app = str "app";
            epoch = int "epoch";
            p99_minutes = num "p99";
            slo_minutes = num "slo";
            tune_minutes = num "minutes";
            evals = int "evals" }
      | "fed_promote" ->
        Fed_promote { app = str "app"; epoch = int "epoch"; cfg = str "cfg" }
      | _ -> raise Json.Bad
    in
    { e_seq = int "seq"; e_minutes = num "min"; e_kind = kind }
  with
  | ev -> Some ev
  | exception Json.Bad -> None

(* ------------------------------------------------------------------ *)
(* Human-readable rendering (the logs sink's format) *)
(* ------------------------------------------------------------------ *)

(* [[seq] min tag key=value ...]; a string that is empty or holds a
   blank, a quote, an [=] or a control character is printed quoted. *)
let pp_value ppf = function
  | Json.Jstr s
    when s <> "" && String.for_all (fun c -> c > ' ' && c <> '"' && c <> '=') s
    ->
    Format.pp_print_string ppf s
  | Json.Jstr s -> Format.pp_print_string ppf (Json.quote s)
  | Json.Jnum f -> Format.fprintf ppf "%g" f
  | Json.Jint i -> Format.pp_print_int ppf i
  | Json.Jbool b -> Format.pp_print_bool ppf b
  | Json.Jarr l ->
    Format.fprintf ppf "[%s]"
      (String.concat "," (List.map (Printf.sprintf "%g") l))
  | Json.Jobj o -> Format.pp_print_string ppf (Json.obj o)

let pp_event ppf e =
  let tag, fields = fields_of_kind e.e_kind in
  Format.fprintf ppf "[%6d] %8.1fm %s" e.e_seq e.e_minutes tag;
  List.iter (fun (k, v) -> Format.fprintf ppf " %s=%a" k pp_value v) fields

(* ------------------------------------------------------------------ *)
(* Built-in sinks *)
(* ------------------------------------------------------------------ *)

let collector ?(capacity = 65536) () =
  let q = Queue.create () in
  let sink =
    { on_event =
        (fun e ->
          Queue.add e q;
          if Queue.length q > capacity then ignore (Queue.pop q));
      on_flush = (fun () -> ()) }
  in
  (sink, fun () -> List.of_seq (Queue.to_seq q))

let buffer_sink b =
  { on_event =
      (fun e ->
        Buffer.add_string b (json_of_event e);
        Buffer.add_char b '\n');
    on_flush = (fun () -> ()) }

let channel_sink oc =
  { on_event =
      (fun e ->
        output_string oc (json_of_event e);
        output_char oc '\n');
    on_flush = (fun () -> Stdlib.flush oc) }

let log_src = Logs.Src.create "s2fa.telemetry" ~doc:"S2FA DSE trace events"

let logs_sink ?(level = Logs.Debug) () =
  { on_event =
      (fun e ->
        Logs.msg ~src:log_src level (fun m -> m "%a" pp_event e));
    on_flush = (fun () -> ()) }
