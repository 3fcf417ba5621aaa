module Space = S2fa_tuner.Space
module Tuner = S2fa_tuner.Tuner
module Resultdb = S2fa_tuner.Resultdb
module Rng = S2fa_util.Rng
module Pheap = S2fa_util.Pheap

(* (finish_time, core) heap keys; a monomorphic comparator keeps the
   sift path off polymorphic [Stdlib.compare]. *)
let core_cmp (t1, c1) (t2, c2) =
  let c = Float.compare t1 t2 in
  if c <> 0 then c else Int.compare c1 c2
module Telemetry = S2fa_telemetry.Telemetry
module Obs = S2fa_obs.Obs
module Fault = S2fa_fault.Fault
module Json = S2fa_telemetry.Telemetry.Json
module Envelope = S2fa_telemetry.Envelope

type event = {
  ev_minutes : float;
  ev_perf : float;
  ev_feasible : bool;
  ev_partition : int;
  ev_technique : string;
}

type run_result = {
  rr_events : event list;
  rr_best : (Space.cfg * float) option;
  rr_minutes : float;
  rr_evals : int;
  rr_cache : Resultdb.snapshot option;
  rr_metrics : Telemetry.Metrics.snapshot option;
  rr_fault : Fault.stats option;
}

(* Shared-result-database plumbing, common to the three flows. [wrap]
   memoizes an objective for use outside any tuner (offline sampling);
   [stuck] detects a tuner whose whole space has been proposed — with a
   database every further step would be a free duplicate, so the driver
   must stop it rather than spin on 0-minute hits; [finish] reports the
   cache-counter delta of this run. *)
let db_wrap db objective =
  match db with
  | None -> objective
  | Some db -> Resultdb.memoize db objective

let db_stuck db tuner = db <> None && Tuner.exhausted tuner

let db_finish db before =
  match (db, before) with
  | Some db, Some s0 -> Some (Resultdb.diff (Resultdb.snapshot db) s0)
  | _ -> None

(* ---------- telemetry plumbing (read-only observation) ---------- *)

let constr_string = function
  | Partition.CLe (p, v) -> Printf.sprintf "%s<=%d" p v
  | Partition.CGt (p, v) -> Printf.sprintf "%s>%d" p v
  | Partition.CIn (p, vs) ->
    Printf.sprintf "%s in {%s}" p (String.concat "," vs)

let constrs_string = function
  | [] -> "(whole space)"
  | cs -> String.concat " & " (List.map constr_string cs)

(* Offline rule-fitting probes carry [partition = -1] so replay can tell
   them apart from search evaluations (they consume no DSE wall-clock,
   exactly as the paper's ahead-of-time training data). *)
let traced_objective db objective =
  let wrapped = db_wrap db objective in
  if not (Obs.tracing ()) then wrapped
  else
    fun cfg ->
      (* Whether this eval was a cache hit falls out of the hit-counter
         delta across the memoized call — no second key canonicalization
         just to ask the question. *)
      let hits_before =
        match db with
        | Some db -> (Resultdb.snapshot db).Resultdb.sn_hits
        | None -> 0
      in
      let r = wrapped cfg in
      let hit =
        match db with
        | Some db -> (Resultdb.snapshot db).Resultdb.sn_hits > hits_before
        | None -> false
      in
      Obs.emit
        (Telemetry.Eval_done
           { cfg_key = Space.key cfg;
             quality = r.Tuner.e_perf;
             feasible = r.Tuner.e_feasible;
             eval_minutes = r.Tuner.e_minutes;
             cache_hit = hit;
             partition = -1;
             technique = "";
             improved = false });
      r

let trace_run_begin ~flow ~cores ~time_limit =
  if Obs.tracing () then
    Obs.emit (Telemetry.Run_begin { flow; cores; time_limit })

(* Stamped with the anchor the flow set when it charged the evaluation
   to its core's clock. *)
let trace_eval_done ~partition (o : Tuner.outcome) =
  if Obs.tracing () then
    Obs.emit
      (Telemetry.Eval_done
         { cfg_key = Space.key o.Tuner.o_cfg;
           quality = o.Tuner.o_perf;
           feasible = o.Tuner.o_feasible;
           eval_minutes = o.Tuner.o_minutes;
           cache_hit = o.Tuner.o_cache_hit;
           partition;
           technique = o.Tuner.o_technique;
           improved = o.Tuner.o_improved })

(* Shared epilogue: park the clock on the run's final minute, then
   [run_end], flush every sink, snapshot the metrics registry into the
   run result. *)
let trace_finish ~minutes ~evals ~best =
  Obs.set_clock minutes;
  Obs.set_partition (-1);
  if Obs.tracing () then
    Obs.emit
      (Telemetry.Run_end
         { minutes;
           evals;
           best = (match best with Some (_, b) -> b | None -> infinity) });
  Obs.flush ();
  Option.map Telemetry.Metrics.snapshot (Obs.metrics ())

(* ---------- fault-injection plumbing ---------- *)

(* The search objective behind the injector's retry/backoff/quarantine
   policy. The wrapper stamps the config key and the tracer's current
   partition context onto the injector's retry-loop events; with no
   injector (or a zero-rate one, which makes no RNG draws) it is the
   raw objective, which is what proves fault-free ≡ no injector. *)
let fault_objective faults objective =
  match faults with
  | None -> objective
  | Some inj ->
    fun cfg ->
      let on_event =
        if not (Obs.tracing ()) then fun _ -> ()
        else
          let cfg_key = Space.key cfg in
          let partition = Obs.partition () in
          fun (e : Fault.event) ->
            Obs.emit
              (match e with
              | Fault.Injected i ->
                Telemetry.Fault_injected
                  { cfg_key;
                    partition;
                    failure = Fault.failure_name i.failure;
                    lost_minutes = i.lost_minutes;
                    attempt = i.attempt }
              | Fault.Retried r ->
                Telemetry.Eval_retry
                  { cfg_key;
                    partition;
                    attempt = r.attempt;
                    backoff_minutes = r.backoff_minutes }
              | Fault.Gave_up g ->
                Telemetry.Quarantined
                  { cfg_key;
                    partition;
                    attempts = g.attempts;
                    lost_minutes = g.lost_minutes })
      in
      Fault.harden inj ~on_event objective cfg

(* Mark [n] simulated cores dead: the core that ran the faulted
   evaluation first, then (for simultaneous losses) the highest-indexed
   survivors — a deterministic choice. *)
let kill_cores ?on_kill alive ~first ~partition n =
  let killed = ref 0 in
  let kill c part =
    if c >= 0 && c < Array.length alive && alive.(c) then begin
      alive.(c) <- false;
      (* The flows' free-core heaps key off [alive]; give them a hook
         to withdraw the dead core's entry at the mutation site. *)
      (match on_kill with Some f -> f c | None -> ());
      incr killed;
      if Obs.tracing () then
        Obs.emit (Telemetry.Core_lost { core = c; partition = part })
    end
  in
  if n > 0 then kill first partition;
  let c = ref (Array.length alive - 1) in
  while !killed < n && !c >= 0 do
    if alive.(!c) then kill !c (-1);
    decr c
  done

(* ---------- checkpointing ---------- *)

type ck_tuner = {
  ct_partition : int;
  ct_evaluated : int;
  ct_best : float;
  ct_entropy : float;
}

type ck = {
  ck_flow : string;
  ck_every : float;
  ck_minutes : float;
  ck_evals : int;
  ck_best : (string * float) option;
  ck_core_time : float array;
  ck_db : (string * Resultdb.eval_result) list;
  ck_tuners : ck_tuner list;
  ck_meta : (string * string) list;
}

(* The snapshot reuses the trace encoding's float contract (17
   significant digits, quoted non-finite values), so serializing the
   regenerated state of a deterministic re-run reproduces the stored
   file byte for byte — which is exactly how resume validation works. *)
let ck_kind = "header"

let ck_lines ck =
  let open Json in
  let header =
    [ ("flow", Jstr ck.ck_flow); ("every", Jnum ck.ck_every);
      ("min", Jnum ck.ck_minutes); ("evals", Jint ck.ck_evals) ]
    @ (match ck.ck_best with
      | None -> []
      | Some (k, q) -> [ ("best", Jstr k); ("bestq", Jnum q) ])
    @ [ ("cores", Jarr (Array.to_list ck.ck_core_time)) ]
  in
  let dbl =
    List.map
      (fun (key, (r : Resultdb.eval_result)) ->
        [ ("ck", Jstr "db"); ("cfg", Jstr key); ("q", Jnum r.Resultdb.e_perf);
          ("feas", Jbool r.Resultdb.e_feasible);
          ("emin", Jnum r.Resultdb.e_minutes) ])
      ck.ck_db
  in
  let tl =
    List.map
      (fun t ->
        [ ("ck", Jstr "tuner"); ("part", Jint t.ct_partition);
          ("evals", Jint t.ct_evaluated); ("best", Jnum t.ct_best);
          ("entropy", Jnum t.ct_entropy) ])
      ck.ck_tuners
  in
  Envelope.render ~kind:ck_kind ~header ~meta:ck.ck_meta (dbl @ tl)

let ck_of_envelope (env : Envelope.t) =
  if env.Envelope.kind <> ck_kind then
    Error "first checkpoint line is not the header"
  else
    let header = env.Envelope.header in
    try
      let dbl, tl =
        List.partition_map
          (fun fields ->
            match Json.get_str fields "ck" with
            | "db" ->
              Left
                ( Json.get_str fields "cfg",
                  { Resultdb.e_perf = Json.get_float fields "q";
                    e_feasible = Json.get_bool fields "feas";
                    e_minutes = Json.get_float fields "emin" } )
            | "tuner" ->
              Right
                { ct_partition = Json.get_int fields "part";
                  ct_evaluated = Json.get_int fields "evals";
                  ct_best = Json.get_float fields "best";
                  ct_entropy = Json.get_float fields "entropy" }
            | k -> failwith (Printf.sprintf "unknown checkpoint line %S" k))
          env.Envelope.body
      in
      Ok
        { ck_flow = Json.get_str header "flow";
          ck_every = Json.get_float header "every";
          ck_minutes = Json.get_float header "min";
          ck_evals = Json.get_int header "evals";
          ck_best =
            (match Json.find header "best" with
            | Some (Json.Jstr k) -> Some (k, Json.get_float header "bestq")
            | _ -> None);
          ck_core_time = Array.of_list (Json.get_arr header "cores");
          ck_db = dbl;
          ck_tuners = tl;
          ck_meta = env.Envelope.meta }
    with
    | Json.Bad -> Error "malformed checkpoint JSON"
    | Failure m -> Error m

let ck_of_lines lines = Result.bind (Envelope.of_lines lines) ck_of_envelope
let write_checkpoint path ck = Envelope.write path (ck_lines ck)
let load_checkpoint path = Result.bind (Envelope.load path) ck_of_envelope

type ck_opts = {
  ck_path : string option;
  ck_every : float;
  ck_meta : (string * string) list;
  ck_hook : (ck -> unit) option;
}

let checkpoint_to ?(meta = []) ~every path =
  { ck_path = Some path; ck_every = every; ck_meta = meta; ck_hook = None }

(* One stepper per run: fed the executing core's clock after every
   evaluation, it snapshots whenever a [ck_every] boundary is crossed.
   The boundary test only looks at the event stream, which prefix-
   deterministic runs share, so a resumed run regenerates every
   snapshot of the original bit for bit. *)
let ck_machine checkpoint ~flow ~core_time ~evals ~global_best ~db
    ~tuners =
  match checkpoint with
  | None -> fun _now -> ()
  | Some c ->
    let next = ref c.ck_every in
    fun now ->
      if now >= !next then begin
        while now >= !next do
          next := !next +. c.ck_every
        done;
        let ck =
          { ck_flow = flow;
            ck_every = c.ck_every;
            ck_minutes = now;
            ck_evals = !evals;
            ck_best =
              Option.map (fun (cfg, q) -> (Space.key cfg, q)) !global_best;
            ck_core_time = core_time ();
            ck_db =
              (match db with Some d -> Resultdb.to_list d | None -> []);
            ck_tuners =
              List.map
                (fun (idx, t) ->
                  { ct_partition = idx;
                    ct_evaluated = Tuner.evaluated t;
                    ct_best =
                      (match Tuner.best t with
                      | Some (_, q) -> q
                      | None -> infinity);
                    ct_entropy = Tuner.entropy t })
                !tuners
              |> List.sort (fun a b -> compare a.ct_partition b.ct_partition);
            ck_meta = c.ck_meta }
        in
        Option.iter (fun p -> write_checkpoint p ck) c.ck_path;
        Option.iter (fun h -> h ck) c.ck_hook;
        if Obs.tracing () then
          Obs.emit
            (Telemetry.Checkpoint_written
               { path = Option.value ~default:"" c.ck_path;
                 minutes = now;
                 evals = !evals })
      end

let best_curve rr =
  let sorted =
    List.sort (fun a b -> compare a.ev_minutes b.ev_minutes) rr.rr_events
  in
  let _, rev =
    List.fold_left
      (fun (best, acc) ev ->
        if ev.ev_feasible && ev.ev_perf < best then
          (ev.ev_perf, (ev.ev_minutes, ev.ev_perf) :: acc)
        else (best, acc))
      (infinity, []) sorted
  in
  List.rev rev

let best_at rr minute =
  List.fold_left
    (fun best ev ->
      if ev.ev_feasible && ev.ev_minutes <= minute && ev.ev_perf < best then
        ev.ev_perf
      else best)
    infinity rr.rr_events

type s2fa_opts = {
  so_cores : int;
  so_time_limit : float;
  so_theta : float;
  so_consecutive : int;
  so_min_evals : int;
  so_depth : int;
  so_samples : int;
  so_partition : bool;
  so_seed_mode : [ `Both | `Area_only | `None ];
  so_stop : [ `Entropy | `Trivial of int | `Time_only ];
}

let default_s2fa_opts =
  { so_cores = 8;
    so_time_limit = 240.0;
    so_theta = 0.02;
    so_consecutive = 5;
    so_min_evals = 14;
    so_depth = 3;
    so_samples = 96;
    so_partition = true;
    so_seed_mode = `Both;
    so_stop = `Entropy }

(* Offline "training data": quick estimator probes used to fit the
   partitioning rules. The paper builds these rules from training
   applications ahead of time, so they do not consume DSE wall-clock. *)
let offline_samples dspace objective rng n =
  List.init n (fun _ ->
      let cfg = Space.random_cfg rng dspace.Dspace.ds_space in
      let r = objective cfg in
      let lat =
        if r.Tuner.e_feasible then log r.Tuner.e_perf
        else 10.0 (* a large, finite label for the infeasible region *)
      in
      { Partition.s_cfg = cfg; s_latency = lat })

let rule_sets dspace =
  (* Methodology 1: factors grouped by loop level — pipeline modes first,
     because "flatten" invalidates every factor below it (Impediment 2).
     Methodology 2: the RDD-operator (task) loop's factors. *)
  let task = dspace.Dspace.ds_task_loop in
  let pipe_params =
    List.filter_map
      (fun id -> if id = task then None else Some (Dspace.pipe_name id))
      dspace.Dspace.ds_loop_ids
  in
  let task_params =
    [ Dspace.par_name task; Dspace.pipe_name task; Dspace.tile_name task ]
  in
  let inner_params =
    List.concat_map
      (fun id -> [ Dspace.par_name id; Dspace.pipe_name id ])
      dspace.Dspace.ds_inner_ids
  in
  [ pipe_params; task_params; inner_params; [] ]

let run_s2fa ?(opts = default_s2fa_opts) ?db ?faults ?checkpoint dspace
    objective rng =
  Obs.set_clock 0.0;
  Obs.span "dse.s2fa" @@ fun () ->
  let db_before = Option.map Resultdb.snapshot db in
  trace_run_begin ~flow:"s2fa" ~cores:opts.so_cores
    ~time_limit:opts.so_time_limit;
  (* Offline rule-fitting probes model ahead-of-time training runs, so
     they are exempt from fault injection: only the search-phase
     objective is hardened. *)
  let search_objective = fault_objective faults objective in
  let samples =
    if opts.so_partition || opts.so_seed_mode = `Both then
      Obs.span "dse.offline" (fun () ->
          offline_samples dspace (traced_objective db objective)
            (Rng.split rng) opts.so_samples)
    else []
  in
  (* The offline probes charged the span clock; the search phase starts
     at virtual zero. *)
  Obs.set_clock 0.0;
  let partitions =
    if opts.so_partition then
      Partition.build ~depth:opts.so_depth ~rule_params:(rule_sets dspace)
        dspace.Dspace.ds_space samples
    else [ { Partition.p_constrs = []; p_space = dspace.Dspace.ds_space } ]
  in
  let stop_rule =
    match opts.so_stop with
    | `Entropy ->
      Tuner.Entropy_stop
        { theta = opts.so_theta;
          consecutive = opts.so_consecutive;
          min_evals = opts.so_min_evals }
    | `Trivial k -> Tuner.Trivial_stop k
    | `Time_only -> Tuner.No_stop
  in
  let make_tuner part =
    (* The partition's best point among the offline training samples is
       its third seed: the rule-fitting data doubles as a warm start for
       the region (same spirit as Section 4.3.2's per-partition seeds). *)
    let sample_seed =
      List.fold_left
        (fun acc (s : Partition.sample) ->
          let inside =
            List.for_all (Partition.satisfies s.Partition.s_cfg)
              part.Partition.p_constrs
          in
          match acc with
          | Some (_, best) when best <= s.Partition.s_latency -> acc
          | _ ->
            if inside && s.Partition.s_latency < 10.0 then
              Some (s.Partition.s_cfg, s.Partition.s_latency)
            else acc)
        None samples
    in
    let seeds =
      match opts.so_seed_mode with
      | `Both -> (
        Seed.seeds_for dspace part
        @
        match sample_seed with
        | Some (cfg, _) -> [ Partition.project part cfg ]
        | None -> [])
      | `Area_only -> [ Partition.project part (Seed.area_seed dspace) ]
      | `None -> []
    in
    Tuner.create ~seeds ?db part.Partition.p_space search_objective
      (Rng.split rng)
  in
  let queue = Queue.create () in
  List.iteri (fun i p -> Queue.add (i, p, None) queue) partitions;
  let core_time = Array.make opts.so_cores 0.0 in
  let alive = Array.make opts.so_cores true in
  (* Pending-completion selection: one heap entry per surviving core,
     keyed (finish_time, index) — pop order matches the old linear
     argmin scan (strict <, so the lowest index wins ties). *)
  let core_heap = Pheap.create ~cmp:core_cmp () in
  let core_h =
    Array.mapi (fun i t -> Some (Pheap.insert core_heap (t, i) i)) core_time
  in
  let sync_core i =
    match core_h.(i) with
    | None -> ()
    | Some h ->
      if alive.(i) then Pheap.update core_heap h (core_time.(i), i)
      else begin
        Pheap.remove core_heap h;
        core_h.(i) <- None
      end
  in
  let events = ref [] in
  let evals = ref 0 in
  let global_best = ref None in
  let tuner_reg = ref [] in
  let ck =
    ck_machine checkpoint ~flow:"s2fa"
      ~core_time:(fun () -> Array.copy core_time)
      ~evals ~global_best ~db ~tuners:tuner_reg
  in
  let note_best cfg perf feasible =
    if feasible then
      match !global_best with
      | Some (_, b) when b <= perf -> ()
      | _ -> global_best := Some (cfg, perf)
  in
  let run_partition core idx part resumed =
    Obs.set_clock core_time.(core);
    Obs.span "dse.partition" @@ fun () ->
    let tuner =
      match resumed with
      | Some t -> t
      | None ->
        let t = make_tuner part in
        tuner_reg := (idx, t) :: !tuner_reg;
        t
    in
    Obs.set_partition idx;
    if Obs.tracing () then
      Obs.emit
        (Telemetry.Partition_start
           { partition = idx;
             core;
             constrs = constrs_string part.Partition.p_constrs;
             points = Space.cardinality part.Partition.p_space });
    let stop = ref Telemetry.Stop_time in
    let disposition = ref `Stopped in
    let continue_ = ref true in
    while !continue_ do
      if core_time.(core) >= opts.so_time_limit then begin
        stop := Telemetry.Stop_time;
        continue_ := false
      end
      else if db_stuck db tuner then begin
        stop := Telemetry.Stop_exhausted;
        continue_ := false
      end
      else begin
        Obs.set_clock core_time.(core);
        let o =
          Obs.span "dse.eval" (fun () ->
              let o = Tuner.step tuner in
              core_time.(core) <- core_time.(core) +. o.Tuner.o_minutes;
              Obs.set_clock core_time.(core);
              o)
        in
        incr evals;
        events :=
          { ev_minutes = core_time.(core);
            ev_perf = o.Tuner.o_perf;
            ev_feasible = o.Tuner.o_feasible;
            ev_partition = idx;
            ev_technique = o.Tuner.o_technique }
          :: !events;
        trace_eval_done ~partition:idx o;
        note_best o.Tuner.o_cfg o.Tuner.o_perf o.Tuner.o_feasible;
        ck core_time.(core);
        let losses =
          match faults with
          | Some inj -> Fault.take_core_losses inj
          | None -> 0
        in
        if losses > 0 then begin
          (* The in-flight evaluation was rescued by the retry loop,
             but its core is gone: decommission it and send the
             partition — tuner state intact — back to the FCFS queue. *)
          kill_cores ~on_kill:sync_core alive ~first:core ~partition:idx
            losses;
          disposition := `Core_lost;
          continue_ := false
        end
        else if Tuner.should_stop tuner stop_rule then begin
          stop :=
            (match stop_rule with
            | Tuner.Entropy_stop _ -> Telemetry.Stop_entropy
            | Tuner.Trivial_stop _ -> Telemetry.Stop_trivial
            | Tuner.No_stop -> Telemetry.Stop_time);
          continue_ := false
        end
      end
    done;
    match !disposition with
    | `Core_lost -> `Core_lost tuner
    | `Stopped ->
      if Obs.tracing () then
        Obs.emit
          (Telemetry.Partition_stop
             { partition = idx;
               core;
               reason = !stop;
               evals = Tuner.evaluated tuner });
      Obs.set_partition (-1);
      `Done
  in
  (* FCFS: whenever a surviving core frees up, it takes the next
     waiting partition; a lost core's partition rejoins the queue and
     is picked up — tuner state intact — by whichever survivor frees
     up first. *)
  let next_free_core () =
    match Pheap.peek core_heap with Some ((_, i), _) -> i | None -> -1
  in
  while not (Queue.is_empty queue) do
    match next_free_core () with
    | -1 -> Queue.clear queue (* every core is gone *)
    | core ->
      if core_time.(core) >= opts.so_time_limit then Queue.clear queue
      else begin
        let idx, part, resumed = Queue.pop queue in
        let tuner =
          match resumed with
          | None -> None
          | Some (t, from_core) ->
            Obs.set_clock core_time.(core);
            if Obs.tracing () then
              Obs.emit
                (Telemetry.Failover
                   { partition = idx; from_core; to_core = core });
            Some t
        in
        let outcome = run_partition core idx part tuner in
        (* The partition advanced (and may have lost) this core; re-key
           its heap entry before the next selection. *)
        sync_core core;
        match outcome with
        | `Done -> ()
        | `Core_lost t -> Queue.add (idx, part, Some (t, core)) queue
      end
  done;
  let finish = Array.fold_left Float.max 0.0 core_time in
  let rr_minutes = Float.min finish opts.so_time_limit in
  { rr_events = List.rev !events;
    rr_best = !global_best;
    rr_minutes;
    rr_evals = !evals;
    rr_cache = db_finish db db_before;
    rr_metrics =
      trace_finish ~minutes:rr_minutes ~evals:!evals ~best:!global_best;
    rr_fault = Option.map Fault.stats faults }

let run_dynamic ?(opts = default_s2fa_opts) ?(setup_evals = 4) ?db
    ?faults ?checkpoint dspace objective rng =
  (* Same partition tree as the static flow, but per DATuner: random
     starting points, an on-line sampling phase per partition, then
     greedy core reallocation toward the best-performing partitions. *)
  Obs.set_clock 0.0;
  Obs.span "dse.dynamic" @@ fun () ->
  let db_before = Option.map Resultdb.snapshot db in
  trace_run_begin ~flow:"dynamic" ~cores:opts.so_cores
    ~time_limit:opts.so_time_limit;
  let search_objective = fault_objective faults objective in
  let samples =
    Obs.span "dse.offline" (fun () ->
        offline_samples dspace (traced_objective db objective)
          (Rng.split rng) opts.so_samples)
  in
  Obs.set_clock 0.0;
  let partitions =
    Partition.build ~depth:opts.so_depth ~rule_params:(rule_sets dspace)
      dspace.Dspace.ds_space samples
  in
  let tuners =
    List.map
      (fun part ->
        (* Random seed, not the generated ones. *)
        let seeds = [ Space.random_cfg rng part.Partition.p_space ] in
        Tuner.create ~seeds ?db part.Partition.p_space
          search_objective (Rng.split rng))
      partitions
    |> Array.of_list
  in
  let n = Array.length tuners in
  let core_time = Array.make opts.so_cores 0.0 in
  let alive = Array.make opts.so_cores true in
  (* Same free-core heap as the static flow: (finish_time, index) keys
     reproduce the scan's lowest-index-on-ties argmin. *)
  let core_heap = Pheap.create ~cmp:core_cmp () in
  let core_h =
    Array.mapi (fun i t -> Some (Pheap.insert core_heap (t, i) i)) core_time
  in
  let sync_core i =
    match core_h.(i) with
    | None -> ()
    | Some h ->
      if alive.(i) then Pheap.update core_heap h (core_time.(i), i)
      else begin
        Pheap.remove core_heap h;
        core_h.(i) <- None
      end
  in
  let events = ref [] in
  let evals = ref 0 in
  let global_best = ref None in
  let part_best = Array.make n infinity in
  let part_evals = Array.make n 0 in
  let tuner_reg = ref (List.init n (fun p -> (p, tuners.(p)))) in
  let ck =
    ck_machine checkpoint ~flow:"dynamic"
      ~core_time:(fun () -> Array.copy core_time)
      ~evals ~global_best ~db ~tuners:tuner_reg
  in
  let step_on core p =
    Obs.set_partition p;
    Obs.set_clock core_time.(core);
    let o =
      Obs.span "dse.eval" (fun () ->
          let o = Tuner.step tuners.(p) in
          core_time.(core) <- core_time.(core) +. o.Tuner.o_minutes;
          Obs.set_clock core_time.(core);
          o)
    in
    incr evals;
    part_evals.(p) <- part_evals.(p) + 1;
    events :=
      { ev_minutes = core_time.(core);
        ev_perf = o.Tuner.o_perf;
        ev_feasible = o.Tuner.o_feasible;
        ev_partition = p;
        ev_technique = o.Tuner.o_technique }
      :: !events;
    trace_eval_done ~partition:p o;
    (if o.Tuner.o_feasible then begin
       if o.Tuner.o_perf < part_best.(p) then part_best.(p) <- o.Tuner.o_perf;
       match !global_best with
       | Some (_, b) when b <= o.Tuner.o_perf -> ()
       | _ -> global_best := Some (o.Tuner.o_cfg, o.Tuner.o_perf)
     end);
    ck core_time.(core);
    (match faults with
    | None -> ()
    | Some inj ->
      let losses = Fault.take_core_losses inj in
      if losses > 0 then
        kill_cores ~on_kill:sync_core alive ~first:core ~partition:p losses);
    sync_core core
  in
  let next_free_core () =
    match Pheap.peek core_heap with Some ((_, i), _) -> i | None -> -1
  in
  let eligible p = not (db_stuck db tuners.(p)) in
  (* Phase 1: sampling set-up, round-robin over partitions. *)
  for p = 0 to n - 1 do
    for _ = 1 to setup_evals do
      match next_free_core () with
      | -1 -> ()
      | core ->
        if core_time.(core) < opts.so_time_limit && eligible p then
          step_on core p
    done
  done;
  (* Phase 2: greedy reallocation — each freed core works on the
     partition with the best quality so far (ties to the least
     explored). *)
  let continue_ = ref true in
  while !continue_ do
    match next_free_core () with
    | -1 -> continue_ := false
    | core ->
    if core_time.(core) >= opts.so_time_limit then continue_ := false
    else begin
      let best_p = ref (-1) in
      for p = 0 to n - 1 do
        if
          eligible p
          && (!best_p < 0
             || part_best.(p) < part_best.(!best_p)
             || (part_best.(p) = part_best.(!best_p)
                && part_evals.(p) < part_evals.(!best_p)))
        then best_p := p
      done;
      match !best_p with
      | -1 -> continue_ := false
      | p -> step_on core p
    end
  done;
  let rr_minutes =
    Float.min (Array.fold_left Float.max 0.0 core_time) opts.so_time_limit
  in
  { rr_events = List.rev !events;
    rr_best = !global_best;
    rr_minutes;
    rr_evals = !evals;
    rr_cache = db_finish db db_before;
    rr_metrics =
      trace_finish ~minutes:rr_minutes ~evals:!evals ~best:!global_best;
    rr_fault = Option.map Fault.stats faults }

let run_vanilla ?(cores = 8) ?(time_limit = 240.0) ?db ?faults
    ?checkpoint dspace objective rng =
  (* One random starting point, no partitions, no systematic stopping:
     per iteration the 8 cores evaluate the next 8 proposals and the
     clock advances by the slowest of them. *)
  Obs.set_clock 0.0;
  Obs.span "dse.vanilla" @@ fun () ->
  let db_before = Option.map Resultdb.snapshot db in
  trace_run_begin ~flow:"vanilla" ~cores ~time_limit;
  let search_objective = fault_objective faults objective in
  let seeds = [ Space.random_cfg rng dspace.Dspace.ds_space ] in
  let tuner =
    Tuner.create ~seeds ?db dspace.Dspace.ds_space search_objective
      (Rng.split rng)
  in
  let clock = ref 0.0 in
  let events = ref [] in
  let evals = ref 0 in
  let global_best = ref None in
  (* Core deaths shrink the batch width: each subsequent iteration
     evaluates one proposal per surviving core. *)
  let alive = Array.make cores true in
  let alive_count () = Array.fold_left (fun n a -> if a then n + 1 else n) 0 alive in
  let tuner_reg = ref [ (0, tuner) ] in
  let ck =
    ck_machine checkpoint ~flow:"vanilla"
      ~core_time:(fun () -> [| !clock |])
      ~evals ~global_best ~db ~tuners:tuner_reg
  in
  (* The single whole-space tuner is "partition 0" in the trace. *)
  Obs.set_partition 0;
  while !clock < time_limit && not (db_stuck db tuner) && alive_count () > 0 do
    Obs.set_clock !clock;
    let batch =
      Obs.span "dse.batch" (fun () ->
          let batch = Tuner.step_batch tuner (alive_count ()) in
          let slowest =
            List.fold_left (fun m o -> Float.max m o.Tuner.o_minutes) 0.0 batch
          in
          (* Simulated cores run the batch in parallel: the clock moves
             by the slowest member, not the sum the estimator charged. *)
          clock := !clock +. slowest;
          Obs.set_clock !clock;
          batch)
    in
    List.iter
      (fun o ->
        incr evals;
        events :=
          { ev_minutes = !clock;
            ev_perf = o.Tuner.o_perf;
            ev_feasible = o.Tuner.o_feasible;
            ev_partition = 0;
            ev_technique = o.Tuner.o_technique }
          :: !events;
        trace_eval_done ~partition:0 o;
        if o.Tuner.o_feasible then
          match !global_best with
          | Some (_, b) when b <= o.Tuner.o_perf -> ()
          | _ -> global_best := Some (o.Tuner.o_cfg, o.Tuner.o_perf))
      batch;
    ck !clock;
    match faults with
    | None -> ()
    | Some inj ->
      let losses = Fault.take_core_losses inj in
      if losses > 0 then
        (* Without per-core clocks the dying core is anonymous; kill
           the highest-indexed survivors (deterministic). *)
        kill_cores alive ~first:(-1) ~partition:0 losses
  done;
  let rr_minutes = if !clock < time_limit then !clock else time_limit in
  { rr_events = List.rev !events;
    rr_best = !global_best;
    rr_minutes;
    rr_evals = !evals;
    rr_cache = db_finish db db_before;
    rr_metrics =
      trace_finish ~minutes:rr_minutes ~evals:!evals ~best:!global_best;
    rr_fault = Option.map Fault.stats faults }

(* ---------- resume ---------- *)

(* Replay-based recovery. Tuner state is closure-laden (technique
   cursors, bandit history) and cannot be serialized faithfully, but it
   does not need to be: the whole stack is deterministic, so re-running
   from the recorded configuration regenerates the crashed run's every
   intermediate state. The stored snapshot then serves as a tamper
   check — when the re-run crosses the snapshot's minute it must
   reproduce the stored body byte for byte, or the caller supplied a
   different seed, option set or fault spec than the original run. By
   the same determinism, the resumed run's final best is bit-identical
   to an uninterrupted run's. *)
let resume_from_checkpoint ?opts ?setup_evals ?db ?faults ?checkpoint
    ~snapshot dspace objective rng =
  let expected = ck_lines snapshot in
  let state = ref `Pending in
  let user_hook =
    match checkpoint with Some c -> c.ck_hook | None -> None
  in
  let hook ck =
    (if !state = `Pending && ck.ck_minutes = snapshot.ck_minutes then
       if ck_lines { ck with ck_meta = snapshot.ck_meta } = expected then
         state := `Validated
       else state := `Diverged);
    Option.iter (fun h -> h ck) user_hook
  in
  let ck_opts =
    match checkpoint with
    | Some c ->
      { c with
        ck_every = snapshot.ck_every;
        ck_hook = Some hook;
        ck_meta = (if c.ck_meta = [] then snapshot.ck_meta else c.ck_meta) }
    | None ->
      { ck_path = None;
        ck_every = snapshot.ck_every;
        ck_meta = snapshot.ck_meta;
        ck_hook = Some hook }
  in
  let run =
    match snapshot.ck_flow with
    | "s2fa" ->
      Ok
        (run_s2fa ?opts ?db ?faults ~checkpoint:ck_opts dspace
           objective rng)
    | "dynamic" ->
      Ok
        (run_dynamic ?opts ?setup_evals ?db ?faults ~checkpoint:ck_opts
           dspace objective rng)
    | "vanilla" ->
      let o = Option.value ~default:default_s2fa_opts opts in
      Ok
        (run_vanilla ~cores:o.so_cores ~time_limit:o.so_time_limit ?db
           ?faults ~checkpoint:ck_opts dspace objective rng)
    | f -> Error (Printf.sprintf "unknown flow %S in checkpoint" f)
  in
  match run with
  | Error _ as e -> e
  | Ok rr -> (
    match !state with
    | `Validated -> Ok rr
    | `Diverged ->
      Error
        "resume diverged from the checkpoint: the seed, options or fault \
         spec differ from the run that wrote it"
    | `Pending ->
      Error
        (Printf.sprintf
           "resume never reached the checkpoint at %.1f virtual minutes \
            (different configuration, or a shorter time limit)"
           snapshot.ck_minutes))
