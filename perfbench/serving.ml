(* The two serving workloads (serve-sw, federate-pr), their output
   check against the JVM oracle, and the traced replay of the value
   path (JVM interpreter, serde, C interpreter, per-batch estimate). *)

module Fleet = S2fa_fleet.Fleet
module Fed = S2fa_federation.Federation
module Traffic = S2fa_workloads.Traffic
module Workloads = S2fa_workloads.Workloads
module Blaze = S2fa_blaze.Blaze
module Serde = S2fa_blaze.Serde
module Interp = S2fa_jvm.Interp
module Cinterp = S2fa_hlsc.Cinterp
module Estimate = S2fa_hls.Estimate
module Decompile = S2fa_b2c.Decompile
module Telemetry = S2fa_telemetry.Telemetry

let workload name =
  match Workloads.find name with
  | Some w -> w
  | None -> failwith ("unknown kernel " ^ name)

(* What one serve reports, for either entry point. The three floats are
   the simulated guards: they depend on the virtual clock only. *)
type served = {
  sv_results : Fleet.result list;  (* sorted by (app, id) *)
  sv_p50_ms : float;
  sv_p95_ms : float;
  sv_accel_share : float;
  sv_batches : int;
  sv_accelerated : int;
  sv_reconfigs : int;
  sv_leases : int;
  sv_pieces : float array;  (* host seconds of each piece of the serve *)
}

type scenario = {
  sc_kernel : string;
  sc_federated : bool;
  sc_apps : Fleet.app array;
  sc_requests : Fleet.request list;
  sc_gen_s : float;  (* host seconds spent generating the requests *)
  sc_serve : Telemetry.t option -> served;
}

let share a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* A horizon by which [count] Poisson arrivals at [rate] have come with
   near certainty (six standard deviations). *)
let horizon_for count rate =
  (float_of_int count +. (6.0 *. sqrt (float_of_int count)) +. 10.0) /. rate

(* The first [count] requests of a stream: a fixed input size, so the
   stream's length does not vary with the seed. *)
let first count reqs =
  if List.length reqs < count then failwith "request stream too short";
  List.filteri (fun i _ -> i < count) reqs

(* serve-sw: one 2-device pool, the S-W tenant at 100 req/s, batch 16,
   queue 64 (the `s2fa serve` defaults); the first 200 arrivals, about
   2 virtual seconds. They all come during the pool's 3 s bitstream load,
   so every seed fills the queue and sends about two thirds to the JVM:
   host time depends on the payloads, not on how the seed's arrivals
   happen to cluster.
   200 keeps 10 latency samples past the p95 and a pass short enough to
   run ~15 times in a 30 s run. *)
let serve_sw ?(count = 200) seed =
  let tenants =
    [ Traffic.tenant ~rate:100.0 ~batch:16 ~queue_cap:64 (workload "S-W") ]
  in
  let apps = Traffic.apps ~seed tenants in
  let horizon = horizon_for count 100.0 in
  let requests, gen_s, _ =
    Meter.timed (fun () ->
        first count (Traffic.requests ~seed ~horizon tenants))
  in
  let opts = { Fleet.default_opts with Fleet.o_devices = 2 } in
  (* Fleet.serve is exactly this loop over the stepping interface; each
     step is one timed piece of the pass. *)
  let serve trace =
    let sim = Fleet.make_sim ~opts ?trace apps requests in
    let steps = ref [] in
    let rec loop () =
      let t0 = Meter.now () in
      let more = sim.Fleet.s_step () in
      steps := (Meter.now () -. t0) :: !steps;
      if more then loop ()
    in
    loop ();
    let oc = sim.Fleet.s_finish () in
    let r = oc.Fleet.oc_report in
    let a = List.hd r.Fleet.rp_apps in
    { sv_results = oc.Fleet.oc_results;
      sv_p50_ms = a.Fleet.ar_p50_ms;
      sv_p95_ms = a.Fleet.ar_p95_ms;
      sv_accel_share = share r.Fleet.rp_accelerated r.Fleet.rp_requests;
      sv_batches = r.Fleet.rp_batches;
      sv_accelerated = r.Fleet.rp_accelerated;
      sv_reconfigs = r.Fleet.rp_reconfigs;
      sv_leases = 0;
      sv_pieces = Array.of_list (List.rev !steps) }
  in
  { sc_kernel = "S-W"; sc_federated = false; sc_apps = apps;
    sc_requests = requests; sc_gen_s = gen_s; sc_serve = serve }

(* federate-pr: 4 regions, 4 clusters of 4 devices, the PR tenant at
   100 req/s per region, least-queue routing, 2 ms one-way RTT off the
   home region, queue-depth autoscaling every 0.05 s up to 8 devices per
   cluster; the first 12,000 arrivals, about 30 virtual seconds. The
   serve is one timed piece: the federation has no stepping interface,
   so the federation is sized to keep a pass short. *)
let federate_pr seed =
  let count = 12_000 and clusters = 4 in
  let tenants = [ Traffic.tenant ~rate:100.0 (workload "PR") ] in
  let apps = Traffic.apps ~seed tenants in
  let regions =
    List.init clusters (fun i -> Traffic.region (Printf.sprintf "r%02d" i))
  in
  let members =
    List.init clusters (fun ci ->
        Fed.cluster ~devices:4
          ~rtt_s:(Array.init clusters (fun ri -> if ri = ci then 0.0 else 0.002))
          (Printf.sprintf "c%02d" ci))
  in
  let horizon = horizon_for count (100.0 *. float_of_int clusters) in
  let tagged, gen_s, _ =
    Meter.timed (fun () ->
        first count (Traffic.regional_requests ~seed ~horizon regions tenants))
  in
  let opts =
    { Fed.default_opts with
      Fed.fd_route = Fed.Least_queue;
      fd_seed = seed;
      fd_autoscale =
        Some
          { Fed.default_autoscale with
            Fed.as_max_devices = 8;
            as_interval_s = 0.05 } }
  in
  let tenants = Array.to_list (Array.map (fun a -> Fed.tenant a) apps) in
  let serve trace =
    let t0 = Meter.now () in
    let fo = Fed.serve ~opts ?trace ~clusters:members tenants tagged in
    let whole = Meter.now () -. t0 in
    let r = fo.Fed.fo_report in
    let sum f =
      List.fold_left (fun acc c -> acc + f c.Fed.cr_report) 0 r.Fed.fr_clusters
    in
    let accelerated = sum (fun p -> p.Fleet.rp_accelerated) in
    { sv_results = List.map snd fo.Fed.fo_results;
      sv_p50_ms = r.Fed.fr_p50_ms;
      sv_p95_ms = r.Fed.fr_p95_ms;
      sv_accel_share = share accelerated r.Fed.fr_requests;
      sv_batches = sum (fun p -> p.Fleet.rp_batches);
      sv_accelerated = accelerated;
      sv_reconfigs = sum (fun p -> p.Fleet.rp_reconfigs);
      sv_leases = r.Fed.fr_leases;
      sv_pieces = [| whole |] }
  in
  { sc_kernel = "PR"; sc_federated = true; sc_apps = apps;
    sc_requests = List.map snd tagged; sc_gen_s = gen_s; sc_serve = serve }

(* The guard tuple two passes over one stream must agree on exactly. *)
let guards sv = (sv.sv_p50_ms, sv.sv_p95_ms, sv.sv_accel_share)

(* {1 The JVM oracle} *)

(* The call Blaze.map_jvm makes for one task. *)
let jvm_call (a : Fleet.app) payload =
  Interp.run_method
    { Interp.icls = a.Fleet.ap_cls; ifields = a.Fleet.ap_fields }
    "call" [ payload ]

(* The expected value of every request: its payload run once on the JVM
   interpreter. *)
let oracle sc =
  let tbl = Hashtbl.create (List.length sc.sc_requests) in
  List.iter
    (fun (r : Fleet.request) ->
      Hashtbl.replace tbl (r.Fleet.rq_app, r.Fleet.rq_id)
        (jvm_call sc.sc_apps.(r.Fleet.rq_app) r.Fleet.rq_payload).Interp.rvalue)
    sc.sc_requests;
  tbl

(* Every request served exactly once, with the oracle's value: one
   attempted operation per request. *)
let check tally sc oracle results =
  let seen = Hashtbl.create (Hashtbl.length oracle) in
  List.iter
    (fun (rs : Fleet.result) ->
      let key = (rs.Fleet.rs_app, rs.Fleet.rs_id) in
      let ok =
        match Hashtbl.find_opt oracle key with
        | Some v -> Interp.equal_value v rs.Fleet.rs_value
        | None -> false
      in
      let prev = Option.value ~default:(0, true) (Hashtbl.find_opt seen key) in
      Hashtbl.replace seen key (fst prev + 1, snd prev && ok))
    results;
  List.iter
    (fun (r : Fleet.request) ->
      let key = (r.Fleet.rq_app, r.Fleet.rq_id) in
      Meter.check tally
        (match Hashtbl.find_opt seen key with
        | Some (1, ok) -> ok
        | _ -> false))
    sc.sc_requests;
  (* A result for a request that was never sent is a failure too. *)
  Hashtbl.iter
    (fun key _ -> if not (Hashtbl.mem oracle key) then Meter.check tally false)
    seen

(* {1 Traced replay of the value path} *)

(* Host seconds are kept per fallback request ([vp_jvm_s]) and per
   accelerated batch (the other [_s] arrays), so that several replays can
   be combined with Meter.fastest_sum. *)
type value_path = {
  vp_jvm_s : float array;
  vp_jvm_words : float;
  vp_jvm_insns : int;
  vp_acc_reqs : int;
  vp_whole_s : float array;  (* Blaze.map_accelerated, end to end *)
  vp_serde_s : float array;
  vp_cinterp_s : float array;
  vp_cinterp_words : float;
  vp_estimate_s : float array;
  vp_remote_share : float;
}

(* Replays one accelerated batch twice: whole through Blaze, then piece
   by piece through the layers Blaze composes. *)
let replay_batch mgr (acc : Blaze.accel) tasks =
  let n = Array.length tasks in
  let iface = acc.Blaze.acc_iface in
  let _, whole, _ =
    Meter.timed (fun () -> Blaze.map_accelerated mgr ~id:acc.Blaze.acc_id tasks)
  in
  let (inputs, outputs, fields), ser, _ =
    Meter.timed (fun () ->
        ( Serde.serialize_inputs iface acc.Blaze.acc_input_ty tasks,
          Serde.alloc_outputs iface n,
          Serde.field_buffers iface acc.Blaze.acc_fields ))
  in
  let args = (("N", Cinterp.VI n) :: inputs) @ outputs @ fields in
  let _, cs, cw =
    Meter.timed (fun () ->
        Cinterp.run_func acc.Blaze.acc_prog iface.Decompile.if_kernel args)
  in
  let _, de, _ =
    Meter.timed (fun () ->
        Array.init n (fun t ->
            Serde.deserialize_output iface acc.Blaze.acc_output_ty outputs t))
  in
  let _, es, _ =
    Meter.timed (fun () ->
        Estimate.estimate acc.Blaze.acc_prog ~tasks:n
          ~buffer_elems:acc.Blaze.acc_buffer_elems)
  in
  (whole, ser +. de, cs, cw, es)

(* [events] come from a traced serve whose outcome is [sv]. Fallback
   payloads are run again through the call Blaze.map_jvm makes;
   accelerated payloads are replayed, in id order, at the batch sizes the
   Serve_batch events recorded. *)
let replay sc sv events =
  let payload = Hashtbl.create (List.length sc.sc_requests) in
  List.iter
    (fun (r : Fleet.request) ->
      Hashtbl.replace payload (r.Fleet.rq_app, r.Fleet.rq_id) r.Fleet.rq_payload)
    sc.sc_requests;
  let jvm_s = ref [] and jvm_w = ref 0.0 in
  let insns = ref 0 and acc = ref [] in
  List.iter
    (fun (rs : Fleet.result) ->
      let app = rs.Fleet.rs_app in
      let p = Hashtbl.find payload (app, rs.Fleet.rs_id) in
      if rs.Fleet.rs_accelerated then acc := (app, p) :: !acc
      else begin
        let r, s, w = Meter.timed (fun () -> jvm_call sc.sc_apps.(app) p) in
        jvm_s := s :: !jvm_s;
        jvm_w := !jvm_w +. w;
        insns := !insns + r.Interp.rinsns
      end)
    sv.sv_results;
  let acc = Array.of_list (List.rev !acc) in
  let sizes, routes, remote =
    List.fold_left
      (fun (sizes, routes, remote) (e : Telemetry.event) ->
        match e.Telemetry.e_kind with
        | Telemetry.Serve_batch { size; _ } -> (size :: sizes, routes, remote)
        | Telemetry.Fed_route { rtt_minutes; _ } ->
          (sizes, routes + 1, if rtt_minutes > 0.0 then remote + 1 else remote)
        | _ -> (sizes, routes, remote))
      ([], 0, 0) (events ())
  in
  let mgr = Blaze.create_manager () in
  Array.iter (fun (a : Fleet.app) -> Blaze.register mgr a.Fleet.ap_accel) sc.sc_apps;
  let batches = ref [] and cw = ref 0.0 in
  let pos = ref 0 in
  List.iter
    (fun size ->
      (* One batch serves one app; cut it where the app changes. *)
      let n = ref 0 in
      while
        !n < size
        && !pos + !n < Array.length acc
        && fst acc.(!pos + !n) = fst acc.(!pos)
      do
        incr n
      done;
      if !n > 0 then begin
        let app = sc.sc_apps.(fst acc.(!pos)) in
        let tasks = Array.init !n (fun i -> snd acc.(!pos + i)) in
        let w, s, c, c_w, e = replay_batch mgr app.Fleet.ap_accel tasks in
        batches := (w, s, c, e) :: !batches;
        cw := !cw +. c_w;
        pos := !pos + !n
      end)
    (List.rev sizes);
  let batches = Array.of_list (List.rev !batches) in
  { vp_jvm_s = Array.of_list (List.rev !jvm_s);
    vp_jvm_words = !jvm_w;
    vp_jvm_insns = !insns;
    vp_acc_reqs = !pos;
    vp_whole_s = Array.map (fun (w, _, _, _) -> w) batches;
    vp_serde_s = Array.map (fun (_, s, _, _) -> s) batches;
    vp_cinterp_s = Array.map (fun (_, _, c, _) -> c) batches;
    vp_cinterp_words = !cw;
    vp_estimate_s = Array.map (fun (_, _, _, e) -> e) batches;
    vp_remote_share = share remote routes }
