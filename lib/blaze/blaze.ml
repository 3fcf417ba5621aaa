module Ast = S2fa_scala.Ast
module Insn = S2fa_jvm.Insn
module Interp = S2fa_jvm.Interp
module Cinterp = S2fa_hlsc.Cinterp
module Csyntax = S2fa_hlsc.Csyntax
module Decompile = S2fa_b2c.Decompile
module Estimate = S2fa_hls.Estimate
module Telemetry = S2fa_telemetry.Telemetry
module Obs = S2fa_obs.Obs

exception Blaze_error of string

let err fmt = Printf.ksprintf (fun m -> raise (Blaze_error m)) fmt

type accel = {
  acc_id : string;
  acc_prog : Csyntax.cprog;
  acc_iface : Decompile.iface;
  acc_input_ty : Ast.ty;
  acc_output_ty : Ast.ty;
  acc_fields : (string * Interp.value) list;
  acc_buffer_elems : (string * int) list;
  acc_compiled : Cinterp.program;
}

type manager = { mutable accels : (string * accel) list }

let create_manager () = { accels = [] }

let register m a =
  m.accels <- (a.acc_id, a) :: List.remove_assoc a.acc_id m.accels

let find m id = List.assoc_opt id m.accels

(* Per-dispatch metrics in the installed tracer's registry: a global and
   a per-accelerator counter, plus a histogram of simulated batch
   seconds. Dispatch accounting only: no events are emitted. *)
let note_dispatch ~op ~id ~tasks ~seconds =
  match Obs.metrics () with
  | None -> ()
  | Some ms ->
    Telemetry.Metrics.incr ms "blaze.dispatch";
    Telemetry.Metrics.incr ms (Printf.sprintf "blaze.dispatch.%s.%s" op id);
    Telemetry.Metrics.incr ~by:tasks ms "blaze.tasks";
    Telemetry.Metrics.observe ms "blaze.batch_seconds" seconds

type timed_result = {
  tr_values : Interp.value array;
  tr_seconds : float;
  tr_detail : (string * float) list;
}

let jvm_hz = 3.0e9

(* A Spark executor does not run bare JIT-perfect code: closures are
   dispatched per record, values cross generic interfaces (boxing), and
   the GC taxes every allocation. Calibrated against published
   Spark-vs-native gaps: ~4x on the modeled instruction costs plus a
   fixed per-record overhead of about 2 microseconds. *)
let spark_cost_factor = 4.0

let spark_task_overhead_cycles = 6_000.0

(* Host-side (de)serialization throughput: reflection-based object
   scatter/gather on the JVM, roughly 1 GB/s. *)
let serde_bytes_per_second = 1.0e9

(* The accelerated path both operators share: serialize [tasks], run
   the kernel with [out_tasks] output slots, read the results back with
   [read], and time the batch. *)
let accelerated a ~op ~input_ty ~out_tasks tasks read =
  Obs.span "blaze.accelerated" @@ fun () ->
  let n = Array.length tasks in
  let iface = a.acc_iface in
  let args, outputs =
    Obs.span "blaze.serde" (fun () ->
        let inputs =
          try Serde.serialize_inputs iface input_ty tasks
          with Serde.Serde_error msg -> err "serialization failed: %s" msg
        in
        let outputs = Serde.alloc_outputs iface out_tasks in
        let fields =
          try Serde.field_buffers iface a.acc_fields
          with Serde.Serde_error msg -> err "field packing failed: %s" msg
        in
        ((("N", Cinterp.VI n) :: inputs) @ outputs @ fields, outputs))
  in
  Obs.span "hlsc.cinterp" (fun () ->
      try ignore (Cinterp.run a.acc_compiled iface.Decompile.if_kernel args)
      with Cinterp.C_error msg -> err "kernel execution failed: %s" msg);
  let values = Obs.span "blaze.serde" (fun () -> read outputs) in
  (* The estimator charges its modeled DSE minutes to the ambient clock;
     a batch runs on its caller's virtual time, so they are dropped. *)
  let report =
    Obs.off_clock (fun () ->
        Estimate.estimate a.acc_prog ~tasks:n ~buffer_elems:a.acc_buffer_elems)
  in
  let serde_s = Serde.bytes_of_iface iface ~tasks:n /. serde_bytes_per_second in
  let fpga_s = report.Estimate.r_seconds in
  note_dispatch ~op ~id:a.acc_id ~tasks:n ~seconds:(serde_s +. fpga_s);
  { tr_values = values;
    tr_seconds = serde_s +. fpga_s;
    tr_detail = [ ("serde", serde_s); ("fpga", fpga_s) ] }

let map_accelerated m ~id tasks =
  match find m id with
  | None -> err "no accelerator registered under id %s" id
  | Some a ->
    let n = Array.length tasks in
    if n = 0 then { tr_values = [||]; tr_seconds = 0.0; tr_detail = [] }
    else
      accelerated a ~op:"map" ~input_ty:a.acc_input_ty ~out_tasks:n tasks
        (fun outputs ->
          Array.init n (fun t ->
              Serde.deserialize_output a.acc_iface a.acc_output_ty outputs t))

let reduce_accelerated m ~id tasks =
  match find m id with
  | None -> err "no accelerator registered under id %s" id
  | Some a ->
    if not a.acc_iface.Decompile.if_reduce then
      err "accelerator %s implements the map operator, not reduce" id;
    if Array.length tasks = 0 then err "reduce of an empty batch";
    accelerated a ~op:"reduce" ~input_ty:a.acc_output_ty ~out_tasks:1 tasks
      (fun outputs ->
        [| Serde.deserialize_output a.acc_iface a.acc_output_ty outputs 0 |])

let map_jvm prog tasks =
  let cycles = ref 0.0 in
  let values =
    Array.map
      (fun task ->
        let r = Interp.run prog "call" [ task ] in
        cycles := !cycles +. r.Interp.rcycles;
        r.Interp.rvalue)
      tasks
  in
  let n = float_of_int (Array.length tasks) in
  let seconds =
    ((!cycles *. spark_cost_factor) +. (n *. spark_task_overhead_cycles))
    /. jvm_hz
  in
  { tr_values = values;
    tr_seconds = seconds;
    tr_detail = [ ("jvm", seconds) ] }

let reduce_jvm prog tasks =
  if Array.length tasks = 0 then err "reduce of an empty batch";
  let cycles = ref 0.0 in
  let acc = ref tasks.(0) in
  for i = 1 to Array.length tasks - 1 do
    let r = Interp.run prog "call" [ Interp.VTuple [| !acc; tasks.(i) |] ] in
    cycles := !cycles +. r.Interp.rcycles;
    acc := r.Interp.rvalue
  done;
  let n = float_of_int (Array.length tasks) in
  let seconds =
    ((!cycles *. spark_cost_factor) +. (n *. spark_task_overhead_cycles))
    /. jvm_hz
  in
  { tr_values = [| !acc |];
    tr_seconds = seconds;
    tr_detail = [ ("jvm", seconds) ] }
