(* Smith-Waterman, the paper's running example, deployed end to end:

   compile -> explore the design space -> register the best design with
   the Blaze manager -> run a batch of string pairs on both the JVM
   baseline and the simulated accelerator -> check the results agree and
   report the speedup.

   Run with: dune exec examples/smith_waterman.exe *)

module W = S2fa_workloads.Workloads
module S2fa = S2fa_core.S2fa
module Blaze = S2fa_blaze.Blaze
module Rdd = S2fa_blaze.Rdd
module Driver = S2fa_dse.Driver
module Interp = S2fa_jvm.Interp
module Rng = S2fa_util.Rng

let () =
  let w = Option.get (W.find "S-W") in
  let c = W.compile w in
  Printf.printf "compiled %s: %d-point design space\n%!" w.W.w_name
    (int_of_float
       (Float.min 1e18
          (S2fa_tuner.Space.cardinality
             c.S2fa.c_dspace.S2fa_dse.Dspace.ds_space)));

  (* Short DSE run (30 simulated minutes on 8 cores). *)
  let opts =
    { Driver.default_s2fa_opts with Driver.so_time_limit = 120.0 }
  in
  let dse = S2fa.explore ~opts ~tasks:w.W.w_tasks c (Rng.create 1) in
  let design =
    match dse.Driver.rr_best with
    | Some (cfg, perf) ->
      Printf.printf
        "DSE found a %.2f ms design in %.0f simulated minutes (%d HLS runs)\n%!"
        (1000.0 *. perf) dse.Driver.rr_minutes dse.Driver.rr_evals;
      cfg
    | None -> failwith "DSE found nothing feasible"
  in

  (* Build the Spark-side data: an RDD of string pairs. *)
  let rng = Rng.create 42 in
  let pairs = Rdd.of_array ~partitions:4 (w.W.w_gen rng 256) in

  (* Blaze integration: register the accelerator, then map each RDD
     partition through it. *)
  let manager = Blaze.create_manager () in
  Blaze.register manager (S2fa.make_accelerator ~design c ~fields:[]);

  let fpga_seconds = ref 0.0 in
  let accelerated =
    Rdd.map_partitions
      (fun part ->
        let r = Blaze.map_accelerated manager ~id:"S-W" part in
        fpga_seconds := !fpga_seconds +. r.Blaze.tr_seconds;
        r.Blaze.tr_values)
      pairs
  in

  (* JVM baseline: the same map on a single-threaded executor. *)
  let jvm_seconds = ref 0.0 in
  let jvm = S2fa.jvm_program c ~fields:[] in
  let baseline =
    Rdd.map_partitions
      (fun part ->
        let r = Blaze.map_jvm jvm part in
        jvm_seconds := !jvm_seconds +. r.Blaze.tr_seconds;
        r.Blaze.tr_values)
      pairs
  in

  (* Functional equivalence across the whole RDD. *)
  let a = Rdd.collect accelerated and b = Rdd.collect baseline in
  let agree = ref true in
  Array.iteri
    (fun i v -> if not (Interp.equal_value v b.(i)) then agree := false)
    a;
  Printf.printf "results agree on %d pairs: %b\n" (Array.length a) !agree;
  Printf.printf "JVM executor: %8.3f ms\n" (1000.0 *. !jvm_seconds);
  Printf.printf "accelerator:  %8.3f ms\n" (1000.0 *. !fpga_seconds);
  Printf.printf "speedup:      %8.1fx\n" (!jvm_seconds /. !fpga_seconds);
  if not !agree then exit 1
