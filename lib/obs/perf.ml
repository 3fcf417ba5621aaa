(* BENCH_<section>.json trajectories: one shared writer for the bench
   harness and a reader + comparator for the `s2fa perf diff` gate.

   The files are multi-line two-level JSON; the project's one JSON
   codec ([Telemetry.Json]) reads them, nested "results" object and
   newlines included. *)

module Json = S2fa_telemetry.Telemetry.Json

type t = {
  p_bench : string;
  p_unit : string;
  p_results : (string * float) list;
}

let save path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "{\n  \"bench\": \"%s\",\n  \"unit\": \"%s\",\n  \
                         \"results\": {\n"
        t.p_bench t.p_unit;
      let rows = List.sort compare t.p_results in
      let n = List.length rows in
      List.iteri
        (fun i (name, v) ->
          Printf.fprintf oc "    \"%s\": %.0f%s\n" name v
            (if i = n - 1 then "" else ","))
        rows;
      Printf.fprintf oc "  }\n}\n")

let load path =
  let src =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error m -> failwith m
  in
  match
    let fields = Json.parse_obj src in
    let results =
      List.map
        (fun (k, v) ->
          match v with Json.Jnum n -> (k, n) | _ -> raise Json.Bad)
        (Json.get_obj fields "results")
    in
    { p_bench = Json.get_str fields "bench";
      p_unit = Json.get_str fields "unit";
      p_results = List.sort compare results }
  with
  | t -> t
  | exception Json.Bad -> failwith (path ^ ": malformed BENCH trajectory")

(* ----------------------------- diffing ---------------------------- *)

type change = { c_name : string; c_old : float; c_new : float; c_pct : float }

type diff = {
  d_regressions : change list;
  d_improvements : change list;
  d_within : int;
  d_only_old : string list;
  d_only_new : string list;
}

let pct old_v new_v =
  if old_v = 0. then (if new_v = 0. then 0. else infinity)
  else 100. *. (new_v -. old_v) /. old_v

let diff ~threshold old_t new_t =
  let regs = ref [] and imps = ref [] and within = ref 0 in
  let only_old = ref [] and only_new = ref [] in
  List.iter
    (fun (k, old_v) ->
      match List.assoc_opt k new_t.p_results with
      | None -> only_old := k :: !only_old
      | Some new_v ->
        let p = pct old_v new_v in
        let c = { c_name = k; c_old = old_v; c_new = new_v; c_pct = p } in
        if p > threshold then regs := c :: !regs
        else if p < -.threshold then imps := c :: !imps
        else incr within)
    old_t.p_results;
  List.iter
    (fun (k, _) ->
      if not (List.mem_assoc k old_t.p_results) then only_new := k :: !only_new)
    new_t.p_results;
  let by_magnitude a b = compare (Float.abs b.c_pct, a.c_name)
                                 (Float.abs a.c_pct, b.c_name) in
  { d_regressions = List.sort by_magnitude !regs;
    d_improvements = List.sort by_magnitude !imps;
    d_within = !within;
    d_only_old = List.sort compare !only_old;
    d_only_new = List.sort compare !only_new }

let pp_pct ppf p =
  if Float.is_integer p && Float.abs p < 1e6 then Fmt.pf ppf "%+.0f%%" p
  else Fmt.pf ppf "%+.1f%%" p

let print_diff ppf ~threshold old_t new_t d =
  Fmt.pf ppf "perf diff: %s (%s), threshold %g%%@." old_t.p_bench
    old_t.p_unit threshold;
  if new_t.p_bench <> old_t.p_bench then
    Fmt.pf ppf "warning: comparing %s against %s@." new_t.p_bench
      old_t.p_bench;
  List.iter
    (fun c ->
      Fmt.pf ppf "REGRESSION %-44s %12.0f -> %12.0f  (%a)@." c.c_name c.c_old
        c.c_new pp_pct c.c_pct)
    d.d_regressions;
  List.iter
    (fun c ->
      Fmt.pf ppf "improved   %-44s %12.0f -> %12.0f  (%a)@." c.c_name c.c_old
        c.c_new pp_pct c.c_pct)
    d.d_improvements;
  List.iter (fun k -> Fmt.pf ppf "removed    %s@." k) d.d_only_old;
  List.iter (fun k -> Fmt.pf ppf "added      %s@." k) d.d_only_new;
  Fmt.pf ppf "%d regression(s), %d improvement(s), %d within %g%%@."
    (List.length d.d_regressions)
    (List.length d.d_improvements)
    d.d_within threshold
