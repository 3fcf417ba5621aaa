(* Host-side measurement helpers: wall clock, allocation counters,
   order statistics and the result line. *)

let now = Unix.gettimeofday

(* Words allocated so far: minor allocations plus direct major ones,
   promotions counted once. Exact over a window only when the minor
   heap is empty at both ends, so [timed] empties it outside the clock. *)
let words () =
  Gc.minor ();
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* [timed f] runs [f] and returns its result, host seconds and the
   words it allocated. *)
let timed f =
  let w0 = words () in
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  (r, t1 -. t0, words () -. w0)

let seconds_of f =
  let _, s, _ = timed f in
  s

let median = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sum = List.fold_left ( +. ) 0.0

(* The host time of one pass, from passes that each time the same pieces
   of identical work ([pieces.(i)] in every pass is the same piece): the
   sum over pieces of each piece's fastest time. Interference from other
   tenants of the host comes in bursts that only ever slow the code they
   land on, so the fastest time of each short piece is a steadier
   estimate of the program's own speed than any whole pass. *)
let fastest_sum = function
  | [] -> invalid_arg "Meter.fastest_sum: no pass"
  | p0 :: rest ->
    let best = Array.copy p0 in
    List.iter
      (fun p ->
        if Array.length p <> Array.length best then
          failwith "Meter.fastest_sum: passes cut into different pieces";
        Array.iteri (fun i s -> best.(i) <- Float.min best.(i) s) p)
      rest;
    Array.fold_left ( +. ) 0.0 best

(* Peak major-heap size of the process so far, in MiB. *)
let peak_heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* Repeat [f] until [budget] seconds have passed, at least once, each
   run starting from a fully collected heap so that no run pays for
   garbage an earlier one left, and [between] called before every run
   but the first; returns the per-run results in order and the peak heap
   after the first run — a point that does not depend on host speed. *)
let repeat_for_heap ?(between = ignore) budget f =
  let t0 = now () in
  let run () =
    Gc.full_major ();
    f ()
  in
  let first = run () in
  let heap = peak_heap_mb () in
  let rec go acc =
    if now () -. t0 >= budget then List.rev acc
    else begin
      between ();
      go (run () :: acc)
    end
  in
  (go [ first ], heap)

(* [ratio a b] is [a /. b], or 0 when nothing was measured. *)
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* The program's own telemetry tracer with an in-memory collector large
   enough to keep every event of one pass. *)
let tracer () =
  let module Telemetry = S2fa_telemetry.Telemetry in
  let sink, events = Telemetry.collector ~capacity:(1 lsl 22) () in
  (Telemetry.create ~sinks:[ sink ] (), events)

type metric = { m_name : string; m_unit : string; m_value : float }

let metric m_name m_unit m_value = { m_name; m_unit; m_value }

(* Operations attempted and failed by the output checks of one run. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let check t ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1

let json_float f =
  if Float.is_finite f then Printf.sprintf "%.17g" f
  else invalid_arg "Meter.json_float: non-finite metric"

let result_line t metrics =
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name
          (json_float m.m_value) m.m_unit)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (t.failed = 0 && t.attempted > 0)
    t.attempted t.failed
    (String.concat ", " fields)

