(** The ambient observability context: one virtual clock, the installed
    tracer and the pipeline-wide hierarchical span profiler.

    Layered on [lib/telemetry]'s determinism contract: events and spans
    carry the {e virtual} clock (simulated minutes, the same clock Fig.
    3 plots), so their stamps are byte-reproducible under a fixed RNG
    seed. Spans also carry the host clock (wall nanoseconds plus
    [Gc.allocated_bytes] delta) for real hotspot hunting; it is
    serialized only on request (the [S2FA_PROFILE_HOST] environment
    variable, or [~host:true]).

    Instrumented code threads neither a tracer nor a profiler through
    its signatures: both are installed per call ({!with_tracer},
    {!with_profiler}), mirroring the [Transform.set_self_check]
    backstop. The run entry points ([S2fa.explore], [Fleet.serve],
    [Federation.serve], ...) keep a [?trace] argument that installs
    exactly that tracer, or none, for the run. With nothing installed,
    every instrumentation point costs a [ref] read or a float store and
    allocates nothing; [test/test_obs.ml] holds the pipeline to zero
    observer effect, and each instrument to leaving the other's bytes
    alone. *)

module Telemetry = S2fa_telemetry.Telemetry

module Profiler : sig
  (** A completed span. [sp_wall_ns] / [sp_alloc_bytes] are host-side
      and non-deterministic; everything else is stable under a fixed
      seed. *)
  type span = {
    sp_id : int;            (** Allocation order (deterministic). *)
    sp_parent : int;        (** Parent span id, [-1] at the root. *)
    sp_name : string;       (** E.g. ["hls.estimate"]. *)
    sp_path : string;       (** Semicolon-joined ancestry incl. self. *)
    sp_vbegin : float;      (** Virtual minutes at open. *)
    sp_vend : float;        (** Virtual minutes at close. *)
    sp_wall_ns : float;     (** Host wall-clock nanoseconds spent. *)
    sp_alloc_bytes : float; (** [Gc.allocated_bytes] delta. *)
    sp_counters : (string * int) list;  (** Sorted by name. *)
  }

  type t

  val create : ?size:int -> unit -> t
  (** [size] is the initial capacity of the per-span counter tables; it
      must not affect any serialized byte (the pool-size determinism
      test sweeps it). Spans are stamped with {!clock}. *)

  val spans : t -> span list
  (** Completed spans, in completion order (children before parents). *)

  val depth : t -> int
  (** Open spans on the stack (0 outside any {!val:span}). *)
end

(** {1 The virtual clock}

    One clock serves both instruments and runs whether or not either is
    installed; each run entry point starts it at 0. {!set_clock} sets
    its anchor, which events are stamped with. Cost models charge
    modeled time with {!advance_clock}, which moves span stamps only:
    events emitted inside an evaluation keep the minute the driver
    anchored. *)

val set_clock : float -> unit
(** Set the anchor and the span clock. Drivers call this with the
    active core's clock before handing control to instrumented code. *)

val clock : unit -> float
(** The span clock: the anchor plus the charges made since, added one
    at a time. *)

val advance_clock : float -> unit

val off_clock : (unit -> 'a) -> 'a
(** Run the thunk on its caller's virtual time: {!set_clock} and
    {!advance_clock} are ignored inside it. Serving wraps its per-batch
    estimates in it (the modeled DSE minutes they would charge are not
    serving time), and the federation its nested re-tuning DSE. *)

(** {1 The ambient tracer} *)

val with_tracer : Telemetry.t option -> (unit -> 'a) -> 'a
(** Install exactly this tracer ([None]: none) for the thunk, then
    restore the previous one, also on exceptions. Re-installing the
    installed tracer costs nothing. *)

val tracing : unit -> bool

val emit : Telemetry.kind -> unit
(** Emit to the installed tracer, stamped with the anchor; a no-op
    without one. Guard the event's construction with {!tracing} to keep
    the untraced path allocation-free. *)

val emit_at : float -> Telemetry.kind -> unit
(** {!emit} stamped with these minutes, leaving the clock alone: for a
    simulation that keeps its own time, like each of a federation's
    fleet pools. *)

val stage : string -> (unit -> 'a) -> 'a
(** Bracket a pipeline stage with [Span_begin name] / [Span_end name],
    also when the thunk raises. *)

val set_partition : int -> unit
(** The installed tracer's partition context (see
    {!Telemetry.set_partition}); [partition ()] is [-1] without one. *)

val partition : unit -> int

val metrics : unit -> Telemetry.Metrics.t option

val flush : unit -> unit

(** {1 The ambient profiler} *)

val profiler : unit -> Profiler.t option

val enabled : unit -> bool

val with_profiler : Profiler.t -> (unit -> 'a) -> 'a
(** Install [p], run the thunk, restore the previous profiler (also on
    exceptions). *)

(** {1 Instrumentation points} *)

val span : string -> (unit -> 'a) -> 'a
(** Bracket a computation in a named span. No-op without a profiler;
    closes the span when the thunk raises. Names should be
    dot-separated [layer.operation] (the first component feeds the
    per-stage share table); semicolons are rewritten to commas so the
    folded-stack encoding stays unambiguous. *)

val count : ?by:int -> string -> unit
(** Bump a counter on the innermost open span ([by] defaults to 1).
    Ignored without a profiler or outside any span. *)

(** {1 Serialization} *)

val span_to_json : ?host:bool -> Profiler.span -> string
(** One flat JSON object, no trailing newline. Counters appear as
    ["c.<name>"] keys, sorted. Host fields ([wall_ns], [alloc_bytes])
    are emitted only with [~host:true] — they are not reproducible. *)

val span_of_json : string -> Profiler.span option
(** Inverse of {!span_to_json}; [None] on malformed input. Host fields
    default to [0.] when absent. *)

val write_jsonl : ?host:bool -> out_channel -> Profiler.span list -> unit

val load_file : string -> Profiler.span list
(** Parse a span JSONL file.
    @raise Failure naming the first malformed line. *)

val host_requested : unit -> bool
(** True when [S2FA_PROFILE_HOST] is set to anything but ["0"]. *)

(** {1 Folded stacks (flamegraph.pl / speedscope)} *)

val folded : Profiler.span list -> (string * int) list
(** Aggregate {e self} virtual time by span path: weight is
    micro-minutes (rounded [1e6 * minutes]). When the whole profile has
    zero virtual duration (compile-only runs: [verify], [fuzz]), the
    weights fall back to span counts so the flamegraph still renders.
    Sorted by path. *)

val write_folded : out_channel -> Profiler.span list -> unit
(** One [path weight] line per {!folded} entry. *)

(** {1 Report (the [s2fa prof] subcommand)} *)

val print_report : ?top:int -> Format.formatter -> Profiler.span list -> unit
(** Span tree (aggregated by path) with total/self time, calls and
    counters; per-stage share table keyed on the first dot-component of
    each span name; top-[top] self-time hotspots (default 10). Host
    columns appear only when the log carries host fields. *)

(** {1 Prometheus text exposition} *)

val prometheus_of_snapshot : Telemetry.Metrics.snapshot -> string
(** Render a metrics snapshot in the Prometheus text exposition format
    (counters, gauges, and histograms with [_bucket]/[_sum]/[_count]
    series). Metric names are sanitized ([.] and other non-identifier
    characters become [_]) and prefixed with [s2fa_]. *)
