(** The JSONL checkpoint envelope shared by every snapshot writer (the
    DSE driver and the serving fleet). A checkpoint file is one JSON
    object per line:

    {v
    {"ck":"<kind>", ...header fields...}
    {"ck":"meta","k":"...","v":"..."}          zero or more
    ...the writer's body records, each ck-tagged...
    {"ck":"end","lines":N}
    v}

    where [N] counts every line before the end marker. A truncated
    write loses the marker or breaks the count, and {!of_lines} rejects
    it. {!write} goes through [path ^ ".tmp"] and a rename, so a crash
    mid-write never leaves a torn file behind. Every line is one
    {!Telemetry.Json.obj}, whose floats are bit-exact, so a
    deterministic re-run regenerates a stored snapshot byte for byte:
    resume validation compares lines exactly. *)

type record = (string * Telemetry.Json.v) list
(** One parsed line, fields in source order. *)

type t = {
  kind : string;  (** The header line's [ck] tag. *)
  header : record;  (** Every header field, [ck] included. *)
  meta : (string * string) list;  (** The meta pairs, in file order. *)
  body : record list;
      (** The writer's records, in file order; meta lines and the end
          marker excluded. *)
  lines : string list;
      (** Every stored line, trimmed, blank lines dropped, end marker
          included — what {!render} produced. *)
}

val render :
  kind:string ->
  header:record ->
  meta:(string * string) list ->
  record list ->
  string list
(** [render ~kind ~header ~meta body] is the header line
    [{"ck":kind,header...}], one meta line per pair, one line per body
    record (each carries its own [ck] tag), then the end marker. *)

val write : string -> string list -> unit
(** [write path lines] writes one line each to [path ^ ".tmp"], then
    renames it over [path]. *)

val of_lines : string list -> (t, string) result
(** Validate and parse a rendered checkpoint. Blank lines are ignored.
    Rejects malformed JSON, an untagged line, a missing end marker, a
    line count that disagrees with it, and a missing header. Never
    raises. *)

val load : string -> (t, string) result
(** {!of_lines} on a file's lines; an unreadable file is an [Error]. *)
