module Json = Telemetry.Json

type record = (string * Json.v) list

type t = {
  kind : string;
  header : record;
  meta : (string * string) list;
  body : record list;
  lines : string list;
}

let render ~kind ~header ~meta body =
  let open Json in
  let lines =
    obj (("ck", Jstr kind) :: header)
    :: List.map
         (fun (k, v) ->
           obj [ ("ck", Jstr "meta"); ("k", Jstr k); ("v", Jstr v) ])
         meta
    @ List.map obj body
  in
  lines @ [ obj [ ("ck", Jstr "end"); ("lines", Jint (List.length lines)) ] ]

let write path lines =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_text tmp (fun oc ->
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        lines);
  Sys.rename tmp path

let of_lines lines =
  let lines = List.filter (fun l -> l <> "") (List.map String.trim lines) in
  match
    List.map
      (fun l ->
        let r = Json.parse_obj l in
        (Json.get_str r "ck", r))
      lines
  with
  | exception Json.Bad -> Error "malformed checkpoint JSON"
  | tagged -> (
    match List.rev tagged with
    | ("end", last) :: rev_rest -> (
      match Json.get_int last "lines" with
      | exception Json.Bad -> Error "malformed checkpoint JSON"
      | n when n <> List.length rev_rest ->
        Error "checkpoint truncated: line count does not match its end marker"
      | _ -> (
        match List.rev rev_rest with
        | [] -> Error "checkpoint has no header line"
        | ("meta", _) :: _ -> Error "first checkpoint line is not a header"
        | (kind, header) :: rest -> (
          let meta, body =
            List.partition_map
              (fun (tag, r) ->
                if tag = "meta" then Left r else Right r)
              rest
          in
          match
            List.map (fun r -> (Json.get_str r "k", Json.get_str r "v")) meta
          with
          | exception Json.Bad -> Error "malformed checkpoint meta line"
          | meta -> Ok { kind; header; meta; body; lines })))
    | _ -> Error "checkpoint missing its end marker (truncated write?)")

let load path =
  match In_channel.with_open_text path In_channel.input_lines with
  | exception Sys_error m -> Error m
  | lines -> of_lines lines
