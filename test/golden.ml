(* Committed goldens under [golden/].

   A digest golden has one line per case, "<case> <md5> <md5> ...": the
   digests of the byte strings the case produced, in a fixed order. A
   test owns the cases under its [prefix]; with S2FA_UPDATE_GOLDEN=1 it
   rewrites those lines (keeping every other test's) instead of
   checking them.

   - [engine_sweep.md5], "<case> <md5 report> <md5 jsonl>", was produced
     by the retired linear-scan event engine, so a match is the old
     heap-vs-scan differential against a recorded oracle.
   - [value_path.md5] was produced by the per-instruction JVM
     interpreter and the environment-table C interpreter that the
     decode-once interpreters replaced, so a match is the old-vs-new
     value-path differential; its [jvm-frac/] and [jvm-hand/] cases
     were recorded by the operand-stack interpreter that the
     tree-compiled one replaced.
   - [b2c.md5] holds the C the decompiler emitted while it still ran
     the operand stack itself, before it mapped the shared
     stack-to-tree pass's trees.
   - [events.jsonl] holds the JSONL encoding of one trace event of
     every kind, recorded by the hand-written per-kind encoder that the
     event table replaced.
   - [observability.md5] also pins DSE and fleet checkpoint files
     (cases [ck/...]). *)

(* dune runtest runs us in test/; a bare [dune exec] runs from the
   workspace root. Pick by directory, not file, so the update mode can
   create a golden that does not exist yet. *)
let file name =
  let dir =
    if Sys.file_exists "golden" && Sys.is_directory "golden" then "golden"
    else "test/golden"
  in
  Filename.concat dir name

let update = Sys.getenv_opt "S2FA_UPDATE_GOLDEN" = Some "1"

let md5 s = Digest.to_hex (Digest.string s)

let read golden =
  let path = file golden in
  if not (Sys.file_exists path) then []
  else
    In_channel.with_open_bin path In_channel.input_lines
    |> List.filter_map (fun l ->
           match String.split_on_char ' ' l with
           | case :: (_ :: _ as digests) -> Some (case, digests)
           | _ -> None)

(* [cases] are [(case, [(part, bytes); ...])]; a mismatch names every
   case that moved and which of its parts. *)
let check ~golden ~prefix cases =
  let mine (c, _) = String.starts_with ~prefix c in
  let got =
    List.map (fun (c, parts) -> (c, List.map (fun (p, s) -> (p, md5 s)) parts))
      cases
  in
  if update then
    let others = List.filter (fun e -> not (mine e)) (read golden) in
    Out_channel.with_open_bin (file golden) (fun oc ->
        List.iter
          (fun (c, ds) -> Printf.fprintf oc "%s %s\n" c (String.concat " " ds))
          (others @ List.map (fun (c, ps) -> (c, List.map snd ps)) got))
  else begin
    let want = List.filter mine (read golden) in
    let moved =
      List.filter_map
        (fun (c, parts) ->
          match List.assoc_opt c want with
          | None -> Some (c ^ ": not in the golden")
          | Some ds when List.length ds <> List.length parts ->
            Some (c ^ ": digest count differs")
          | Some ds ->
            let diff =
              List.filter_map
                (fun ((p, d), d') -> if d <> d' then Some (" " ^ p) else None)
                (List.combine parts ds)
            in
            if diff = [] then None
            else Some (Printf.sprintf "%s:%s moved" c (String.concat "" diff)))
        got
      @ List.filter_map
          (fun (c, _) ->
            if List.mem_assoc c got then None
            else Some (c ^ ": in the golden but not produced"))
          want
    in
    if moved <> [] then
      Alcotest.failf "%s golden mismatch:\n  %s" golden
        (String.concat "\n  " moved)
  end

(* A text golden is the committed file itself, compared byte for byte. *)
let check_text ~golden text =
  if update then
    Out_channel.with_open_bin (file golden) (fun oc ->
        Out_channel.output_string oc text)
  else
    let path = file golden in
    if not (Sys.file_exists path) then Alcotest.failf "%s: missing" golden
    else
      Alcotest.(check string) (golden ^ " golden")
        (In_channel.with_open_bin path In_channel.input_all)
        text

let check_sweep ~prefix cases =
  check ~golden:"engine_sweep.md5" ~prefix
    (List.map (fun (c, r, j) -> (c, [ ("report", r); ("jsonl", j) ])) cases)
