(* Committed goldens under [golden/].

   The engine-sweep digest golden, [engine_sweep.md5], has one line
   per case, "<case> <md5 report> <md5 jsonl>". The file was produced by
   the retired linear-scan event engine, so a match is the old
   heap-vs-scan differential against a recorded oracle. A test owns the
   cases under its [prefix]; with S2FA_UPDATE_GOLDEN=1 it rewrites
   those lines (keeping every other test's) instead of checking them. *)

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

let sweep_file () = file "engine_sweep.md5"

let md5 s = Digest.to_hex (Digest.string s)

let read () =
  let path = sweep_file () in
  if not (Sys.file_exists path) then []
  else
    In_channel.with_open_bin path In_channel.input_lines
    |> List.filter_map (fun l ->
           match String.split_on_char ' ' l with
           | [ case; r; j ] -> Some (case, (r, j))
           | _ -> None)

(* [cases] are [(case, report bytes, jsonl bytes)]; a mismatch names
   every case that moved and which digest. *)
let check_sweep ~prefix cases =
  let mine (c, _) = String.starts_with ~prefix c in
  let got = List.map (fun (c, r, j) -> (c, (md5 r, md5 j))) cases in
  if update then
    let others = List.filter (fun e -> not (mine e)) (read ()) in
    Out_channel.with_open_bin (sweep_file ()) (fun oc ->
        List.iter
          (fun (c, (r, j)) -> Printf.fprintf oc "%s %s %s\n" c r j)
          (others @ got))
  else begin
    let want = List.filter mine (read ()) in
    let moved =
      List.filter_map
        (fun (c, (r, j)) ->
          match List.assoc_opt c want with
          | None -> Some (c ^ ": not in the golden")
          | Some (r', j') when r <> r' || j <> j' ->
            Some
              (Printf.sprintf "%s:%s%s moved" c
                 (if r <> r' then " report" else "")
                 (if j <> j' then " jsonl" else ""))
          | Some _ -> None)
        got
      @ List.filter_map
          (fun (c, _) ->
            if List.mem_assoc c got then None
            else Some (c ^ ": in the golden but not produced"))
          want
    in
    if moved <> [] then
      Alcotest.failf "engine-sweep golden mismatch:\n  %s"
        (String.concat "\n  " moved)
  end
