type block = {
  bid : int;
  first : int;
  last : int;
  succs : int list;
  preds : int list;
}

type t = {
  blocks : block array;
  entry : int;
  block_of_pc : int array;
  idom : int array;
  ipdom : int array;
  loop_headers : (int * int list) list;
}

let targets_of = function
  | Insn.CmpJmp (_, _, l) | Insn.IfFalse l | Insn.Goto l -> [ l ]
  | _ -> []

let is_terminator = function
  | Insn.CmpJmp _ | Insn.IfFalse _ | Insn.Goto _ | Insn.Ret | Insn.RetVoid ->
    true
  | _ -> false

(* Iterative dominator computation (Cooper-Harvey-Kennedy) over an
   arbitrary edge relation given in reverse postorder. *)
let compute_idom nblocks entry preds rpo =
  let rpo_index = Array.make nblocks (-1) in
  List.iteri (fun i b -> rpo_index.(b) <- i) rpo;
  let idom = Array.make nblocks (-1) in
  idom.(entry) <- entry;
  let intersect a b =
    let a = ref a and b = ref b in
    while !a <> !b do
      while rpo_index.(!a) > rpo_index.(!b) do
        a := idom.(!a)
      done;
      while rpo_index.(!b) > rpo_index.(!a) do
        b := idom.(!b)
      done
    done;
    !a
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
        if b <> entry then begin
          let processed =
            List.filter (fun p -> idom.(p) <> -1) (preds b)
          in
          match processed with
          | [] -> ()
          | first :: rest ->
            let new_idom = List.fold_left intersect first rest in
            if idom.(b) <> new_idom then begin
              idom.(b) <- new_idom;
              changed := true
            end
        end)
      rpo
  done;
  idom.(entry) <- -1;
  idom

let reverse_postorder nblocks entry succs =
  let visited = Array.make nblocks false in
  let order = ref [] in
  let rec dfs b =
    if not visited.(b) then begin
      visited.(b) <- true;
      List.iter dfs (succs b);
      order := b :: !order
    end
  in
  dfs entry;
  !order

let build code =
  let n = Array.length code in
  let targets_of ins = List.filter (fun l -> l >= 0 && l < n) (targets_of ins) in
  (* Leaders: 0, every jump target, every instruction after a terminator. *)
  let leader = Array.make n false in
  leader.(0) <- true;
  Array.iteri
    (fun pc ins ->
      List.iter (fun l -> leader.(l) <- true) (targets_of ins);
      if is_terminator ins && pc + 1 < n then leader.(pc + 1) <- true)
    code;
  let starts = ref [] in
  for pc = n - 1 downto 0 do
    if leader.(pc) then starts := pc :: !starts
  done;
  let starts = Array.of_list !starts in
  let nblocks = Array.length starts in
  let block_of_pc = Array.make n 0 in
  let bounds =
    Array.mapi
      (fun i first ->
        let last = if i + 1 < nblocks then starts.(i + 1) - 1 else n - 1 in
        for pc = first to last do
          block_of_pc.(pc) <- i
        done;
        (first, last))
      starts
  in
  let succs_of i =
    let _, last = bounds.(i) in
    let fall = if last + 1 < n then [ block_of_pc.(last + 1) ] else [] in
    let jump = List.map (fun l -> block_of_pc.(l)) (targets_of code.(last)) in
    match code.(last) with
    | Insn.Goto _ -> jump
    | Insn.CmpJmp _ | Insn.IfFalse _ -> jump @ fall
    | Insn.Ret | Insn.RetVoid -> []
    | _ -> fall
  in
  let succs = Array.init nblocks succs_of in
  let preds = Array.make nblocks [] in
  Array.iteri
    (fun b ss -> List.iter (fun s -> preds.(s) <- b :: preds.(s)) ss)
    succs;
  let blocks =
    Array.init nblocks (fun i ->
        let first, last = bounds.(i) in
        { bid = i; first; last; succs = succs.(i); preds = preds.(i) })
  in
  (* Dominators. *)
  let rpo = reverse_postorder nblocks 0 (fun b -> succs.(b)) in
  let idom = compute_idom nblocks 0 (fun b -> preds.(b)) rpo in
  (* Postdominators: reverse graph with a virtual exit joining all
     return blocks. *)
  let exits =
    Array.to_list blocks
    |> List.filter_map (fun b -> if b.succs = [] then Some b.bid else None)
  in
  let vexit = nblocks in
  let rsuccs b = if b = vexit then exits else preds.(b) in
  let rpreds b =
    if b = vexit then []
    else succs.(b) @ if List.mem b exits then [ vexit ] else []
  in
  let rpo_rev = reverse_postorder (nblocks + 1) vexit rsuccs in
  let ipdom_full = compute_idom (nblocks + 1) vexit rpreds rpo_rev in
  let ipdom =
    Array.init nblocks (fun b ->
        let d = ipdom_full.(b) in
        if d = vexit then -1 else d)
  in
  (* Natural loops: back edge s -> h with h dominating s. *)
  let dominates_arr a b =
    let rec up x = if x = -1 then false else x = a || up idom.(x) in
    a = b || up idom.(b)
  in
  let loops = Hashtbl.create 4 in
  Array.iter
    (fun b ->
      List.iter
        (fun s ->
          if dominates_arr s b.bid then begin
            (* back edge b.bid -> s; body = natural loop of (s, b.bid) *)
            let body = Hashtbl.create 8 in
            Hashtbl.replace body s ();
            let rec add x =
              if not (Hashtbl.mem body x) then begin
                Hashtbl.replace body x ();
                List.iter add blocks.(x).preds
              end
            in
            add b.bid;
            let members =
              Hashtbl.fold (fun k () acc -> k :: acc) body []
              |> List.sort compare
            in
            let existing =
              Option.value ~default:[] (Hashtbl.find_opt loops s)
            in
            Hashtbl.replace loops s
              (List.sort_uniq compare (existing @ members))
          end)
        b.succs)
    blocks;
  let loop_headers = Hashtbl.fold (fun h body acc -> (h, body) :: acc) loops [] in
  { blocks;
    entry = 0;
    block_of_pc;
    idom;
    ipdom;
    loop_headers = List.sort compare loop_headers }

let dominates t a b =
  let rec up x = if x = -1 then false else x = a || up t.idom.(x) in
  a = b || up t.idom.(b)

let loop_body_of t h = List.assoc_opt h t.loop_headers

let pp ppf t =
  Array.iter
    (fun b ->
      Format.fprintf ppf "B%d [%d..%d] -> %s@\n" b.bid b.first b.last
        (String.concat "," (List.map string_of_int b.succs)))
    t.blocks;
  List.iter
    (fun (h, body) ->
      Format.fprintf ppf "loop head B%d body {%s}@\n" h
        (String.concat "," (List.map string_of_int body)))
    t.loop_headers
