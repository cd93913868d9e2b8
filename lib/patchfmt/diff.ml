type line =
  | Context of string
  | Add of string
  | Del of string

type hunk = {
  old_start : int;
  old_len : int;
  new_start : int;
  new_len : int;
  lines : line list;
}

type file_diff = {
  path : string;
  old_exists : bool;
  new_exists : bool;
  hunks : hunk list;
}

type t = file_diff list

(* --- edit script via LCS --- *)

type edit = Keep of string | Ins of string | Drop of string

let edit_script a b =
  (* The walk below keeps equal lines greedily, so it keeps a common
     prefix whatever the table says: the table starts after it. A common
     suffix is not trimmed: the walk may keep an earlier copy of a suffix
     line instead ([s; x; s] to [y; s] keeps the first [s]), so trimming
     would give a different script of the same length. *)
  let rec prefix kept a b =
    match (a, b) with
    | x :: a', y :: b' when String.equal x y -> prefix (Keep x :: kept) a' b'
    | _ -> (kept, a, b)
  in
  let kept, a, b = prefix [] a b in
  let a = Array.of_list a and b = Array.of_list b in
  let n = Array.length a and m = Array.length b in
  (* lcs.(i).(j) = LCS length of a[i..] and b[j..] *)
  let lcs = Array.make_matrix (n + 1) (m + 1) 0 in
  for i = n - 1 downto 0 do
    for j = m - 1 downto 0 do
      lcs.(i).(j) <-
        (if String.equal a.(i) b.(j) then 1 + lcs.(i + 1).(j + 1)
         else
           let down = lcs.(i + 1).(j) and right = lcs.(i).(j + 1) in
           if down >= right then down else right)
    done
  done;
  let rec walk i j acc =
    if i < n && j < m && String.equal a.(i) b.(j) then
      walk (i + 1) (j + 1) (Keep a.(i) :: acc)
    else if j < m && (i = n || lcs.(i).(j + 1) >= lcs.(i + 1).(j)) then
      walk i (j + 1) (Ins b.(j) :: acc)
    else if i < n then walk (i + 1) j (Drop a.(i) :: acc)
    else List.rev acc
  in
  walk 0 0 kept

(* hunks between two line lists (LCS-based, like diff -u: 3 lines of
   context) *)
let diff_lines a b =
  let context = 3 in
  let script = Array.of_list (edit_script a b) in
  let n = Array.length script in
  let is_change = function Keep _ -> false | _ -> true in
  (* mark script indices that belong to a hunk (changes +/- context) *)
  let keep_in_hunk = Array.make n false in
  for i = 0 to n - 1 do
    if is_change script.(i) then
      for j = max 0 (i - context) to min (n - 1) (i + context) do
        keep_in_hunk.(j) <- true
      done
  done;
  let hunks = ref [] in
  let i = ref 0 in
  let old_line = ref 1 and new_line = ref 1 in
  while !i < n do
    (match script.(!i) with
     | Keep _ when not keep_in_hunk.(!i) ->
       incr old_line;
       incr new_line;
       incr i
     | _ when not keep_in_hunk.(!i) ->
       (* unreachable: changes are always in a hunk *)
       assert false
     | _ ->
       let start = !i in
       let fin = ref start in
       while !fin < n && keep_in_hunk.(!fin) do
         incr fin
       done;
       let old_start = !old_line and new_start = !new_line in
       let lines = ref [] in
       let old_len = ref 0 and new_len = ref 0 in
       for k = start to !fin - 1 do
         match script.(k) with
         | Keep s ->
           lines := Context s :: !lines;
           incr old_len;
           incr new_len;
           incr old_line;
           incr new_line
         | Ins s ->
           lines := Add s :: !lines;
           incr new_len;
           incr new_line
         | Drop s ->
           lines := Del s :: !lines;
           incr old_len;
           incr old_line
       done;
       hunks :=
         { old_start =
             (* diff convention: a zero-length side reports start-1 *)
             (if !old_len = 0 then old_start - 1 else old_start);
           old_len = !old_len;
           new_start = (if !new_len = 0 then new_start - 1 else new_start);
           new_len = !new_len;
           lines = List.rev !lines }
         :: !hunks;
       i := !fin)
  done;
  List.rev !hunks

let split_lines s =
  match List.rev (String.split_on_char '\n' s) with
  | "" :: rest -> List.rev rest
  | l -> List.rev l

let diff_file path o n =
  if String.equal o n then None
  else
    Some
      { path; old_exists = true; new_exists = true;
        hunks = diff_lines (split_lines o) (split_lines n) }

let diff_trees old_tree new_tree =
  let paths =
    List.sort_uniq compare
      (Source_tree.files old_tree @ Source_tree.files new_tree)
  in
  List.filter_map
    (fun path ->
      match Source_tree.find old_tree path, Source_tree.find new_tree path with
      | None, None -> None
      | Some o, Some n -> diff_file path o n
      | None, Some n ->
        Some
          { path; old_exists = false; new_exists = true;
            hunks = diff_lines [] (split_lines n) }
      | Some o, None ->
        Some
          { path; old_exists = true; new_exists = false;
            hunks = diff_lines (split_lines o) [] })
    paths

let to_string (d : t) =
  let b = Buffer.create 1024 in
  List.iter
    (fun fd ->
      Buffer.add_string b
        (Printf.sprintf "--- %s\n"
           (if fd.old_exists then "a/" ^ fd.path else "/dev/null"));
      Buffer.add_string b
        (Printf.sprintf "+++ %s\n"
           (if fd.new_exists then "b/" ^ fd.path else "/dev/null"));
      List.iter
        (fun h ->
          Buffer.add_string b
            (Printf.sprintf "@@ -%d,%d +%d,%d @@\n" h.old_start h.old_len
               h.new_start h.new_len);
          List.iter
            (fun l ->
              let c, s =
                match l with
                | Context s -> (' ', s)
                | Add s -> ('+', s)
                | Del s -> ('-', s)
              in
              Buffer.add_char b c;
              Buffer.add_string b s;
              Buffer.add_char b '\n')
            h.lines)
        fd.hunks)
    d;
  Buffer.contents b

let parse s =
  let lines = split_lines s in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let parse_path p =
    if String.equal p "/dev/null" then None
    else if String.length p > 2 && (p.[0] = 'a' || p.[0] = 'b') && p.[1] = '/'
    then Some (String.sub p 2 (String.length p - 2))
    else Some p
  in
  let parse_range spec =
    (* "-old_start,old_len" or "+new_start,new_len"; len defaults to 1 *)
    let body = String.sub spec 1 (String.length spec - 1) in
    match String.split_on_char ',' body with
    | [ a ] -> (int_of_string a, 1)
    | [ a; b ] -> (int_of_string a, int_of_string b)
    | _ -> failwith "bad range"
  in
  let rec files acc = function
    | [] -> Ok (List.rev acc)
    | l :: rest when String.length l >= 4 && String.sub l 0 4 = "--- " ->
      let old_p = parse_path (String.sub l 4 (String.length l - 4)) in
      (match rest with
       | l2 :: rest when String.length l2 >= 4 && String.sub l2 0 4 = "+++ " ->
         let new_p = parse_path (String.sub l2 4 (String.length l2 - 4)) in
         let path =
           match old_p, new_p with
           | Some p, _ | _, Some p -> p
           | None, None -> ""
         in
         if String.equal path "" then err "diff with both sides /dev/null"
         else
           hunks path (Option.is_some old_p) (Option.is_some new_p) [] rest
             acc
       | _ -> err "missing +++ after ---")
    | "" :: rest -> files acc rest
    | l :: _ -> err "unexpected line outside hunk: %S" l
  and hunks path old_e new_e hs ls acc =
    match ls with
    | l :: rest when String.length l >= 2 && String.sub l 0 2 = "@@" -> (
      match String.split_on_char ' ' l with
      | "@@" :: minus :: plus :: _ -> (
        match
          (try Some (parse_range minus, parse_range plus) with _ -> None)
        with
        | Some ((os, ol), (ns, nl)) ->
          hunk_lines path old_e new_e hs os ol ns nl [] (ol + nl) rest acc
        | None -> err "bad hunk header %S" l)
      | _ -> err "bad hunk header %S" l)
    | _ ->
      files
        ({ path; old_exists = old_e; new_exists = new_e;
           hunks = List.rev hs }
         :: acc)
        ls
  and hunk_lines path old_e new_e hs os ol ns nl body remaining ls acc =
    if remaining = 0 then
      let h =
        { old_start = os; old_len = ol; new_start = ns; new_len = nl;
          lines = List.rev body }
      in
      hunks path old_e new_e (h :: hs) ls acc
    else
      match ls with
      | [] -> err "truncated hunk in %s" path
      | l :: rest ->
        let n = String.length l in
        let payload = if n = 0 then "" else String.sub l 1 (n - 1) in
        (match if n = 0 then ' ' else l.[0] with
         | ' ' ->
           hunk_lines path old_e new_e hs os ol ns nl
             (Context payload :: body) (remaining - 2) rest acc
         | '+' ->
           hunk_lines path old_e new_e hs os ol ns nl (Add payload :: body)
             (remaining - 1) rest acc
         | '-' ->
           hunk_lines path old_e new_e hs os ol ns nl (Del payload :: body)
             (remaining - 1) rest acc
         | c -> err "bad hunk line prefix %C" c)
  in
  files [] lines

(* --- application --- *)

let hunk_old_lines h =
  List.filter_map
    (function Context s | Del s -> Some s | Add _ -> None)
    h.lines

let hunk_new_lines h =
  List.filter_map
    (function Context s | Add s -> Some s | Del _ -> None)
    h.lines

let matches_at (arr : string array) pos expected =
  pos >= 0
  && pos + List.length expected <= Array.length arr
  && List.for_all2 String.equal
       (List.init (List.length expected) (fun i -> arr.(pos + i)))
       expected

(* Find where a hunk's old lines occur: try the stated position, then
   positions at increasing distance (patch(1)-style offsets). *)
let locate arr pos expected =
  let n = Array.length arr in
  let rec search d =
    if d > n then None
    else if matches_at arr (pos - d) expected then Some (pos - d)
    else if matches_at arr (pos + d) expected then Some (pos + d)
    else search (d + 1)
  in
  if matches_at arr pos expected then Some pos else search 1

let apply_file_hunks path hunks old_lines =
  let arr = Array.of_list old_lines in
  (* apply hunks in order, tracking the line offset already introduced *)
  let rec go hunks offset consumed acc =
    match hunks with
    | [] ->
      let tail =
        Array.to_list (Array.sub arr consumed (Array.length arr - consumed))
      in
      Ok (List.rev acc @ tail)
    | h :: rest -> (
      let expected = hunk_old_lines h in
      let want_pos = max 0 (h.old_start - 1) in
      ignore offset;
      match locate arr want_pos expected with
      | None ->
        Error
          (Printf.sprintf "%s: hunk @@ -%d,%d does not apply" path
             h.old_start h.old_len)
      | Some pos when pos < consumed ->
        Error
          (Printf.sprintf "%s: hunk @@ -%d,%d overlaps a previous hunk" path
             h.old_start h.old_len)
      | Some pos ->
        let skipped =
          Array.to_list (Array.sub arr consumed (pos - consumed))
        in
        let acc =
          List.rev_append (hunk_new_lines h) (List.rev_append skipped acc)
        in
        go rest
          (offset + h.new_len - h.old_len)
          (pos + List.length expected)
          acc)
  in
  go hunks 0 0 []

let apply (d : t) tree =
  let join ls = String.concat "\n" ls ^ "\n" in
  List.fold_left
    (fun acc fd ->
      Result.bind acc (fun tree ->
          match fd.old_exists, fd.new_exists with
          | false, true ->
            if Source_tree.mem tree fd.path then
              Error (Printf.sprintf "%s: already exists" fd.path)
            else
              let new_lines = List.concat_map hunk_new_lines fd.hunks in
              Ok (Source_tree.add tree fd.path (join new_lines))
          | true, false ->
            if Source_tree.mem tree fd.path then
              Ok (Source_tree.remove tree fd.path)
            else Error (Printf.sprintf "%s: missing, cannot delete" fd.path)
          | true, true -> (
            match Source_tree.lines tree fd.path with
            | None -> Error (Printf.sprintf "%s: missing, cannot patch" fd.path)
            | Some old_lines -> (
              match apply_file_hunks fd.path fd.hunks old_lines with
              | Ok new_lines -> Ok (Source_tree.add tree fd.path (join new_lines))
              | Error e -> Error e))
          | false, false -> Error "diff with both sides absent"))
    (Ok tree) d

type stats = {
  files : int;
  added : int;
  removed : int;
  changed : int;
}

let stats (d : t) =
  let added = ref 0 and removed = ref 0 in
  List.iter
    (fun fd ->
      List.iter
        (fun h ->
          List.iter
            (function
              | Add _ -> incr added
              | Del _ -> incr removed
              | Context _ -> ())
            h.lines)
        fd.hunks)
    d;
  { files = List.length d; added = !added; removed = !removed;
    changed = !added + !removed }

let changed_files (d : t) = List.map (fun fd -> fd.path) d

let file_stats (d : t) path =
  stats (List.filter (fun fd -> String.equal fd.path path) d)

let file_hunks (d : t) path =
  List.fold_left
    (fun acc fd ->
      if String.equal fd.path path then acc + List.length fd.hunks else acc)
    0 d
