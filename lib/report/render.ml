let number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.6g" f

let scalar = function
  | Json.Null -> Some "null"
  | Json.Bool b -> Some (string_of_bool b)
  | Json.Num f -> Some (number f)
  | Json.Str s -> Some s
  | Json.Arr _ | Json.Obj _ -> None

(* n / p50 / p99 / max, nearest rank over the sorted values *)
let summary nums =
  let a = Array.of_list nums in
  Array.sort compare a;
  let n = Array.length a in
  let rank p =
    number a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))
  in
  Printf.sprintf "n=%d p50=%s p99=%s max=%s" n (rank 0.50) (rank 0.99)
    (number a.(n - 1))

let inline fields =
  String.concat "  "
    (List.filter_map
       (fun (k, v) -> Option.map (Printf.sprintf "%s: %s" k) (scalar v))
       fields)

let rec pp_member ppf indent (key, v) =
  let pad = String.make indent ' ' in
  match v with
  | Json.Obj fields ->
    Format.fprintf ppf "%s%s:@\n" pad key;
    List.iter (pp_member ppf (indent + 2)) fields
  | Json.Arr [] -> Format.fprintf ppf "%s%s: []@\n" pad key
  | Json.Arr items -> (
    let nums = List.filter_map Json.to_float items in
    if List.length nums = List.length items then
      Format.fprintf ppf "%s%s: %s@\n" pad key (summary nums)
    else begin
      Format.fprintf ppf "%s%s:@\n" pad key;
      List.iter
        (fun item ->
          let line =
            match item with
            | Json.Obj fields -> inline fields
            | Json.Arr l -> Printf.sprintf "[%d items]" (List.length l)
            | v -> Option.value ~default:"" (scalar v)
          in
          Format.fprintf ppf "%s  - %s@\n" pad line)
        items
    end)
  | v ->
    Format.fprintf ppf "%s%s: %s@\n" pad key
      (Option.value ~default:"" (scalar v))

let pp ppf = function
  | Json.Obj fields -> List.iter (pp_member ppf 0) fields
  | v -> pp_member ppf 0 ("value", v)

let rec verdict = function
  | Json.Obj fields ->
    List.for_all
      (function
        | "ok", Json.Bool false -> false
        | "violations", Json.Num n when n > 0. -> false
        | "violations", Json.Arr (_ :: _) -> false
        | _, v -> verdict v)
      fields
  | Json.Arr items -> List.for_all verdict items
  | _ -> true

type error = Missing_section of string

let pp_error ppf (Missing_section name) =
  Format.fprintf ppf "no %S section" name

let section name doc =
  match Json.member name doc with
  | None | Some Json.Null -> Error (Missing_section name)
  | Some v -> Ok (Json.Obj [ (name, v) ])
