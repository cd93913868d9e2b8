module M = Map.Make (String)

(* a file's digest is taken once, when the file enters the tree *)
type file = { contents : string; digest : Digest.t }

type t = file M.t

let empty = M.empty

let add t path contents =
  M.add path { contents; digest = Digest.string contents } t

let of_list l = List.fold_left (fun m (k, v) -> add m k v) M.empty l
let remove t path = M.remove path t
let find t path = Option.map (fun f -> f.contents) (M.find_opt path t)
let mem t path = M.mem path t
let files t = M.bindings t |> List.map fst
let bindings t = M.bindings t |> List.map (fun (k, f) -> (k, f.contents))

let fold f t init =
  M.fold (fun k file acc -> f k file.contents file.digest acc) t init

let equal = M.equal (fun a b -> String.equal a.contents b.contents)

let split_lines s =
  let l = String.split_on_char '\n' s in
  (* a trailing newline produces one empty trailing element; drop it so
     that lines round-trip under concat+"\n" *)
  match List.rev l with
  | "" :: rest -> List.rev rest
  | _ -> l

let lines t path = Option.map split_lines (find t path)

let digest t =
  let b = Buffer.create 1024 in
  M.iter
    (fun k f ->
      Buffer.add_string b k;
      Buffer.add_char b '\000';
      Buffer.add_string b f.digest;
      Buffer.add_char b '\000')
    t;
  Digest.to_hex (Digest.string (Buffer.contents b))
