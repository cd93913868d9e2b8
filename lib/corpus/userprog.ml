module Machine = Kernel.Machine
module Image = Klink.Image

exception Error of string

let err fmt = Format.kasprintf (fun m -> raise (Error m)) fmt

let compile ~name ~src =
  match
    Minic.Driver.compile ~options:Minic.Driver.run_build ~unit_name:name src
  with
  | Ok { obj; _ } -> obj
  | Error e -> err "%a" Minic.Driver.pp_error e

let load machine ~name ~src =
  let obj = compile ~name ~src in
  let link base =
    match Image.link ~base [ obj ] with
    | Ok img -> img
    | Error e -> err "%s: %a" name Image.pp_error e
  in
  (* measure at a probe base, then place the image in module memory *)
  let probe = link 0x40_0000 in
  let base = Machine.alloc_module machine ~size:probe.size ~align:4096 in
  let img = link base in
  Machine.write_bytes machine base img.data;
  match Image.lookup_global img "main" with
  | Some s -> s.addr
  | None -> err "%s: no main function" name

let run ?(uid = 1000) machine ~name ~src ~args () =
  let entry = load machine ~name ~src in
  let th = Machine.spawn machine ~name ~uid ~entry ~args in
  let result = ref None in
  let spent = ref 0 in
  while Option.is_none !result do
    (match th.state with
     | Machine.Exited v -> result := Some (Ok v)
     | Machine.Faulted f -> result := Some (Error f)
     | _ when !spent >= 2_000_000 -> result := Some (Error Machine.Step_limit)
     | _ ->
       let n = Machine.run machine ~steps:10_000 in
       spent := !spent + n;
       if n = 0 then
         (* deadlock: nothing runnable and this thread never finished *)
         result := Some (Error Machine.Step_limit));
    ()
  done;
  (Option.get !result, th)
