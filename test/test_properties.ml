(* System-level property tests over randomly generated MiniC kernels:

   1. self-consistency (§4.3): for any program, the pre build (function
      sections, unaligned loops) run-pre matches the distro-style run
      build of the same source;
   2. hot-update equivalence: patching a running kernel gives the same
      observable behaviour as booting the patched source from scratch;
   3. objdump totality: every generated text section disassembles without
      resynchronisation;
   4. mutated run code is never silently accepted;
   5. every function the differencer keeps run-pre matches the kernel
      built from the unedited source (§5.4). *)

module Tree = Patchfmt.Source_tree
module Diff = Patchfmt.Diff
module Image = Klink.Image
module Machine = Kernel.Machine
module Create = Ksplice.Create
module Apply = Ksplice.Apply

(* --- a small random-program generator --- *)

type rexpr =
  | Cst of int
  | Param
  | Glob of int  (* index into the globals *)
  | Bin of string * rexpr * rexpr

type rstmt =
  | Assign of int * rexpr  (* global <- expr *)
  | If of rexpr * rstmt list
  | Loop of int * rstmt list  (* bounded for loop *)

type rfunc = {
  name : string;
  body : rstmt list;
  ret : rexpr;
}

type rprog = {
  globals : int list;  (* initial values *)
  funcs : rfunc list;
}

let gen_prog =
  let open QCheck2.Gen in
  let gexpr depth =
    fix
      (fun self depth ->
        if depth = 0 then
          oneof
            [ map (fun v -> Cst v) (int_range (-20) 20); return Param;
              map (fun i -> Glob i) (int_range 0 2) ]
        else
          oneof
            [ map (fun v -> Cst v) (int_range (-20) 20); return Param;
              map (fun i -> Glob i) (int_range 0 2);
              map3
                (fun op a b -> Bin (op, a, b))
                (oneofl [ "+"; "-"; "*"; "&"; "|"; "^" ])
                (self (depth - 1))
                (self (depth - 1)) ])
      depth
  in
  let gstmt depth =
    fix
      (fun self depth ->
        if depth = 0 then
          map2 (fun g e -> Assign (g, e)) (int_range 0 2) (gexpr 2)
        else
          oneof
            [ map2 (fun g e -> Assign (g, e)) (int_range 0 2) (gexpr 2);
              map2 (fun c body -> If (c, body)) (gexpr 1)
                (list_size (int_range 1 3) (self (depth - 1)));
              map2
                (fun n body -> Loop (n, body))
                (int_range 1 6)
                (list_size (int_range 1 3) (self (depth - 1))) ])
      depth
  in
  let gfunc i =
    map2
      (fun body ret ->
        { name = Printf.sprintf "fn%d" i; body; ret })
      (list_size (int_range 1 4) (gstmt 2))
      (gexpr 2)
  in
  let open QCheck2.Gen in
  map2
    (fun globals funcs -> { globals; funcs })
    (list_repeat 3 (int_range (-50) 50))
    (flatten_l (List.init 3 gfunc))

let rec expr_to_c = function
  | Cst v -> string_of_int v
  | Param -> "p"
  | Glob i -> Printf.sprintf "g%d" i
  | Bin (op, a, b) ->
    Printf.sprintf "(%s %s %s)" (expr_to_c a) op (expr_to_c b)

let rec stmt_to_c indent s =
  let pad = String.make indent ' ' in
  match s with
  | Assign (g, e) -> Printf.sprintf "%sg%d = %s;\n" pad g (expr_to_c e)
  | If (c, body) ->
    Printf.sprintf "%sif (%s) {\n%s%s}\n" pad (expr_to_c c)
      (String.concat "" (List.map (stmt_to_c (indent + 2)) body))
      pad
  | Loop (n, body) ->
    (* the induction variable is tied to the nesting depth: nested loops
       must never share one (that is an infinite loop) *)
    let var = Printf.sprintf "it%d" (indent / 2) in
    Printf.sprintf "%sfor (%s = 0; %s < %d; %s = %s + 1) {\n%s%s}\n" pad var
      var n var var
      (String.concat "" (List.map (stmt_to_c (indent + 2)) body))
      pad

let prog_to_c (p : rprog) =
  let b = Buffer.create 512 in
  List.iteri
    (fun i v -> Buffer.add_string b (Printf.sprintf "int g%d = %d;\n" i v))
    p.globals;
  List.iter
    (fun f ->
      Buffer.add_string b
        (Printf.sprintf
           "int %s(int p) {\n  int it1;\n  int it2;\n  int it3;\n  int it4;\n%s  return %s;\n}\n"
           f.name
           (String.concat "" (List.map (stmt_to_c 2) f.body))
           (expr_to_c f.ret)))
    p.funcs;
  Buffer.contents b

let boot_tree tree =
  let b = Corpus.Boot.boot ~tree () in
  (b.image, b.machine)

let observe (img, m) fname arg =
  match Image.lookup_global img fname with
  | None -> None
  | Some s -> (
    match Machine.call_function m ~addr:s.addr ~args:[ arg ] with
    | Ok v ->
      (* observable state: return value plus every global *)
      let globals =
        List.filter_map
          (fun i ->
            Option.map
              (fun (g : Image.syminfo) -> Machine.read_i32 m g.addr)
              (Image.lookup_global img (Printf.sprintf "g%d" i)))
          [ 0; 1; 2 ]
      in
      Some (v :: globals)
    | Error _ -> None)

(* property 1: pre always matches run *)
let prop_runpre_self_match =
  QCheck2.Test.make ~name:"pre build run-pre matches run build" ~count:30
    gen_prog (fun p ->
      let tree = Tree.of_list [ ("kernel/r.c", prog_to_c p) ] in
      let _, m = boot_tree tree in
      let pre = Fixture.build ~options:Minic.Driver.pre_build tree in
      let helper = List.hd (Kbuild.objects pre) in
      let inference = Ksplice.Runpre.create_inference () in
      match
        Ksplice.Runpre.match_helper
          ~read_run:(fun a -> Machine.read_u8 m a)
          ~candidates:(fun name ->
            Machine.kallsyms m
            |> List.filter_map (fun (s : Image.syminfo) ->
                 if String.equal s.name name && s.kind = `Func then
                   Some s.addr
                 else None))
          ~already:(fun _ -> None)
          ~inference helper
      with
      | Ok anchors -> List.length anchors = List.length p.funcs
      | Error _ -> false)

(* property 2: hot apply == fresh boot of patched source *)
let prop_hot_update_equivalence =
  let open QCheck2.Gen in
  QCheck2.Test.make ~name:"hot update behaves like the patched build"
    ~count:20
    (tup3 gen_prog (int_range 0 2) (int_range (-10) 10))
    (fun (p, victim, arg) ->
      let tree = Tree.of_list [ ("kernel/r.c", prog_to_c p) ] in
      (* patch: change the victim function's return expression *)
      let p' =
        { p with
          funcs =
            List.mapi
              (fun i f ->
                if i = victim then
                  { f with ret = Bin ("+", f.ret, Cst 1000) }
                else f)
              p.funcs }
      in
      let tree' = Tree.of_list [ ("kernel/r.c", prog_to_c p') ] in
      match
        Create.create
          { source = tree; patch = Diff.diff_trees tree tree';
            update_id = "prop"; description = "" }
      with
      | Error Create.No_object_changes -> true (* degenerate generator case *)
      | Error _ -> false
      | Ok { update; _ } -> (
        let live = boot_tree tree in
        let mgr = Apply.init (snd live) in
        match Apply.apply mgr update with
        | Error _ -> false
        | Ok _ ->
          let fresh = boot_tree tree' in
          List.for_all
            (fun f ->
              match
                ( observe live f.name (Int32.of_int arg),
                  observe fresh f.name (Int32.of_int arg) )
              with
              | Some a, Some b -> a = b
              | _ -> true (* non-terminating/faulted: not comparable *))
            p.funcs))

(* property 3: generated text disassembles cleanly *)
let prop_objdump_total =
  QCheck2.Test.make ~name:"objdump decodes all generated text" ~count:30
    gen_prog (fun p ->
      let tree = Tree.of_list [ ("kernel/r.c", prog_to_c p) ] in
      let b = Fixture.build ~options:Minic.Driver.pre_build tree in
      List.for_all
        (fun (o : Objfile.t) ->
          List.for_all
            (fun (s : Objfile.Section.t) ->
              s.kind <> Objfile.Section.Text
              || List.for_all
                   (fun (l : Objfile.Objdump.line) ->
                     not
                       (String.length l.text >= 5
                        && String.sub l.text 0 5 = ".byte"))
                   (Objfile.Objdump.disassemble s))
            o.sections)
        (Kbuild.objects b))

(* property 4: corrupting one byte of the run code is always detected —
   the matcher never silently accepts divergent code (§4.2 safety) *)
let prop_mutation_detected =
  let open QCheck2.Gen in
  QCheck2.Test.make ~name:"mutated run code is never silently accepted"
    ~count:30
    (tup3 gen_prog (int_range 0 10_000) (int_range 1 255))
    (fun (p, seed, delta) ->
      let tree = Tree.of_list [ ("kernel/r.c", prog_to_c p) ] in
      let img, m = boot_tree tree in
      (* pick a text byte deterministically from the seed and corrupt it *)
      let lo, hi = img.text_range in
      let at = lo + (seed mod (hi - lo)) in
      let orig = Machine.read_u8 m at in
      Machine.write_u8 m at ((orig + delta) land 0xff);
      let mutated = Machine.read_u8 m at <> orig in
      let pre = Fixture.build ~options:Minic.Driver.pre_build tree in
      let helper = List.hd (Kbuild.objects pre) in
      let inference = Ksplice.Runpre.create_inference () in
      let outcome =
        match
          Ksplice.Runpre.match_helper
            ~read_run:(fun a -> Machine.read_u8 m a)
            ~candidates:(fun name ->
              Machine.kallsyms m
              |> List.filter_map (fun (s : Image.syminfo) ->
                   if String.equal s.name name && s.kind = `Func then
                     Some s.addr
                   else None))
            ~already:(fun _ -> None)
            ~inference helper
        with
        | Ok anchors -> `Matched anchors
        | Error _ -> `Rejected
      in
      match outcome with
      | `Rejected -> true
      | `Matched _ when not mutated -> true
      | `Matched anchors ->
        (* acceptance is sound only if the corrupt byte lies outside every
           matched function (inter-function padding), or inside a
           relocation hole — in which case the inferred value for some
           symbol differs from a clean match of the uncorrupted image *)
        let inside_matched =
          List.exists
            (fun (cname, addr) ->
              let raw, _ = Ksplice.Update.split_canonical cname in
              match
                List.find_opt
                  (fun (s : Image.syminfo) ->
                    String.equal s.name raw && s.addr = addr)
                  img.kallsyms
              with
              | Some s -> at >= s.addr && at < s.addr + s.size
              | None -> false)
            anchors
        in
        (* bytes inside a no-op sequence are don't-cares: the matcher
           skips nops, and only the opcode byte identifies one *)
        let in_nop_dont_care =
          List.exists
            (fun (cname, addr) ->
              let raw, _ = Ksplice.Update.split_canonical cname in
              match
                List.find_opt
                  (fun (s : Image.syminfo) ->
                    String.equal s.name raw && s.addr = addr)
                  img.kallsyms
              with
              | None -> false
              | Some sym ->
                let pos = ref sym.addr in
                let hit = ref false in
                (try
                   while !pos < sym.addr + sym.size do
                     let insn, len =
                       Vmisa.Isa.decode
                         (fun a -> Machine.read_u8 m a)
                         !pos
                     in
                     if Vmisa.Isa.is_nop insn && at > !pos
                        && at < !pos + len
                     then hit := true;
                     pos := !pos + len
                   done
                 with _ -> ());
                !hit)
            anchors
        in
        (* bytes after the function's last non-nop instruction are
           trailing alignment padding the matcher never needs to examine
           (the pre section is exhausted before reaching them) *)
        let in_trailing_padding =
          List.exists
            (fun (cname, addr) ->
              let raw, _ = Ksplice.Update.split_canonical cname in
              match
                List.find_opt
                  (fun (s : Image.syminfo) ->
                    String.equal s.name raw && s.addr = addr)
                  img.kallsyms
              with
              | None -> false
              | Some sym ->
                if at < sym.addr || at >= sym.addr + sym.size then false
                else begin
                  (* decode the clean stream to find the trailing edge *)
                  Machine.write_u8 m at orig;
                  let trailing = ref sym.addr in
                  let pos = ref sym.addr in
                  (try
                     while !pos < sym.addr + sym.size do
                       let insn, len =
                         Vmisa.Isa.decode
                           (fun a -> Machine.read_u8 m a)
                           !pos
                       in
                       if not (Vmisa.Isa.is_nop insn) then
                         trailing := !pos + len;
                       pos := !pos + len
                     done
                   with _ -> ());
                  (* restore the mutation for the remaining checks *)
                  Machine.write_u8 m at ((orig + delta) land 0xff);
                  at >= !trailing
                end)
            anchors
        in
        if (not inside_matched) || in_nop_dont_care || in_trailing_padding
        then true
        else begin
          (* clean match for reference inferences *)
          Machine.write_u8 m at orig;
          let clean = Ksplice.Runpre.create_inference () in
          (match
             Ksplice.Runpre.match_helper
               ~read_run:(fun a -> Machine.read_u8 m a)
               ~candidates:(fun name ->
                 Machine.kallsyms m
                 |> List.filter_map (fun (s : Image.syminfo) ->
                      if String.equal s.name name && s.kind = `Func then
                        Some s.addr
                      else None))
               ~already:(fun _ -> None)
               ~inference:clean helper
           with
           | Ok _ | Error _ -> ());
          (* the mutated acceptance must be explained by a hole: at least
             one inferred symbol value changed *)
          Hashtbl.fold
            (fun k v acc ->
              acc || Hashtbl.find_opt clean k <> Some v)
            inference false
        end)

(* property 5: the §5.4 precondition. A function the differencer does
   not list as changed ships nowhere, so its post code must still be
   the code running in the kernel built from the unedited source. *)

type redit =
  | Bump of int * int  (* function, delta added to every constant *)
  | Reop of int * string  (* function, every operator becomes this one *)
  | Ret of int * rexpr  (* function, a new return expression *)
  | Extra of int * int * rexpr  (* function, a leading [g<k> = e;] *)

let gen_edit =
  let open QCheck2.Gen in
  let fn = int_range 0 2 in
  let leaf =
    oneof
      [ map (fun v -> Cst v) (int_range (-20) 20); return Param;
        map (fun i -> Glob i) (int_range 0 2) ]
  in
  let expr =
    oneof
      [ leaf;
        map3 (fun op a b -> Bin (op, a, b))
          (oneofl [ "+"; "-"; "*"; "&"; "|"; "^" ])
          leaf leaf ]
  in
  oneof
    [ map2 (fun f d -> Bump (f, d)) fn (int_range 1 5);
      map2 (fun f op -> Reop (f, op)) fn (oneofl [ "+"; "-"; "^" ]);
      map2 (fun f e -> Ret (f, e)) fn expr;
      map3 (fun f g e -> Extra (f, g, e)) fn (int_range 0 2) expr ]

let apply_edit edit (p : rprog) =
  let rec map_expr fe = function
    | Bin (op, a, b) -> fe (Bin (op, map_expr fe a, map_expr fe b))
    | e -> fe e
  in
  let rec map_stmt fe = function
    | Assign (g, e) -> Assign (g, map_expr fe e)
    | If (c, body) -> If (map_expr fe c, List.map (map_stmt fe) body)
    | Loop (n, body) -> Loop (n, List.map (map_stmt fe) body)
  in
  let rewrite fe f =
    { f with body = List.map (map_stmt fe) f.body; ret = map_expr fe f.ret }
  in
  let victim, change =
    match edit with
    | Bump (i, d) ->
      (i, rewrite (function Cst v -> Cst (v + d) | e -> e))
    | Reop (i, op) ->
      (i, rewrite (function Bin (_, a, b) -> Bin (op, a, b) | e -> e))
    | Ret (i, e) -> (i, fun f -> { f with ret = e })
    | Extra (i, g, e) ->
      (i, fun f -> { f with body = Assign (g, e) :: f.body })
  in
  { p with
    funcs = List.mapi (fun i f -> if i = victim then change f else f) p.funcs }

let prop_unchanged_functions_match_run =
  QCheck2.Test.make
    ~name:"functions the differencer keeps run-pre match the old kernel"
    ~count:40
    QCheck2.Gen.(pair gen_prog gen_edit)
    (fun (p, edit) ->
      let tree = Tree.of_list [ ("kernel/r.c", prog_to_c p) ] in
      let tree' =
        Tree.of_list [ ("kernel/r.c", prog_to_c (apply_edit edit p)) ]
      in
      let obj t =
        List.hd
          (Kbuild.objects (Fixture.build ~options:Minic.Driver.pre_build t))
      in
      let pre = obj tree and post = obj tree' in
      let d = Ksplice.Prepost.diff_unit ~pre ~post in
      let kept =
        List.filter
          (fun (s : Objfile.Section.t) ->
            match Ksplice.Prepost.fname_of_section s with
            | Some f ->
              not (List.mem f d.changed_functions || List.mem f d.new_functions)
            | None -> false)
          post.sections
      in
      let _, m = boot_tree tree in
      match
        Ksplice.Runpre.match_helper
          ~read_run:(fun a -> Machine.read_u8 m a)
          ~candidates:(fun name ->
            Machine.kallsyms m
            |> List.filter_map (fun (s : Image.syminfo) ->
                 if String.equal s.name name && s.kind = `Func then
                   Some s.addr
                 else None))
          ~already:(fun _ -> None)
          ~inference:(Ksplice.Runpre.create_inference ())
          { post with sections = kept }
      with
      | Ok anchors -> List.length anchors = List.length kept
      | Error _ -> false)

let suite =
  [
    ( "properties",
      [
        QCheck_alcotest.to_alcotest prop_runpre_self_match;
        QCheck_alcotest.to_alcotest prop_hot_update_equivalence;
        QCheck_alcotest.to_alcotest prop_objdump_total;
        QCheck_alcotest.to_alcotest prop_mutation_detected;
        QCheck_alcotest.to_alcotest prop_unchanged_functions_match_run;
      ] );
  ]
