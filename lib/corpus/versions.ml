module Tree = Patchfmt.Source_tree

type t = {
  name : string;
  tree : Tree.t;
  incorporated : string list;
}

(* the era of a CVE, from its id year *)
let era (cve : Cve.t) =
  match String.sub cve.id 4 4 with
  | "2005" -> 2005
  | "2006" -> 2006
  | "2007" -> 2007
  | _ -> 2008

(* Fold the mainline fixes of all CVEs up to [upto] into the tree,
   skipping any whose context has drifted away (exactly what happens to
   stable-branch backports). Each fix edits the files as the earlier
   fixes left them; the tree is built once, from the last contents of
   every edited file. *)
let incorporate ~upto base =
  let edits, done_ids =
    List.fold_left
      (fun ((edits, done_ids) as acc) (cve : Cve.t) ->
        if era cve > upto then acc
        else
          let find path =
            match List.assoc_opt path edits with
            | Some _ as contents -> contents
            | None -> Tree.find base path
          in
          match Cve.fix_edits_opt cve find with
          | Some files ->
            ( List.fold_left
                (fun edits (path, contents) ->
                  (path, contents) :: List.remove_assoc path edits)
                edits files,
              cve.id :: done_ids )
          | None -> acc)
      ([], []) Cve.all
  in
  ( List.fold_left
      (fun tree (path, contents) -> Tree.add tree path contents)
      base edits,
    done_ids )

let all () =
  let base = Base_kernel.tree () in
  let mk name upto =
    match upto with
    | None -> { name; tree = base; incorporated = [] }
    | Some y ->
      let tree, ids = incorporate ~upto:y base in
      { name; tree; incorporated = List.rev ids }
  in
  [
    mk "linux-sim-2005.05" None;
    mk "linux-sim-2006.06" (Some 2005);
    mk "linux-sim-2007.06" (Some 2006);
    mk "linux-sim-2008.05" (Some 2007);
  ]

let applicable v =
  List.filter
    (fun (c : Cve.t) ->
      (not (List.mem c.id v.incorporated)) && Cve.applies_to c v.tree)
    Cve.all

let hot_patch cve v =
  match Cve.hot_patch cve v.tree with
  | patch -> Some patch
  | exception Failure _ -> None
