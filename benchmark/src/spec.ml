(* BENCHMARK.json, read back: the metric names, units, directions and
   bounds the comparison tool applies and the test holds the runner to. *)

module J = Report.Json

type metric = {
  name : string;
  unit : string;
  higher_is_better : bool;
  bound : float option;  (** end-to-end metrics only *)
}

type t = {
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

let ( let* ) = Result.bind

let field what conv key j =
  match Option.bind (J.member key j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "BENCHMARK.json: %s lacks %S" what key)

let metric j =
  let* name = field "a metric" J.to_str "name" j in
  let* unit = field name J.to_str "unit" j in
  let* better = field name J.to_str "better" j in
  Ok
    {
      name;
      unit;
      higher_is_better = String.equal better "higher";
      bound = Option.bind (J.member "bound" j) J.to_float;
    }

let list key conv j =
  let* items = field "the document" J.to_list key j in
  List.fold_right
    (fun item acc ->
      let* acc = acc in
      let* v = conv item in
      Ok (v :: acc))
    items (Ok [])

let load path =
  let* j = J.of_file path in
  let* workloads = list "workloads" (field "a workload" J.to_str "name") j in
  let* end_to_end = list "end_to_end" metric j in
  let* per_layer = list "per_layer" metric j in
  Ok { workloads; end_to_end; per_layer }
