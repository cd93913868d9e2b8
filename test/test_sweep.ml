(* The sweep driver, exercised through a fake sweep that runs no VM: a
   row only records the key and the seed it was handed. *)

module Sweep = Corpus.Sweep
module Json = Report.Json

let t name f = Alcotest.test_case name `Quick f

type fake_row = { key : int; seed : int }

let fake ?(check = fun _ -> []) () :
    (module Sweep.S with type key = int and type row = fake_row) =
  (module struct
    type key = int
    type row = fake_row

    let name = "fake"
    let default_rows () = List.init 12 Fun.id
    let key_of_string = int_of_string_opt
    let key_name = string_of_int

    let run_row ~seed ~index key =
      (* uneven work, so rows complete out of input order *)
      let spin = ref 0 in
      for _ = 1 to (16 - key) * 20_000 do
        incr spin
      done;
      { key; seed = seed + (7 * index) }

    let progress r = Printf.sprintf "row %d seed %d" r.key r.seed
    let violations _ = []

    let row_json r =
      Json.Obj
        [ ("key", Json.Num (float_of_int r.key));
          ("seed", Json.Num (float_of_int r.seed)) ]

    let totals rows =
      Json.Obj [ ("rows", Json.Num (float_of_int (List.length rows))) ]
    let check = check
  end)

let keys = [ 5; 3; 9; 0; 11; 7; 2; 14; 1 ]

let test_input_order () =
  let seen = ref [] in
  let r =
    Sweep.run ~rows:keys ~domains:2
      ~progress:(fun l -> seen := l :: !seen)
      (fake ())
  in
  Alcotest.(check (list int)) "rows in input order" keys
    (List.map (fun r -> r.key) r.rows);
  Alcotest.(check (list string)) "progress lines in input order"
    (List.map (fun r -> Printf.sprintf "row %d seed %d" r.key r.seed) r.rows)
    r.lines;
  Alcotest.(check (list string)) "every row reported progress once"
    (List.sort compare r.lines) (List.sort compare !seen)

let test_seeds_domain_independent () =
  let seeds domains =
    List.map (fun r -> r.seed)
      (Sweep.run ~rows:keys ~seed:11 ~domains (fake ())).rows
  in
  Alcotest.(check (list int)) "domains 1 = domains 2" (seeds 1) (seeds 2);
  Alcotest.(check (list int)) "row i is seeded from i"
    (List.mapi (fun i _ -> 11 + (7 * i)) keys)
    (seeds 2)

let test_export_deterministic () =
  let export () = Sweep.to_json (Sweep.run ~seed:4 ~domains:2 (fake ())) in
  let a = export () and b = export () in
  Alcotest.(check string) "byte-identical exports" (Json.to_string a)
    (Json.to_string b);
  Alcotest.(check bool) "export round-trips" true
    (Json.parse (Json.to_string a) = Ok a)

let test_sweep_oracle_fails_verdict () =
  let r =
    Sweep.run ~domains:2
      (fake ~check:(fun rows ->
           [ Printf.sprintf "only %d rows" (List.length rows) ]) ())
  in
  Alcotest.(check bool) "verdict fails" false (Sweep.ok r);
  (* every row passed: the one violation is the sweep-level note *)
  Alcotest.(check (list string)) "the sweep-level note" [ "only 12 rows" ]
    r.violations;
  Alcotest.(check bool) "the export records the failure" false
    (Report.Render.verdict (Sweep.to_json r))

let suite =
  [
    ( "sweep harness",
      [
        t "rows come back in input order" test_input_order;
        t "row seeds do not depend on domains" test_seeds_domain_independent;
        t "report export is deterministic" test_export_deterministic;
        t "a sweep-level oracle fails the verdict"
          test_sweep_oracle_fails_verdict;
      ] );
  ]
