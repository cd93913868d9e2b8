let delay ~base ~cap n = min cap (base * (1 lsl min n 20))

let hash ~seed ~id n =
  let h = ref (seed lxor 0x9e3779b9) in
  let feed v =
    h := (!h lxor v) * 0x85ebca6b land 0x3fffffff;
    h := (!h lxor (!h lsr 13)) land 0x3fffffff
  in
  String.iter (fun c -> feed (Char.code c)) id;
  feed (n * 0x27d4eb2f);
  !h

let retry_delay ~base ~cap ~bound ~seed ~id ~attempt =
  delay ~base ~cap (attempt - 1)
  + (if bound <= 0 then 0 else hash ~seed ~id attempt mod bound)
