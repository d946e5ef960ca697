type predicate =
  | Eq of int
  | Ne of int
  | Lt of int
  | Le of int
  | Gt of int
  | Ge of int
  | Between of int * int

let eval p v =
  match p with
  | Eq x -> v = x
  | Ne x -> v <> x
  | Lt x -> v < x
  | Le x -> v <= x
  | Gt x -> v > x
  | Ge x -> v >= x
  | Between (lo, hi) -> lo <= v && v <= hi

(* The predicate is matched once, outside the row loops; each loop
   appends branch-free: the row id is always written and the cursor
   advances only when the row qualifies ([out] has room for every
   row). *)
let select column p =
  let n = Dqo_data.Int_col.length column in
  let out = Array.make n 0 in
  let m = ref 0 in
  let scan f = Dqo_data.Int_col.iter_seg column ~f in
  (match p with
  | Eq x ->
    scan (fun pos buf off len ->
        let j = ref !m in
        for k = 0 to len - 1 do
          let v = Array.unsafe_get buf (off + k) in
          Array.unsafe_set out !j (pos + k);
          j := !j + Bool.to_int (v = x)
        done;
        m := !j)
  | Ne x ->
    scan (fun pos buf off len ->
        let j = ref !m in
        for k = 0 to len - 1 do
          let v = Array.unsafe_get buf (off + k) in
          Array.unsafe_set out !j (pos + k);
          j := !j + Bool.to_int (v <> x)
        done;
        m := !j)
  | Lt x ->
    scan (fun pos buf off len ->
        let j = ref !m in
        for k = 0 to len - 1 do
          let v = Array.unsafe_get buf (off + k) in
          Array.unsafe_set out !j (pos + k);
          j := !j + Bool.to_int (v < x)
        done;
        m := !j)
  | Le x ->
    scan (fun pos buf off len ->
        let j = ref !m in
        for k = 0 to len - 1 do
          let v = Array.unsafe_get buf (off + k) in
          Array.unsafe_set out !j (pos + k);
          j := !j + Bool.to_int (v <= x)
        done;
        m := !j)
  | Gt x ->
    scan (fun pos buf off len ->
        let j = ref !m in
        for k = 0 to len - 1 do
          let v = Array.unsafe_get buf (off + k) in
          Array.unsafe_set out !j (pos + k);
          j := !j + Bool.to_int (v > x)
        done;
        m := !j)
  | Ge x ->
    scan (fun pos buf off len ->
        let j = ref !m in
        for k = 0 to len - 1 do
          let v = Array.unsafe_get buf (off + k) in
          Array.unsafe_set out !j (pos + k);
          j := !j + Bool.to_int (v >= x)
        done;
        m := !j)
  | Between (lo, hi) ->
    scan (fun pos buf off len ->
        let j = ref !m in
        for k = 0 to len - 1 do
          let v = Array.unsafe_get buf (off + k) in
          Array.unsafe_set out !j (pos + k);
          j := !j + Bool.to_int (lo <= v) land Bool.to_int (v <= hi)
        done;
        m := !j));
  Array.sub out 0 !m

let selectivity p ~lo ~hi =
  let width = Float.of_int (hi - lo + 1) in
  if width <= 0.0 then 0.0
  else begin
    let clamp f = Float.max 0.0 (Float.min 1.0 f) in
    let fraction_below x strict =
      (* Fraction of domain values v with v < x (or <= x). *)
      let count =
        if strict then Float.of_int (x - lo) else Float.of_int (x - lo + 1)
      in
      clamp (count /. width)
    in
    match p with
    | Eq _ -> clamp (1.0 /. width)
    | Ne _ -> clamp (1.0 -. (1.0 /. width))
    | Lt x -> fraction_below x true
    | Le x -> fraction_below x false
    | Gt x -> clamp (1.0 -. fraction_below x false)
    | Ge x -> clamp (1.0 -. fraction_below x true)
    | Between (a, b) ->
      if b < a then 0.0
      else clamp (Float.of_int (min b hi - max a lo + 1) /. width)
  end

let pp ppf = function
  | Eq x -> Format.fprintf ppf "= %d" x
  | Ne x -> Format.fprintf ppf "<> %d" x
  | Lt x -> Format.fprintf ppf "< %d" x
  | Le x -> Format.fprintf ppf "<= %d" x
  | Gt x -> Format.fprintf ppf "> %d" x
  | Ge x -> Format.fprintf ppf ">= %d" x
  | Between (a, b) -> Format.fprintf ppf "BETWEEN %d AND %d" a b
