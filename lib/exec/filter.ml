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

(* [v] satisfies [p] iff [(lo <= v && v <= hi) <> negate].  The
   predicates that select nothing at the ends of the int range map to
   the empty range [(1, 0)]. *)
let nothing = (1, 0, false)

let range = function
  | Eq x -> (x, x, false)
  | Ne x -> (x, x, true)
  | Lt x -> if x = min_int then nothing else (min_int, x - 1, false)
  | Le x -> (min_int, x, false)
  | Gt x -> if x = max_int then nothing else (x + 1, max_int, false)
  | Ge x -> (x, max_int, false)
  | Between (a, b) -> if b < a then nothing else (a, b, false)

(* 1 if [v] is in the range, 0 if not, without a branch. *)
let[@inline] hit (lo : int) (hi : int) neg (v : int) =
  (Bool.to_int (lo <= v) land Bool.to_int (v <= hi)) lxor neg

type where = (Dqo_data.Int_col.t * predicate) list

(* Rows per segment of a filtered scan: the selection vector and one
   segment of every column read stay in the L1/L2 caches. *)
let morsel = 2048

(* The selection vector of a segment every row of which qualifies;
   consumers only read it, so every scan without predicates shares it. *)
let identity = Array.init morsel Fun.id

(* Each predicate narrows the segment's selection vector: every
   candidate offset is written at the cursor, which advances only when
   the row qualifies, so no branch depends on the data. *)
let iter_where where cols ~f =
  let ranges =
    Array.of_list
      (List.map
         (fun (_, p) ->
           let lo, hi, neg = range p in
           (lo, hi, Bool.to_int neg))
         where)
  in
  let k = Array.length ranges and nc = Array.length cols in
  let all = Array.append cols (Array.of_list (List.map fst where)) in
  let rows = if Array.length all = 0 then 0 else Dqo_data.Int_col.length all.(0) in
  let sel = if k = 0 then identity else Array.make (min rows morsel) 0 in
  let passed = Array.make k 0 in
  Dqo_data.Int_col.iter_segn all ~seg:morsel ~f:(fun pos bufs offs len ->
      let n = ref len in
      for j = 0 to k - 1 do
        let lo, hi, neg = ranges.(j) in
        let b = bufs.(nc + j) and o = offs.(nc + j) in
        let c = ref 0 in
        if j = 0 then
          for i = 0 to len - 1 do
            Array.unsafe_set sel !c i;
            c := !c + hit lo hi neg (Array.unsafe_get b (o + i))
          done
        else
          for x = 0 to !n - 1 do
            let i = Array.unsafe_get sel x in
            Array.unsafe_set sel !c i;
            c := !c + hit lo hi neg (Array.unsafe_get b (o + i))
          done;
        n := !c;
        passed.(j) <- passed.(j) + !c
      done;
      f pos sel !n bufs offs);
  passed

(* Each row id is always written and the cursor advances only when the
   row qualifies ([out] has room for every row). *)
let select column p =
  let lo, hi, neg = range p in
  let neg = Bool.to_int neg in
  let out = Array.make (Dqo_data.Int_col.length column) 0 in
  let m = ref 0 in
  Dqo_data.Int_col.iter_seg column ~f:(fun pos buf off len ->
      let j = ref !m in
      for k = 0 to len - 1 do
        Array.unsafe_set out !j (pos + k);
        j := !j + hit lo hi neg (Array.unsafe_get buf (off + k))
      done;
      m := !j);
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
