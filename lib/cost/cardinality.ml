let equi_join ~left_rows ~right_rows ~left_distinct ~right_distinct =
  let d = Int.max 1 (Int.max left_distinct right_distinct) in
  let est =
    Float.of_int left_rows *. Float.of_int right_rows /. Float.of_int d
  in
  Int.max 0 (int_of_float (Float.round est))

let group_by ~key_distinct = max 0 key_distinct

let filter ~rows ~selectivity =
  if rows <= 0 || selectivity <= 0.0 then 0
  else
    (* A positive selectivity on a non-empty input must never estimate an
       empty output: rounding 1000 * 0.0004 down to 0 would make every
       downstream operator look free and mis-rank whole plan families. *)
    let est = Float.of_int rows *. selectivity in
    min rows (max 1 (int_of_float (Float.round est)))

let distinct_after_join ~side_distinct ~output_rows =
  max 0 (min side_distinct output_rows)
