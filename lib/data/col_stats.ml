type t = {
  sorted : bool;
  distinct : int;
  lo : int;
  hi : int;
  dense : bool;
  clustered : bool;
}

(* Runs of equal adjacent values, streamed chunk-wise. *)
let runs col =
  let r = ref 0 in
  let prev = ref min_int in
  let first = ref true in
  Int_col.iter_seg col ~f:(fun _ buf off len ->
      for k = off to off + len - 1 do
        let v = Array.unsafe_get buf k in
        if !first || v <> !prev then incr r;
        first := false;
        prev := v
      done);
  !r

let analyze col =
  let n = Int_col.length col in
  if n = 0 then
    { sorted = true; distinct = 0; lo = 0; hi = -1; dense = false;
      clustered = true }
  else begin
    let sorted = Int_col.is_sorted col in
    let lo, hi = Int_col.min_max col in
    let runs = runs col in
    (* A sorted column has one run per value; otherwise count the
       values on a sorted copy. *)
    let distinct =
      if sorted then runs
      else Dqo_util.Int_array.count_distinct (Int_col.to_array col)
    in
    let range = hi - lo + 1 in
    let dense = range <= 2 * distinct in
    (* Each value is one contiguous run exactly when there are as many
       runs as values. *)
    let clustered = runs = distinct in
    { sorted; distinct; lo; hi; dense; clustered }
  end

let density_ratio t =
  let range = t.hi - t.lo + 1 in
  if range <= 0 then 0.0 else Float.of_int t.distinct /. Float.of_int range

let pp ppf t =
  Format.fprintf ppf
    "{sorted=%b; clustered=%b; dense=%b; distinct=%d; range=[%d,%d]}"
    t.sorted t.clustered t.dense t.distinct t.lo t.hi
