type t = { keys : int array; counts : int array; sums : int array }

let groups t = Array.length t.keys

let of_slots ~lo ~counts ~sums =
  let n = Array.length counts in
  let hit = ref 0 in
  for s = 0 to n - 1 do
    if Array.unsafe_get counts s > 0 then incr hit
  done;
  let sums_or_zeros m =
    match sums with Some sums -> sums | None -> Array.make m 0
  in
  if !hit = n then
    { keys = Array.init n (fun s -> lo + s); counts; sums = sums_or_zeros n }
  else begin
    let keys = Array.make !hit 0 and out_counts = Array.make !hit 0 in
    let out_sums = Array.make !hit 0 in
    let j = ref 0 in
    for s = 0 to n - 1 do
      let c = Array.unsafe_get counts s in
      if c > 0 then begin
        Array.unsafe_set keys !j (lo + s);
        Array.unsafe_set out_counts !j c;
        (match sums with
        | Some sums -> Array.unsafe_set out_sums !j (Array.unsafe_get sums s)
        | None -> ());
        incr j
      end
    done;
    { keys; counts = out_counts; sums = out_sums }
  end

let to_sorted_alist t =
  let l =
    List.init (groups t) (fun g -> (t.keys.(g), (t.counts.(g), t.sums.(g))))
  in
  List.sort (fun (k1, _) (k2, _) -> Int.compare k1 k2) l

let equal a b = to_sorted_alist a = to_sorted_alist b

let total_count t = Dqo_util.Int_array.sum t.counts

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (k, (c, s)) ->
      Format.fprintf ppf "key=%d count=%d sum=%d@," k c s)
    (to_sorted_alist t);
  Format.fprintf ppf "@]"
