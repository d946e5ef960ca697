type t = { keys : int array; counts : int array; sums : int array }

let groups t = Array.length t.keys

(* Both passes are free of data-dependent branches: the first counts
   the slots that counted something and finds the last of them, the
   second writes every slot up to that one at the cursor and advances
   the cursor by whether the slot counted anything, so an empty slot is
   overwritten by the next one. *)
let of_slots ~lo ~counts ~sums =
  let n = Array.length counts in
  let hit = ref 0 and last = ref (-1) in
  for s = 0 to n - 1 do
    let pos = Bool.to_int (Array.unsafe_get counts s > 0) in
    hit := !hit + pos;
    last := !last + ((s - !last) * pos)
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
    (* Up to the last hit the cursor stays below [!hit]. *)
    (match sums with
    | Some sums ->
      for s = 0 to !last do
        let c = Array.unsafe_get counts s in
        Array.unsafe_set keys !j (lo + s);
        Array.unsafe_set out_counts !j c;
        Array.unsafe_set out_sums !j (Array.unsafe_get sums s);
        j := !j + Bool.to_int (c > 0)
      done
    | None ->
      for s = 0 to !last do
        let c = Array.unsafe_get counts s in
        Array.unsafe_set keys !j (lo + s);
        Array.unsafe_set out_counts !j c;
        j := !j + Bool.to_int (c > 0)
      done);
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
