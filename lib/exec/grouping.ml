module Hash_fn = Dqo_hash.Hash_fn
module Int_array = Dqo_util.Int_array
module Int_col = Dqo_data.Int_col

type algorithm = HG | SPHG | OG | SOG | BSG
type table_kind = Chaining | Linear_probing | Robin_hood

let all = [ HG; SPHG; OG; SOG; BSG ]

let name = function
  | HG -> "HG"
  | SPHG -> "SPHG"
  | OG -> "OG"
  | SOG -> "SOG"
  | BSG -> "BSG"

let of_name = function
  | "HG" -> Some HG
  | "SPHG" -> Some SPHG
  | "OG" -> Some OG
  | "SOG" -> Some SOG
  | "BSG" -> Some BSG
  | _ -> None

let check_lengths keys values =
  if Int_col.length keys <> Int_col.length values then
    invalid_arg "Grouping: keys/values length mismatch"

(* Growable triple of parallel arrays used by HG and OG. *)
type buf = {
  mutable keys : int array;
  mutable counts : int array;
  mutable sums : int array;
  mutable len : int;
}

let buf_create cap =
  let cap = max 16 cap in
  {
    keys = Array.make cap 0;
    counts = Array.make cap 0;
    sums = Array.make cap 0;
    len = 0;
  }

let buf_push b key =
  if b.len >= Array.length b.keys then begin
    let cap = 2 * Array.length b.keys in
    let grow a = let n = Array.make cap 0 in Array.blit a 0 n 0 b.len; n in
    b.keys <- grow b.keys;
    b.counts <- grow b.counts;
    b.sums <- grow b.sums
  end;
  let slot = b.len in
  b.keys.(slot) <- key;
  b.len <- b.len + 1;
  slot

let buf_result b : Group_result.t =
  {
    keys = Array.sub b.keys 0 b.len;
    counts = Array.sub b.counts 0 b.len;
    sums = Array.sub b.sums 0 b.len;
  }

let hash_with (type t) (module T : Dqo_hash.Table_intf.TABLE with type t = t)
    (tbl : t) ~keys ~values =
  let b = buf_create (max 16 (T.length tbl)) in
  Int_col.iter_seg2 keys values ~f:(fun _ kb ko vb vo len ->
      for i = 0 to len - 1 do
        let k = Array.unsafe_get kb (ko + i) in
        let slot = T.find_or_add tbl k in
        if slot = b.len then ignore (buf_push b k);
        b.counts.(slot) <- b.counts.(slot) + 1;
        b.sums.(slot) <- b.sums.(slot) + Array.unsafe_get vb (vo + i)
      done);
  buf_result b

let hash_based ?(hash = Hash_fn.Murmur3) ?(table = Chaining) ?(expected = 16)
    ~keys ~values () =
  check_lengths keys values;
  match table with
  | Chaining ->
    let tbl = Dqo_hash.Chain_table.create ~hash ~expected () in
    hash_with (module Dqo_hash.Chain_table) tbl ~keys ~values
  | Linear_probing ->
    let tbl = Dqo_hash.Linear_probe.create ~hash ~expected () in
    hash_with (module Dqo_hash.Linear_probe) tbl ~keys ~values
  | Robin_hood ->
    let tbl = Dqo_hash.Robin_hood.create ~hash ~expected () in
    hash_with (module Dqo_hash.Robin_hood) tbl ~keys ~values

let hash_based_boxed ~keys ~values =
  check_lengths keys values;
  let tbl : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let b = buf_create 64 in
  Int_col.iter_seg2 keys values ~f:(fun _ kb ko vb vo len ->
      for i = 0 to len - 1 do
        let k = kb.(ko + i) in
        let slot =
          match Hashtbl.find_opt tbl k with
          | Some slot -> slot
          | None ->
            let slot = buf_push b k in
            Hashtbl.add tbl k slot;
            slot
        in
        b.counts.(slot) <- b.counts.(slot) + 1;
        b.sums.(slot) <- b.sums.(slot) + vb.(vo + i)
      done);
  buf_result b

(* Keep only slots that received at least one tuple (SPHG over a
   non-minimal domain, BSG over an over-approximated universe). *)
let compact (r : Group_result.t) : Group_result.t =
  let n = Array.length r.keys in
  let m = ref 0 in
  for g = 0 to n - 1 do
    if r.counts.(g) > 0 then incr m
  done;
  if !m = n then r
  else begin
    let keys = Array.make !m 0
    and counts = Array.make !m 0
    and sums = Array.make !m 0 in
    let j = ref 0 in
    for g = 0 to n - 1 do
      if r.counts.(g) > 0 then begin
        keys.(!j) <- r.keys.(g);
        counts.(!j) <- r.counts.(g);
        sums.(!j) <- r.sums.(g);
        incr j
      end
    done;
    { keys; counts; sums }
  end

(* SPHG over the rows [where] keeps, visited through each segment's
   selection vector. *)
let sph_where ~lo ~hi ~keys ~values ~where =
  if hi < lo then invalid_arg "Grouping.sph_based: hi < lo";
  let domain = hi - lo + 1 in
  let counts = Array.make domain 0 in
  let[@inline] slot k =
    let s = k - lo in
    if s < 0 || s >= domain then
      invalid_arg "Grouping.sph_based: key outside dense domain";
    s
  in
  match values with
  | None ->
    let passed =
      Filter.iter_where where [| keys |] ~f:(fun _ sel n bufs offs ->
          let kb = bufs.(0) and ko = offs.(0) in
          for x = 0 to n - 1 do
            let s = slot (Array.unsafe_get kb (ko + Array.unsafe_get sel x)) in
            Array.unsafe_set counts s (Array.unsafe_get counts s + 1)
          done)
    in
    (Group_result.of_slots ~lo ~counts ~sums:None, passed)
  | Some values ->
    check_lengths keys values;
    let sums = Array.make domain 0 in
    let passed =
      Filter.iter_where where [| keys; values |] ~f:(fun _ sel n bufs offs ->
          let kb = bufs.(0) and ko = offs.(0) in
          let vb = bufs.(1) and vo = offs.(1) in
          for x = 0 to n - 1 do
            let i = Array.unsafe_get sel x in
            let s = slot (Array.unsafe_get kb (ko + i)) in
            Array.unsafe_set counts s (Array.unsafe_get counts s + 1);
            Array.unsafe_set sums s
              (Array.unsafe_get sums s + Array.unsafe_get vb (vo + i))
          done)
    in
    (Group_result.of_slots ~lo ~counts ~sums:(Some sums), passed)

let sph_based ~lo ~hi ~keys ~values =
  fst (sph_where ~lo ~hi ~keys ~values:(Some values) ~where:[])

let order_based ?(expected = 16) ~keys ~values () =
  check_lengths keys values;
  let b = buf_create expected in
  (* The current run is carried across segment boundaries so the scan
     stays single-pass over any backend. *)
  let have = ref false in
  let cur = ref 0 and cnt = ref 0 and sum = ref 0 in
  let flush () =
    if !have then begin
      let slot = buf_push b !cur in
      b.counts.(slot) <- !cnt;
      b.sums.(slot) <- !sum
    end
  in
  Int_col.iter_seg2 keys values ~f:(fun _ kb ko vb vo len ->
      for i = 0 to len - 1 do
        let k = Array.unsafe_get kb (ko + i) in
        let v = Array.unsafe_get vb (vo + i) in
        if !have && k = !cur then begin
          incr cnt;
          sum := !sum + v
        end
        else begin
          flush ();
          have := true;
          cur := k;
          cnt := 1;
          sum := v
        end
      done);
  flush ();
  buf_result b

(* Co-sort a copy of (keys, values) by key.  When both fit in 31 bits we
   pack each pair into one int and radix-sort, which is what makes SOG
   competitive at scale; otherwise fall back to a permutation sort.  The
   sort is inherently whole-column, so this is the one grouping path
   that materialises chunked storage. *)
let sorted_pair_copy keys values =
  let n = Int_col.length keys in
  let fits v = v >= 0 && v < 1 lsl 30 in
  let packable =
    try
      Int_col.iter_seg2 keys values ~f:(fun _ kb ko vb vo len ->
          for i = 0 to len - 1 do
            if not (fits kb.(ko + i) && fits vb.(vo + i)) then raise Exit
          done);
      true
    with Exit -> false
  in
  if packable then begin
    let packed = Array.make n 0 in
    Int_col.iter_seg2 keys values ~f:(fun pos kb ko vb vo len ->
        for i = 0 to len - 1 do
          packed.(pos + i) <-
            (Array.unsafe_get kb (ko + i) lsl 30)
            lor Array.unsafe_get vb (vo + i)
        done);
    Int_array.radix_sort packed;
    let ks = Array.make n 0 and vs = Array.make n 0 in
    for i = 0 to n - 1 do
      ks.(i) <- packed.(i) lsr 30;
      vs.(i) <- packed.(i) land ((1 lsl 30) - 1)
    done;
    (ks, vs)
  end
  else begin
    let ks = Int_col.to_array keys and vs = Int_col.to_array values in
    Int_array.sort_pairs ks vs;
    (ks, vs)
  end

let sort_order_based ~keys ~values =
  check_lengths keys values;
  let ks, vs = sorted_pair_copy keys values in
  order_based ~keys:(Int_col.of_array ks) ~values:(Int_col.of_array vs) ()

let binary_search_based ~universe ~keys ~values =
  check_lengths keys values;
  if not (Int_array.is_sorted universe) then
    invalid_arg "Grouping.binary_search_based: universe not sorted";
  let g = Array.length universe in
  let counts = Array.make g 0 and sums = Array.make g 0 in
  Int_col.iter_seg2 keys values ~f:(fun _ kb ko vb vo len ->
      for i = 0 to len - 1 do
        let k = Array.unsafe_get kb (ko + i) in
        (* Inlined lower-bound binary search on the hot path. *)
        let lo = ref 0 and hi = ref g in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if universe.(mid) < k then lo := mid + 1 else hi := mid
        done;
        if !lo >= g || universe.(!lo) <> k then
          invalid_arg "Grouping.binary_search_based: key not in universe";
        counts.(!lo) <- counts.(!lo) + 1;
        sums.(!lo) <- sums.(!lo) + Array.unsafe_get vb (vo + i)
      done);
  compact { keys = Array.copy universe; counts; sums }

let run alg ~(dataset : Dqo_data.Datagen.grouping_dataset) ~values =
  let keys = dataset.keys in
  let groups = Array.length dataset.universe in
  match alg with
  | HG -> hash_based ~expected:groups ~keys ~values ()
  | SPHG ->
    if not dataset.dense then
      invalid_arg "Grouping.run: SPHG requires a dense universe";
    let lo = dataset.universe.(0) in
    let hi = dataset.universe.(groups - 1) in
    sph_based ~lo ~hi ~keys ~values
  | OG ->
    if not dataset.sorted then
      invalid_arg "Grouping.run: OG requires sorted (clustered) input";
    order_based ~expected:groups ~keys ~values ()
  | SOG -> sort_order_based ~keys ~values
  | BSG -> binary_search_based ~universe:dataset.universe ~keys ~values
