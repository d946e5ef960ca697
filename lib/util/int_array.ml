let is_sorted a =
  let n = Array.length a in
  let rec loop i = i >= n || (a.(i - 1) <= a.(i) && loop (i + 1)) in
  loop 1

let min_max a =
  let n = Array.length a in
  if n = 0 then None
  else begin
    let mn = ref a.(0) and mx = ref a.(0) in
    for i = 1 to n - 1 do
      if a.(i) < !mn then mn := a.(i);
      if a.(i) > !mx then mx := a.(i)
    done;
    Some (!mn, !mx)
  end

let swap a i j =
  let tmp = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- tmp

let reverse a =
  let i = ref 0 and j = ref (Array.length a - 1) in
  while !i < !j do
    swap a !i !j;
    incr i;
    decr j
  done

(* Stable bottom-up merge sort; scratch buffer allocated once. *)
let merge_sort a =
  let n = Array.length a in
  if n > 1 then begin
    let buf = Array.make n 0 in
    let src = ref a and dst = ref buf in
    let width = ref 1 in
    while !width < n do
      let s = !src and d = !dst in
      let lo = ref 0 in
      while !lo < n do
        let mid = min n (!lo + !width) in
        let hi = min n (!lo + (2 * !width)) in
        let i = ref !lo and j = ref mid and k = ref !lo in
        while !i < mid && !j < hi do
          if s.(!i) <= s.(!j) then begin
            d.(!k) <- s.(!i);
            incr i
          end
          else begin
            d.(!k) <- s.(!j);
            incr j
          end;
          incr k
        done;
        while !i < mid do
          d.(!k) <- s.(!i);
          incr i;
          incr k
        done;
        while !j < hi do
          d.(!k) <- s.(!j);
          incr j;
          incr k
        done;
        lo := hi
      done;
      let tmp = !src in
      src := !dst;
      dst := tmp;
      width := 2 * !width
    done;
    if !src != a then Array.blit !src 0 a 0 n
  end

(* LSD radix sort on bytes; requires non-negative elements.  Two ping-pong
   buffers; per-pass counting with exclusive prefix sums. *)
let radix_sort a =
  let n = Array.length a in
  if n > 1 then begin
    let mx =
      match min_max a with
      | None -> 0
      | Some (mn, mx) ->
        if mn < 0 then invalid_arg "Int_array.radix_sort: negative element";
        mx
    in
    let buf = Array.make n 0 in
    let counts = Array.make 256 0 in
    let src = ref a and dst = ref buf in
    let shift = ref 0 in
    (* Guard the shift amount: [x lsr s] is unspecified for [s >= 63],
       and a 63-bit value needs at most 8 byte passes anyway. *)
    while !shift < 63 && mx lsr !shift > 0 do
      Array.fill counts 0 256 0;
      let s = !src and d = !dst in
      for i = 0 to n - 1 do
        let b = (s.(i) lsr !shift) land 0xFF in
        counts.(b) <- counts.(b) + 1
      done;
      let acc = ref 0 in
      for b = 0 to 255 do
        let c = counts.(b) in
        counts.(b) <- !acc;
        acc := !acc + c
      done;
      for i = 0 to n - 1 do
        let b = (s.(i) lsr !shift) land 0xFF in
        d.(counts.(b)) <- s.(i);
        counts.(b) <- counts.(b) + 1
      done;
      let tmp = !src in
      src := !dst;
      dst := tmp;
      shift := !shift + 8
    done;
    if !src != a then Array.blit !src 0 a 0 n
  end

let sort a =
  let n = Array.length a in
  if n >= 4096 then
    match min_max a with
    | Some (mn, _) when mn >= 0 -> radix_sort a
    | Some _ | None -> merge_sort a
  else merge_sort a

let sorted_copy a =
  let b = Array.copy a in
  sort b;
  b

(* The stable sort of [keys] as a permutation, by comparisons: what the
   radix kernel below falls back to when [max - min] and a row id do not
   fit in one non-negative int together. *)
let comparison_permutation keys =
  let perm = Array.init (Array.length keys) (fun i -> i) in
  (* [Array.sort] is not stable; comparing (key, index) pairs makes the
     order total, so ties keep their original order. *)
  let cmp i j =
    let c = Int.compare keys.(i) keys.(j) in
    if c <> 0 then c else Int.compare i j
  in
  Array.sort cmp perm;
  perm

let digit_bits = 11
let digit_mask = (1 lsl digit_bits) - 1

(* LSD radix sort of the non-negative words of [src] on their bits
   [id_bits] and up, [range] being the largest value of those bits,
   11 bits per pass, between [src] and a second buffer.  Every pass is
   a stable counting sort, and a pass whose digit is the same for every
   word moves nothing and is skipped.  Returns the buffer holding the
   sorted words (either [src] or the second buffer). *)
let radix_passes src ~range ~id_bits =
  let n = Array.length src in
  let src = ref src and dst = ref (Array.make n 0) in
  let counts = Array.make (digit_mask + 1) 0 in
  let shift = ref 0 in
  while range lsr !shift > 0 do
    let sh = !shift + id_bits in
    let s = !src and d = !dst in
    Array.fill counts 0 (digit_mask + 1) 0;
    for i = 0 to n - 1 do
      let g = (Array.unsafe_get s i lsr sh) land digit_mask in
      Array.unsafe_set counts g (Array.unsafe_get counts g + 1)
    done;
    if counts.((s.(0) lsr sh) land digit_mask) < n then begin
      let acc = ref 0 in
      for g = 0 to digit_mask do
        let c = counts.(g) in
        counts.(g) <- !acc;
        acc := !acc + c
      done;
      for i = 0 to n - 1 do
        let v = Array.unsafe_get s i in
        let g = (v lsr sh) land digit_mask in
        let at = Array.unsafe_get counts g in
        Array.unsafe_set counts g (at + 1);
        Array.unsafe_set d at v
      done;
      src := d;
      dst := s
    end;
    shift := !shift + digit_bits
  done;
  !src

(* The stable sort as a radix sort of [(key - min) lsl id_bits lor id]:
   the row ids start in ascending order, so the result is the unique
   stable order.  Packing key and id into one word moves one array per
   pass instead of two. *)
let stable_permutation keys =
  let n = Array.length keys in
  if n <= 1 || is_sorted keys then Array.init n (fun i -> i)
  else
    let lo, hi = Option.get (min_max keys) in
    let range = hi - lo in
    let id_bits = ref 1 in
    while (n - 1) lsr !id_bits > 0 do
      incr id_bits
    done;
    let id_bits = !id_bits in
    (* [range < 0] when [max - min] overflows. *)
    if range < 0 || range lsr (62 - id_bits) > 0 then
      comparison_permutation keys
    else begin
      let packed =
        Array.init n (fun i -> ((Array.unsafe_get keys i - lo) lsl id_bits) lor i)
      in
      let perm = radix_passes packed ~range ~id_bits in
      let id_mask = (1 lsl id_bits) - 1 in
      for i = 0 to n - 1 do
        Array.unsafe_set perm i (Array.unsafe_get perm i land id_mask)
      done;
      perm
    end

let sort_pairs keys payload =
  let n = Array.length keys in
  if Array.length payload <> n then
    invalid_arg "Int_array.sort_pairs: length mismatch";
  let perm = stable_permutation keys in
  let k2 = Array.map (fun i -> keys.(i)) perm
  and p2 = Array.map (fun i -> payload.(i)) perm in
  Array.blit k2 0 keys 0 n;
  Array.blit p2 0 payload 0 n

let distinct_sorted a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let b = sorted_copy a in
    let m = ref 1 in
    for i = 1 to n - 1 do
      if b.(i) <> b.(i - 1) then begin
        b.(!m) <- b.(i);
        incr m
      end
    done;
    Array.sub b 0 !m
  end

(* A domain at most eight times the row count is counted with one byte
   per value, in one pass and no sort.  A wider one is radix-sorted as
   offsets from the minimum (as many 11-bit passes as the span needs)
   and counted in runs. *)
let count_distinct a =
  let n = Array.length a in
  match min_max a with
  | None -> 0
  | Some (lo, hi) when hi - lo >= 0 && hi - lo < 8 * n ->
    let seen = Bytes.make (hi - lo + 1) '\000' in
    let d = ref 0 in
    for i = 0 to n - 1 do
      let k = Array.unsafe_get a i - lo in
      if Bytes.unsafe_get seen k = '\000' then begin
        Bytes.unsafe_set seen k '\001';
        incr d
      end
    done;
    !d
  | Some (lo, hi) when hi - lo >= 0 ->
    let b = radix_passes (Array.map (fun v -> v - lo) a) ~range:(hi - lo) ~id_bits:0 in
    let d = ref 1 in
    for i = 1 to n - 1 do
      if Array.unsafe_get b i <> Array.unsafe_get b (i - 1) then incr d
    done;
    !d
  | Some _ -> Array.length (distinct_sorted a)

let lower_bound a key =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < key then lo := mid + 1 else hi := mid
  done;
  !lo

let upper_bound a key =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) <= key then lo := mid + 1 else hi := mid
  done;
  !lo

let binary_search a key =
  let i = lower_bound a key in
  if i < Array.length a && a.(i) = key then Some i else None

let prefix_sums a =
  let n = Array.length a in
  let p = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    p.(i + 1) <- p.(i) + a.(i)
  done;
  p

let sum a = Array.fold_left ( + ) 0 a
