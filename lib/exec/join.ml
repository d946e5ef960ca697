module Int_array = Dqo_util.Int_array
module Int_col = Dqo_data.Int_col

type algorithm = HJ | SPHJ | OJ | SOJ | BSJ

type result = { left : int array; right : int array }

let all = [ HJ; SPHJ; OJ; SOJ; BSJ ]

let name = function
  | HJ -> "HJ"
  | SPHJ -> "SPHJ"
  | OJ -> "OJ"
  | SOJ -> "SOJ"
  | BSJ -> "BSJ"

let cardinality r = Array.length r.left

(* Growable pair buffer. *)
type buf = { mutable l : int array; mutable r : int array; mutable len : int }

let buf_create () = { l = Array.make 64 0; r = Array.make 64 0; len = 0 }

let buf_push b li ri =
  if b.len >= Array.length b.l then begin
    let cap = 2 * Array.length b.l in
    let grow a = let n = Array.make cap 0 in Array.blit a 0 n 0 b.len; n in
    b.l <- grow b.l;
    b.r <- grow b.r
  end;
  b.l.(b.len) <- li;
  b.r.(b.len) <- ri;
  b.len <- b.len + 1

let buf_result b =
  { left = Array.sub b.l 0 b.len; right = Array.sub b.r 0 b.len }

(* Random-access element reader; flat columns read their backing array
   directly, chunked columns go through the shift/mask lookup. *)
let reader col =
  match Int_col.as_flat_array col with
  | Some a -> fun i -> a.(i)
  | None -> Int_col.get col

(* The exact-size emit shared by SPHJ, HJ and the engine's FKS join: a
   multimap over the left rows in compressed sparse rows.  Left row [i]
   lives in slot [key i - lo], where [key] reads [lkeys]; [rslot.(j)] is
   right row [j]'s slot, or [-1] when it matches nothing.

   Rows are counted per slot and bucketed by slot into [ids]; within a
   slot the left ids run in descending order, so that pairs come out in
   the order of a chained multimap (most recent first), the reference
   the tests compare against.  The probe then counts its exact output
   before allocating [left]/[right] once and filling them.
   A left slot outside [\[0, slots)] raises [Invalid_argument outside]. *)
let emit ~outside ~slots ~lo ~lkeys ~rslot =
  let n = Int_col.length lkeys in
  (* [start.(s)] counts slot [s], then (inclusive prefix sums) marks
     its end; filling left rows in ascending order from the end
     backwards leaves it at the slot's start.  [start.(slots)] is [n]. *)
  let start = Array.make (slots + 1) 0 in
  Int_col.iter_seg lkeys ~f:(fun _ buf off len ->
      for k = 0 to len - 1 do
        let s = Array.unsafe_get buf (off + k) - lo in
        if s < 0 || s >= slots then invalid_arg outside;
        Array.unsafe_set start s (Array.unsafe_get start s + 1)
      done);
  for s = 1 to slots - 1 do
    start.(s) <- start.(s) + start.(s - 1)
  done;
  start.(slots) <- n;
  let ids = Array.make n 0 in
  Int_col.iter_seg lkeys ~f:(fun pos buf off len ->
      for k = 0 to len - 1 do
        let s = Array.unsafe_get buf (off + k) - lo in
        let p = Array.unsafe_get start s - 1 in
        Array.unsafe_set start s p;
        Array.unsafe_set ids p (pos + k)
      done);
  let m = Array.length rslot in
  let total = ref 0 in
  for j = 0 to m - 1 do
    let s = Array.unsafe_get rslot j in
    if s >= 0 then total := !total + start.(s + 1) - start.(s)
  done;
  let left = Array.make !total 0 and right = Array.make !total 0 in
  let o = ref 0 in
  for j = 0 to m - 1 do
    let s = Array.unsafe_get rslot j in
    if s >= 0 then
      for p = start.(s) to start.(s + 1) - 1 do
        Array.unsafe_set left !o (Array.unsafe_get ids p);
        Array.unsafe_set right !o j;
        incr o
      done
  done;
  { left; right }

let slot_join ~slots ~left ~right =
  emit ~outside:"Join.slot_join: left slot out of range" ~slots ~lo:0
    ~lkeys:(Int_col.of_array left) ~rslot:right

let hash_join ?(hash = Dqo_hash.Hash_fn.Murmur3) ?(table = Grouping.Chaining)
    ~left ~right () =
  let n = Int_col.length left in
  (* All three table kinds hand out dense slots in insertion order; the
     emit on top is shared. *)
  let build (type t) (module T : Dqo_hash.Table_intf.TABLE with type t = t)
      (tbl : t) =
    let lslot = Array.make n 0 in
    Int_col.iter_seg left ~f:(fun pos buf off len ->
        for k = 0 to len - 1 do
          lslot.(pos + k) <- T.find_or_add tbl (Array.unsafe_get buf (off + k))
        done);
    let rslot = Array.make (Int_col.length right) (-1) in
    Int_col.iter_seg right ~f:(fun pos buf off len ->
        for k = 0 to len - 1 do
          match T.find tbl (Array.unsafe_get buf (off + k)) with
          | Some s -> rslot.(pos + k) <- s
          | None -> ()
        done);
    slot_join ~slots:(T.length tbl) ~left:lslot ~right:rslot
  in
  match table with
  | Grouping.Chaining ->
    build (module Dqo_hash.Chain_table)
      (Dqo_hash.Chain_table.create ~hash ~expected:n ())
  | Grouping.Linear_probing ->
    build (module Dqo_hash.Linear_probe)
      (Dqo_hash.Linear_probe.create ~hash ~expected:n ())
  | Grouping.Robin_hood ->
    build (module Dqo_hash.Robin_hood)
      (Dqo_hash.Robin_hood.create ~hash ~expected:n ())

let sph_join ~lo ~hi ~left ~right =
  if hi < lo then invalid_arg "Join.sph_join: hi < lo";
  let slots = hi - lo + 1 in
  let rslot = Array.make (Int_col.length right) (-1) in
  Int_col.iter_seg right ~f:(fun pos buf off len ->
      for k = 0 to len - 1 do
        let key = Array.unsafe_get buf (off + k) in
        if key >= lo && key <= hi then rslot.(pos + k) <- key - lo
      done);
  emit ~outside:"Join.sph_join: build key outside dense domain" ~slots ~lo
    ~lkeys:left ~rslot

type side = Left | Right

type group_join = {
  groups : Group_result.t;
  pairs : int;
  passed : int array * int array;
}

type group_slots =
  | Matched of (lo:int -> hi:int -> rows:int -> unit)
  | Span of int * int

(* The groupjoin: SPHJ's slots counted instead of enumerated.  The side
   without the group key ([other]) is counted into [cnt.(slot)] (and
   summed into [osum.(slot)] when the SUM column lives there); each row
   of the group side then stands for [cnt.(slot)] pairs.  Multiplying by
   [cnt.(slot)] is exact mod 2^63, like the repeated addition it
   replaces.  Each side's WHERE is tested in the first pass over that
   side, which then visits only the rows it keeps. *)
let sph_group_join ~lo ~hi ~left ~right ~where ~group ~gkeys ~sum ~groups =
  if hi < lo then invalid_arg "Join.sph_group_join: hi < lo";
  let slots = hi - lo + 1 in
  let outside = "Join.sph_group_join: build key outside dense domain" in
  let gside, oside, gwhere, owhere =
    match group with
    | Left -> (left, right, fst where, snd where)
    | Right -> (right, left, snd where, fst where)
  in
  if Int_col.length gkeys <> Int_col.length gside then
    invalid_arg "Join.sph_group_join: group key length mismatch";
  (* Left keys must lie in [lo, hi]; right keys outside simply miss. *)
  let gstrict = group = Left and ostrict = group = Right in
  let cnt = Array.make slots 0 in
  let osum, opassed =
    match sum with
    | Some (s, values) when s <> group ->
      let osum = Array.make slots 0 in
      let passed =
        Filter.iter_where owhere [| oside; values |] ~f:(fun _ sel n bufs offs ->
            let kb = bufs.(0) and ko = offs.(0) in
            let vb = bufs.(1) and vo = offs.(1) in
            for x = 0 to n - 1 do
              let i = Array.unsafe_get sel x in
              let s = Array.unsafe_get kb (ko + i) - lo in
              if s >= 0 && s < slots then begin
                Array.unsafe_set cnt s (Array.unsafe_get cnt s + 1);
                Array.unsafe_set osum s
                  (Array.unsafe_get osum s + Array.unsafe_get vb (vo + i))
              end
              else if ostrict then invalid_arg outside
            done)
      in
      (Some osum, passed)
    | Some _ | None ->
      let passed =
        Filter.iter_where owhere [| oside |] ~f:(fun _ sel n bufs offs ->
            let kb = bufs.(0) and ko = offs.(0) in
            for x = 0 to n - 1 do
              let s = Array.unsafe_get kb (ko + Array.unsafe_get sel x) - lo in
              if s >= 0 && s < slots then
                Array.unsafe_set cnt s (Array.unsafe_get cnt s + 1)
              else if ostrict then invalid_arg outside
            done)
      in
      (None, passed)
  in
  (* The SUM column when it lives on the group side. *)
  let gsum = match (sum, osum) with Some (_, values), None -> Some values | _ -> None in
  let groups, pairs, gpassed =
    match groups with
    | Span (glo, ghi) ->
      (* One pass: the slots span every group key, so a row without a
         partner adds its count 0 without a branch on it. *)
      let domain = ghi - glo + 1 in
      let counts = Array.make domain 0 in
      let sums = Array.make (if Option.is_none sum then 0 else domain) 0 in
      let pairs = ref 0 in
      let gpassed =
        Filter.iter_where gwhere
          (match gsum with Some v -> [| gside; gkeys; v |] | None -> [| gside; gkeys |])
          ~f:(fun _ sel n bufs offs ->
            let kb = bufs.(0) and ko = offs.(0) and gb = bufs.(1) and go = offs.(1) in
            let vb, vo = if Option.is_none gsum then ([||], 0) else (bufs.(2), offs.(2)) in
            let p = ref !pairs in
            for x = 0 to n - 1 do
              let i = Array.unsafe_get sel x in
              let s = Array.unsafe_get kb (ko + i) - lo in
              if s >= 0 && s < slots then begin
                let c = Array.unsafe_get cnt s in
                let g = Array.unsafe_get gb (go + i) - glo in
                if g >= 0 && g < domain then begin
                  Array.unsafe_set counts g (Array.unsafe_get counts g + c);
                  match (osum, gsum) with
                  | Some osum, _ ->
                    Array.unsafe_set sums g
                      (Array.unsafe_get sums g + Array.unsafe_get osum s)
                  | None, Some _ ->
                    Array.unsafe_set sums g
                      (Array.unsafe_get sums g + (c * Array.unsafe_get vb (vo + i)))
                  | None, None -> ()
                end
                else if c > 0 then
                  invalid_arg "Join.sph_group_join: group key outside its span";
                p := !p + c
              end
              else if gstrict then invalid_arg outside
            done;
            pairs := !p)
      in
      ( Group_result.of_slots ~lo:glo ~counts
          ~sums:(Option.map (fun _ -> sums) sum),
        !pairs,
        gpassed )
    | Matched check ->
      (* Two passes: the first records every row's slot ([-1]: no
         partner) and the group keys' bounds over the matched rows,
         which [check] vets before the second allocates the group
         slots over them. *)
      let gslot = Array.make (Int_col.length gside) (-1) in
      let pairs = ref 0 and glo = ref max_int and ghi = ref min_int in
      let gpassed =
        Filter.iter_where gwhere [| gside; gkeys |] ~f:(fun pos sel n bufs offs ->
            let kb = bufs.(0) and ko = offs.(0) and gb = bufs.(1) and go = offs.(1) in
            for x = 0 to n - 1 do
              let i = Array.unsafe_get sel x in
              let s = Array.unsafe_get kb (ko + i) - lo in
              if s >= 0 && s < slots then begin
                let c = Array.unsafe_get cnt s in
                if c > 0 then begin
                  Array.unsafe_set gslot (pos + i) s;
                  pairs := !pairs + c;
                  let g = Array.unsafe_get gb (go + i) in
                  if g < !glo then glo := g;
                  if g > !ghi then ghi := g
                end
              end
              else if gstrict then invalid_arg outside
            done)
      in
      let pairs = !pairs in
      (* One slot serves an empty result, as for an empty SPHG input. *)
      let glo, ghi = if pairs = 0 then (0, 0) else (!glo, !ghi) in
      check ~lo:glo ~hi:ghi ~rows:pairs;
      let domain = ghi - glo + 1 in
      let counts = Array.make domain 0 in
      (* COUNT only: no per-slot sums; the result's are zeros. *)
      let sums =
        match (osum, gsum) with
        | Some osum, _ ->
          let sums = Array.make domain 0 in
          Int_col.iter_seg gkeys ~f:(fun pos gb go len ->
              for k = 0 to len - 1 do
                let s = Array.unsafe_get gslot (pos + k) in
                if s >= 0 then begin
                  let g = Array.unsafe_get gb (go + k) - glo in
                  Array.unsafe_set counts g
                    (Array.unsafe_get counts g + Array.unsafe_get cnt s);
                  Array.unsafe_set sums g
                    (Array.unsafe_get sums g + Array.unsafe_get osum s)
                end
              done);
          Some sums
        | None, Some values ->
          let sums = Array.make domain 0 in
          Int_col.iter_seg2 gkeys values ~f:(fun pos gb go vb vo len ->
              for k = 0 to len - 1 do
                let s = Array.unsafe_get gslot (pos + k) in
                if s >= 0 then begin
                  let g = Array.unsafe_get gb (go + k) - glo in
                  let c = Array.unsafe_get cnt s in
                  Array.unsafe_set counts g (Array.unsafe_get counts g + c);
                  Array.unsafe_set sums g
                    (Array.unsafe_get sums g + (c * Array.unsafe_get vb (vo + k)))
                end
              done);
          Some sums
        | None, None ->
          Int_col.iter_seg gkeys ~f:(fun pos gb go len ->
              for k = 0 to len - 1 do
                let s = Array.unsafe_get gslot (pos + k) in
                if s >= 0 then begin
                  let g = Array.unsafe_get gb (go + k) - glo in
                  Array.unsafe_set counts g
                    (Array.unsafe_get counts g + Array.unsafe_get cnt s)
                end
              done);
          None
      in
      (Group_result.of_slots ~lo:glo ~counts ~sums, pairs, gpassed)
  in
  {
    groups;
    pairs;
    passed = (match group with Left -> (gpassed, opassed) | Right -> (opassed, gpassed));
  }

(* Merge join over key/id accessors: [lkey]/[rkey] enumerate the inputs
   in key order, [lid]/[rid] map merge ranks back to row ids; equal-key
   runs produce their cross product. *)
let merge_over ~n ~m ~lkey ~rkey ~lid ~rid =
  let b = buf_create () in
  let i = ref 0 and j = ref 0 in
  while !i < n && !j < m do
    let lk = lkey !i and rk = rkey !j in
    if lk < rk then incr i
    else if lk > rk then incr j
    else begin
      (* Find both runs of the shared key. *)
      let i_end = ref (!i + 1) in
      while !i_end < n && lkey !i_end = lk do
        incr i_end
      done;
      let j_end = ref (!j + 1) in
      while !j_end < m && rkey !j_end = lk do
        incr j_end
      done;
      for a = !i to !i_end - 1 do
        for c = !j to !j_end - 1 do
          buf_push b (lid a) (rid c)
        done
      done;
      i := !i_end;
      j := !j_end
    end
  done;
  buf_result b

let id = fun (i : int) -> i

let merge_join ~left ~right =
  if not (Int_col.is_sorted left) then
    invalid_arg "Join.merge_join: left input not sorted";
  if not (Int_col.is_sorted right) then
    invalid_arg "Join.merge_join: right input not sorted";
  merge_over ~n:(Int_col.length left) ~m:(Int_col.length right)
    ~lkey:(reader left) ~rkey:(reader right) ~lid:id ~rid:id

let sorted_perm keys =
  let perm = Array.init (Array.length keys) (fun i -> i) in
  let cmp i j = Int.compare keys.(i) keys.(j) in
  Array.sort cmp perm;
  perm

let sort_merge_join ~left ~right =
  (* The permutation sort is whole-column; materialise once. *)
  let la = Int_col.unsafe_array left and ra = Int_col.unsafe_array right in
  let lp = sorted_perm la and rp = sorted_perm ra in
  merge_over ~n:(Array.length la) ~m:(Array.length ra)
    ~lkey:(fun i -> la.(lp.(i)))
    ~rkey:(fun j -> ra.(rp.(j)))
    ~lid:(fun i -> lp.(i))
    ~rid:(fun j -> rp.(j))

let binary_search_join ~left ~right =
  (* Run-length index of the build side: distinct sorted keys plus, per
     key, the slice of [perm] holding its row ids. *)
  let la = Int_col.unsafe_array left in
  let n = Array.length la in
  let perm = sorted_perm la in
  let distinct = ref 0 in
  for i = 0 to n - 1 do
    if i = 0 || la.(perm.(i)) <> la.(perm.(i - 1)) then incr distinct
  done;
  let keys = Array.make (max 1 !distinct) 0 in
  let offsets = Array.make (max 1 !distinct + 1) 0 in
  let d = ref 0 in
  for i = 0 to n - 1 do
    if i = 0 || la.(perm.(i)) <> la.(perm.(i - 1)) then begin
      keys.(!d) <- la.(perm.(i));
      offsets.(!d) <- i;
      incr d
    end
  done;
  offsets.(!d) <- n;
  let g = !d in
  let b = buf_create () in
  Int_col.iter_seg right ~f:(fun pos buf off len ->
      for x = 0 to len - 1 do
        let j = pos + x in
        let k = Array.unsafe_get buf (off + x) in
        let lo = ref 0 and hi = ref g in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if keys.(mid) < k then lo := mid + 1 else hi := mid
        done;
        if !lo < g && keys.(!lo) = k then
          for a = offsets.(!lo) to offsets.(!lo + 1) - 1 do
            buf_push b perm.(a) j
          done
      done);
  buf_result b

let run alg ~left ~right =
  match alg with
  | HJ -> hash_join ~left ~right ()
  | SPHJ ->
    if Int_col.length left = 0 then { left = [||]; right = [||] }
    else begin
      let lo, hi = Int_col.min_max left in
      sph_join ~lo ~hi ~left ~right
    end
  | OJ -> merge_join ~left ~right
  | SOJ -> sort_merge_join ~left ~right
  | BSJ -> binary_search_join ~left ~right

let materialize ?keep l r pairs =
  let ls = Dqo_data.Relation.schema l in
  let la = Dqo_data.Schema.arity ls in
  let fields =
    List.mapi (fun i f -> (i, f))
      (Dqo_data.Schema.fields
         (Dqo_data.Schema.concat ls (Dqo_data.Relation.schema r)))
  in
  let kept =
    match keep with
    | None -> fields
    | Some names ->
      List.filter
        (fun (_, (f : Dqo_data.Schema.field)) ->
          List.exists (String.equal f.Dqo_data.Schema.name) names)
        fields
  in
  let gather (i, _) =
    if i < la then
      Dqo_data.Column.take (Dqo_data.Relation.column_at l i) pairs.left
    else
      Dqo_data.Column.take (Dqo_data.Relation.column_at r (i - la)) pairs.right
  in
  Dqo_data.Relation.create
    (Dqo_data.Schema.create (List.map snd kept))
    (List.map gather kept)

let nested_loop_reference ~left ~right =
  let b = buf_create () in
  let getl = reader left and getr = reader right in
  for i = 0 to Int_col.length left - 1 do
    for j = 0 to Int_col.length right - 1 do
      if getl i = getr j then buf_push b i j
    done
  done;
  buf_result b
