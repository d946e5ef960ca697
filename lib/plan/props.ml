type column = { dense : bool; lo : int; hi : int; distinct : int }

type t = {
  sorted_by : string option;
  clustered_by : string option;
  columns : (string * column) list;
  co_ordered : (string * string) list;
}

let none =
  { sorted_by = None; clustered_by = None; columns = []; co_ordered = [] }

(* Column lists are short and string-keyed; these walks compare names
   with [String.equal] instead of the polymorphic [compare] behind
   [List.assoc_opt]/[List.mem], which the join DP calls on every
   candidate. *)
let rec assoc name = function
  | [] -> None
  | (n, c) :: rest -> if String.equal n name then Some c else assoc name rest

let rec mem_name name = function
  | [] -> false
  | n :: rest -> String.equal n name || mem_name name rest

let rec mem_pair a b = function
  | [] -> false
  | (x, y) :: rest -> (String.equal x a && String.equal y b) || mem_pair a b rest

let of_stats ?name ?(co_ordered = []) cols =
  let columns =
    List.map
      (fun (n, (s : Dqo_data.Col_stats.t)) ->
        (n, { dense = s.dense; lo = s.lo; hi = s.hi; distinct = s.distinct }))
      cols
  in
  let sorted_names =
    List.filter_map
      (fun (n, (s : Dqo_data.Col_stats.t)) -> if s.sorted then Some n else None)
      cols
  in
  let sorted_by =
    match name with
    | Some n when mem_name n sorted_names -> Some n
    | Some _ | None ->
      (match sorted_names with [] -> None | n :: _ -> Some n)
  in
  let clustered_by =
    match sorted_by with
    | Some _ -> sorted_by
    | None ->
      List.find_map
        (fun (n, (s : Dqo_data.Col_stats.t)) ->
          if s.clustered && s.distinct > 1 then Some n else None)
        cols
  in
  { sorted_by; clustered_by; columns; co_ordered }

let column t name = assoc name t.columns

let sorted_on t name =
  match t.sorted_by with Some n -> String.equal n name | None -> false

let clustered_on t name =
  sorted_on t name
  || (match t.clustered_by with Some n -> String.equal n name | None -> false)
  ||
  match t.sorted_by with
  | Some s -> mem_pair s name t.co_ordered
  | None -> false

let dense_on t name =
  match column t name with Some c -> c.dense | None -> false

let distinct_of t name =
  match column t name with Some c -> Some c.distinct | None -> None

let with_sort t name =
  { t with sorted_by = Some name; clustered_by = Some name }

let without_order t = { t with sorted_by = None; clustered_by = None }

let rename_columns t renaming =
  let rename n =
    match assoc n renaming with Some n' -> n' | None -> n
  in
  {
    sorted_by = Option.map rename t.sorted_by;
    clustered_by = Option.map rename t.clustered_by;
    columns = List.map (fun (n, c) -> (rename n, c)) t.columns;
    co_ordered = List.map (fun (a, b) -> (rename a, rename b)) t.co_ordered;
  }

let restrict t names =
  let keep field =
    match field with
    | Some n when mem_name n names -> Some n
    | Some _ | None -> None
  in
  {
    sorted_by = keep t.sorted_by;
    clustered_by = keep t.clustered_by;
    columns = List.filter (fun (n, _) -> mem_name n names) t.columns;
    co_ordered =
      List.filter
        (fun (a, b) -> mem_name a names && mem_name b names)
        t.co_ordered;
  }

let union_columns a b =
  let merged =
    a.columns
    @ List.filter (fun (n, _) -> Option.is_none (assoc n a.columns)) b.columns
  in
  {
    sorted_by = None;
    clustered_by = None;
    columns = merged;
    co_ordered =
      a.co_ordered
      @ List.filter (fun (x, y) -> not (mem_pair x y a.co_ordered)) b.co_ordered;
  }

let shallow t =
  {
    t with
    columns =
      List.map
        (fun (n, c) -> (n, { c with dense = false; lo = 0; hi = -1 }))
        t.columns;
  }

let opt_sub a b =
  (* Every guarantee of [b] is present in [a]. *)
  match (b, a) with
  | None, _ -> true
  | Some bn, Some an -> String.equal an bn
  | Some _, None -> false

let column_dominates (a : column) (b : column) =
  (not b.dense) || (a.dense && a.lo = b.lo && a.hi = b.hi)

(* [b]'s columns [bcs] against [a]'s.  Candidates built from the same
   split list their columns in the same order, so each of [b]'s columns
   is first looked for in [acs], the rest of [a]'s columns after the
   previous match: in lockstep that is the head.  Candidates from other
   splits list the same columns in another order; when the rest has no
   match the lookup falls back to all of [a]'s columns [acs_all], and
   the walk resumes in lockstep after wherever it matched.  Names are
   unique within one vector, so every lookup finds the column lookup by
   name would.  Vectors derived from one another share their names,
   column records and often whole lists, so physical equality settles
   most steps before any field is read. *)
let rec columns_dominate acs_all acs bcs =
  match bcs with
  | [] -> true
  | _ when acs == bcs -> true
  | (bn, bc) :: brest -> seek acs_all bn bc brest acs ~wrapped:false

and seek acs_all bn bc brest acs ~wrapped =
  match acs with
  | (an, ac) :: arest when an == bn || String.equal an bn ->
    (ac == bc || column_dominates ac bc)
    && columns_dominate acs_all arest brest
  | _ :: arest -> seek acs_all bn bc brest arest ~wrapped
  | [] ->
    if wrapped then (not bc.dense) && columns_dominate acs_all acs_all brest
    else seek acs_all bn bc brest acs_all ~wrapped:true

(* Every pair of [bps] is in [a]'s co-ordering pairs [aps_all], by the
   same resumable lockstep lookup as [columns_dominate]. *)
let rec pairs_within aps_all aps bps =
  match bps with
  | [] -> true
  | _ when aps == bps -> true
  | bp :: brest -> seek_pair aps_all bp brest aps ~wrapped:false

and seek_pair aps_all ((bx, by) as bp) brest aps ~wrapped =
  match aps with
  | ((ax, ay) as ap) :: arest
    when ap == bp || (String.equal ax bx && String.equal ay by) ->
    pairs_within aps_all arest brest
  | _ :: arest -> seek_pair aps_all bp brest arest ~wrapped
  | [] -> (not wrapped) && seek_pair aps_all bp brest aps_all ~wrapped:true

let dominates a b =
  opt_sub a.sorted_by b.sorted_by
  && opt_sub a.clustered_by b.clustered_by
  && pairs_within a.co_ordered a.co_ordered b.co_ordered
  && columns_dominate a.columns a.columns b.columns

let equal a b = dominates a b && dominates b a

let pp ppf t =
  let pp_opt ppf = function
    | Some n -> Format.pp_print_string ppf n
    | None -> Format.pp_print_string ppf "-"
  in
  Format.fprintf ppf "{sorted=%a; clustered=%a; dense=[%a]}" pp_opt
    t.sorted_by pp_opt t.clustered_by
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_string)
    (List.filter_map (fun (n, c) -> if c.dense then Some n else None) t.columns)

(* ------------------------------------------------------------------ *)
(* Property vectors over a fixed column layout.                        *)

module Layout = struct
  module Bitset = Dqo_util.Bitset

  type props = t

  type names = {
    id_of : (string, int) Hashtbl.t;
    mutable name : string array;
    pairs : (string * string, int) Hashtbl.t;
    mutable from : (int * int) list array;
        (* by name id [a]: each pair (a, b)'s id, and [b]'s name id *)
  }

  let names () =
    {
      id_of = Hashtbl.create 64;
      name = [||];
      pairs = Hashtbl.create 16;
      from = [||];
    }

  let name_count names = Hashtbl.length names.id_of
  let name names i = names.name.(i)

  let name_id names n =
    match Hashtbl.find_opt names.id_of n with
    | Some i -> i
    | None ->
      let i = Hashtbl.length names.id_of in
      Hashtbl.add names.id_of n i;
      if i >= Array.length names.name then begin
        names.name <- Array.append names.name (Array.make (i + 8) "");
        names.from <- Array.append names.from (Array.make (i + 8) [])
      end;
      names.name.(i) <- n;
      i

  let pair_id names ((a, b) as pair) =
    match Hashtbl.find_opt names.pairs pair with
    | Some i -> i
    | None ->
      let i = Hashtbl.length names.pairs in
      Hashtbl.add names.pairs pair i;
      let a = name_id names a and b = name_id names b in
      names.from.(a) <- (i, b) :: names.from.(a);
      i

  (* Column records, [stride] ints per layout slot: whether the column
     list has the name ([absent], [sparse] or [dense]), the low and high
     bound, and the distinct count.  Unboxed, so copying and comparing
     them touch no pointer. *)
  let stride = 4
  let absent = 0
  let sparse = 1
  let dense = 2

  let put cols sl (c : column) =
    let b = sl * stride in
    cols.(b) <- (if c.dense then dense else sparse);
    cols.(b + 1) <- c.lo;
    cols.(b + 2) <- c.hi;
    cols.(b + 3) <- c.distinct

  let get cols sl =
    let b = sl * stride in
    {
      dense = cols.(b) = dense;
      lo = cols.(b + 1);
      hi = cols.(b + 2);
      distinct = cols.(b + 3);
    }

  type cls = {
    cols : int array; (* column records by layout slot *)
    order : int array; (* the column list, as layout slots *)
    co : (string * string) list; (* the co-ordering pairs, in list order *)
    co_set : Bitset.t; (* the pairs, as ids *)
  }

  type layout = {
    lay : int array; (* the name id of each slot, ascending *)
    slot_of : int array; (* each name id's slot, or -1 *)
    empty : cls; (* the class with no columns and no pairs *)
  }

  type t = { cls : cls; sorted : int; clustered : int }

  let of_lay names lay =
    let slot_of = Array.make (name_count names) (-1) in
    Array.iteri (fun sl id -> slot_of.(id) <- sl) lay;
    {
      lay;
      slot_of;
      empty =
        {
          cols = Array.make (Array.length lay * stride) absent;
          order = [||];
          co = [];
          co_set = Bitset.empty;
        };
    }

  let layout names ids =
    of_lay names (Array.of_list (List.sort_uniq Int.compare ids))

  (* Whether ascending [b] is a subset of ascending [a]. *)
  let sorted_within a b =
    let na = Array.length a and nb = Array.length b in
    let rec go i j =
      j >= nb
      || (i < na
         && (if a.(i) < b.(j) then go (i + 1) j
             else a.(i) = b.(j) && go (i + 1) (j + 1)))
    in
    go 0 0

  (* The union of ascending [a] and [b], ascending; [a] itself when [b]
     adds nothing. *)
  let sorted_union a b =
    if sorted_within a b then a
    else begin
      let na = Array.length a and nb = Array.length b in
      let out = Array.make (na + nb) 0 in
      let rec go i j n =
        if i < na && (j >= nb || a.(i) <= b.(j)) then begin
          out.(n) <- a.(i);
          go (i + 1) (if j < nb && b.(j) = a.(i) then j + 1 else j) (n + 1)
        end
        else if j < nb then begin
          out.(n) <- b.(j);
          go i (j + 1) (n + 1)
        end
        else n
      in
      let n = go 0 0 0 in
      if n = na + nb then out else Array.sub out 0 n
    end

  let union_layout names a b = of_lay names (sorted_union a.lay b.lay)
  let slots_into l ~into = Array.map (fun id -> into.slot_of.(id)) l.lay

  let flag l v id =
    let sl = if id < Array.length l.slot_of then l.slot_of.(id) else -1 in
    if sl < 0 then absent else v.cls.cols.(sl * stride)

  let has l v id = flag l v id <> absent
  let dense_on l v id = flag l v id = dense

  let distinct_or l v id default =
    if flag l v id = absent then default
    else v.cls.cols.((l.slot_of.(id) * stride) + 3)

  let with_sort v id = { v with sorted = id; clustered = id }

  let co_partners names v c =
    List.filter_map
      (fun (p, b) -> if Bitset.mem p v.cls.co_set then Some b else None)
      names.from.(c)

  let rec mem_pair x y = function
    | [] -> false
    | (a, b) :: rest ->
      (String.equal a x && String.equal b y) || mem_pair x y rest

  let union l map1 a map2 b ~rows =
    let n = Array.length l.lay in
    let cols = Array.make (n * stride) absent and order = Array.make n 0 in
    let len = ref 0 and cap = if rows > 0 then rows else 0 in
    let place (src : cls) map =
      let from = src.cols in
      for i = 0 to Array.length src.order - 1 do
        let sl = src.order.(i) in
        let p = map.(sl) in
        let d = p * stride and s = sl * stride in
        if cols.(d) = absent then begin
          cols.(d) <- from.(s);
          cols.(d + 1) <- from.(s + 1);
          cols.(d + 2) <- from.(s + 2);
          cols.(d + 3) <- (if from.(s + 3) > cap then cap else from.(s + 3));
          order.(!len) <- p;
          incr len
        end
      done
    in
    place a map1;
    place b map2;
    let co_set = Bitset.union a.co_set b.co_set in
    let co =
      if Bitset.subset b.co_set a.co_set then a.co
      else if Bitset.disjoint a.co_set b.co_set then a.co @ b.co
      else a.co @ List.filter (fun (x, y) -> not (mem_pair x y a.co)) b.co
    in
    if !len = 0 && Bitset.is_empty co_set then l.empty
    else
      {
        cols;
        order = (if !len = n then order else Array.sub order 0 !len);
        co;
        co_set;
      }

  (* [column_dominates] slot by slot: a slot [b] lacks or holds sparse
     asks nothing, a dense one asks [a] for the same dense bounds. *)
  let cols_dominate (a : int array) (b : int array) =
    let rec go i =
      i < 0
      || (b.(i) <> dense
         || (a.(i) = dense && a.(i + 1) = b.(i + 1) && a.(i + 2) = b.(i + 2)))
         && go (i - stride)
    in
    go (Array.length b - stride)

  let dominates a b =
    a == b
    || (b.sorted < 0 || a.sorted = b.sorted)
       && (b.clustered < 0 || a.clustered = b.clustered)
       && (a.cls == b.cls
          || Bitset.subset b.cls.co_set a.cls.co_set
             && cols_dominate a.cls.cols b.cls.cols)

  let classes (vs : t array) =
    let seen = ref [] and next = ref 0 in
    let ids =
      Array.map
        (fun v ->
          match List.assq_opt v.cls !seen with
          | Some id -> id
          | None ->
            let id = !next in
            incr next;
            seen := (v.cls, id) :: !seen;
            id)
        vs
    in
    (ids, !next)

  (* Class ids over property lists: vectors whose column and
     co-ordering lists are physically the same lists share an id.
     Shared lists are the rule, not luck — a sort enforcer keeps its
     source's lists — so hashing the column list and comparing
     physically within a bucket finds every class in one pass. *)
  let list_classes (a : props array) =
    let seen = Hashtbl.create 16 in
    let next = ref 0 in
    let ids =
      Array.map
        (fun (p : props) ->
          let h = Hashtbl.hash p.columns in
          let bucket = Option.value ~default:[] (Hashtbl.find_opt seen h) in
          let same ((q : props), _) =
            q.columns == p.columns && q.co_ordered == p.co_ordered
          in
          match List.find_opt same bucket with
          | Some (_, id) -> id
          | None ->
            let id = !next in
            incr next;
            Hashtbl.replace seen h ((p, id) :: bucket);
            id)
        a
    in
    (ids, !next)

  let of_props names (ps : props array) =
    let ids, classes = list_classes ps in
    let reps = Array.make classes none in
    Array.iteri (fun i p -> reps.(ids.(i)) <- p) ps;
    let col_ids =
      Array.map (fun (p : props) -> List.map (fun (n, _) -> name_id names n) p.columns) reps
    in
    let opt_id = function Some n -> name_id names n | None -> -1 in
    let orders =
      Array.map (fun (p : props) -> (opt_id p.sorted_by, opt_id p.clustered_by)) ps
    in
    let co_sets =
      Array.map
        (fun (p : props) -> Bitset.of_list (List.map (pair_id names) p.co_ordered))
        reps
    in
    let l = layout names (List.concat (Array.to_list col_ids)) in
    let cls =
      Array.mapi
        (fun c (p : props) ->
          let cols = Array.make (Array.length l.lay * stride) absent in
          let order =
            List.filter_map
              (fun (id, (_, r)) ->
                let sl = l.slot_of.(id) in
                if cols.(sl * stride) <> absent then None
                else begin
                  put cols sl r;
                  Some sl
                end)
              (List.combine col_ids.(c) p.columns)
          in
          { cols; order = Array.of_list order; co = p.co_ordered; co_set = co_sets.(c) })
        reps
    in
    ( l,
      Array.mapi
        (fun i (sorted, clustered) -> { cls = cls.(ids.(i)); sorted; clustered })
        orders )

  let exporter names l =
    let lists = ref [] in
    fun v ->
      let columns =
        match List.assq_opt v.cls !lists with
        | Some cs -> cs
        | None ->
          let cs =
            Array.to_list
              (Array.map (fun sl -> (names.name.(l.lay.(sl)), get v.cls.cols sl)) v.cls.order)
          in
          lists := (v.cls, cs) :: !lists;
          cs
      in
      let name i = if i < 0 then None else Some names.name.(i) in
      {
        sorted_by = name v.sorted;
        clustered_by = name v.clustered;
        columns;
        co_ordered = v.cls.co;
      }
end
