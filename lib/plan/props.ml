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
