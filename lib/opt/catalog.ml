type table_info = { name : string; rows : int; props : Dqo_plan.Props.t }

type t = { tables : table_info list }

let create tables =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun ti ->
      if Hashtbl.mem seen ti.name then
        invalid_arg ("Catalog.create: duplicate relation " ^ ti.name);
      Hashtbl.add seen ti.name ())
    tables;
  { tables }

let table ~name ~rows ~props = { name; rows; props }

(* Does ordering the rows by the permutation [perm] leave [col]
   clustered (each value one contiguous run)?  Exactly when the reordered
   column has as many runs as [col] has distinct values; true whenever
   [col] is a monotone function of the sort key. *)
let clustered_along perm col ~distinct =
  (* Random access through the permutation; materialise once (zero-copy
     when flat). *)
  let col = Dqo_data.Int_col.unsafe_array col in
  let runs = ref 0 in
  for i = 0 to Array.length perm - 1 do
    if i = 0 || col.(perm.(i - 1)) <> col.(perm.(i)) then incr runs
  done;
  !runs = distinct

let of_relation name rel =
  let schema = Dqo_data.Relation.schema rel in
  let int_cols =
    List.filter_map
      (fun (f : Dqo_data.Schema.field) ->
        match f.ty with
        | Dqo_data.Schema.T_int ->
          let col = Dqo_data.Relation.int_col rel f.name in
          Some (f.name, col, Dqo_data.Col_stats.analyze col)
        | Dqo_data.Schema.T_float | Dqo_data.Schema.T_string -> None)
      (Dqo_data.Schema.fields schema)
  in
  (* Detect co-ordering between column pairs (capped: the check sorts),
     sorting each column once for all the columns it may order. *)
  let co_ordered =
    if Dqo_data.Relation.cardinality rel > 2_000_000 then []
    else
      List.concat_map
        (fun (n1, c1, _) ->
          let perm = lazy (Dqo_exec.Sort_op.permutation c1) in
          List.filter_map
            (fun (n2, c2, (s2 : Dqo_data.Col_stats.t)) ->
              if String.equal n1 n2 then None
              else if
                clustered_along (Lazy.force perm) c2
                  ~distinct:s2.Dqo_data.Col_stats.distinct
              then Some (n1, n2)
              else None)
            int_cols)
        int_cols
  in
  {
    name;
    rows = Dqo_data.Relation.cardinality rel;
    props =
      Dqo_plan.Props.of_stats ~co_ordered
        (List.map (fun (n, _, s) -> (n, s)) int_cols);
  }

let find t name =
  match List.find_opt (fun ti -> String.equal ti.name name) t.tables with
  | Some ti -> ti
  | None -> raise Not_found

let mem t name = List.exists (fun ti -> String.equal ti.name name) t.tables
let tables t = t.tables

let columns_of t name =
  List.map fst (find t name).props.Dqo_plan.Props.columns

(* Column names are globally unique across a query's relations (the
   binder enforces it), so the first catalog entry recording properties
   for [col] is the base relation that provides it. *)
let relation_of_column t col =
  List.find_map
    (fun ti ->
      match Dqo_plan.Props.column ti.props col with
      | Some _ -> Some ti.name
      | None -> None)
    t.tables
