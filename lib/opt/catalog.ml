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

(* Does ordering the rows by [by] leave [col] clustered (each value one
   contiguous run)?  True whenever [col] is a monotone function of [by]. *)
let co_orders by col =
  let perm = Dqo_exec.Sort_op.permutation by in
  (* The clustering check random-accesses [col] through the
     permutation; materialise once (zero-copy when flat). *)
  let col = Dqo_data.Int_col.unsafe_array col in
  let seen = Hashtbl.create 64 in
  let n = Array.length perm in
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < n do
    let v = col.(perm.(!i)) in
    if !i = 0 || col.(perm.(!i - 1)) <> v then begin
      if Hashtbl.mem seen v then ok := false else Hashtbl.add seen v ()
    end;
    incr i
  done;
  !ok

let of_relation name rel =
  let schema = Dqo_data.Relation.schema rel in
  let int_cols =
    List.filter_map
      (fun (f : Dqo_data.Schema.field) ->
        match f.ty with
        | Dqo_data.Schema.T_int ->
          Some (f.name, Dqo_data.Relation.int_col rel f.name)
        | Dqo_data.Schema.T_float | Dqo_data.Schema.T_string -> None)
      (Dqo_data.Schema.fields schema)
  in
  let stats =
    List.map (fun (n, col) -> (n, Dqo_data.Col_stats.analyze col)) int_cols
  in
  (* Detect co-ordering between column pairs (capped: the check sorts). *)
  let co_ordered =
    if Dqo_data.Relation.cardinality rel > 2_000_000 then []
    else
      List.concat_map
        (fun (n1, c1) ->
          List.filter_map
            (fun (n2, c2) ->
              if String.equal n1 n2 then None
              else if co_orders c1 c2 then Some (n1, n2)
              else None)
            int_cols)
        int_cols
  in
  {
    name;
    rows = Dqo_data.Relation.cardinality rel;
    props = Dqo_plan.Props.of_stats ~co_ordered stats;
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
