module Catalog = Dqo_opt.Catalog
module Props = Dqo_plan.Props

type kind =
  | Sorted_projection of { relation : string; column : string }
  | Perfect_hash of { relation : string; column : string }
  | Grouping_result of { relation : string; key : string }

type t = { id : string; kind : kind; build_cost : float }

let log2 = Dqo_cost.Model.log2

let sorted_projection catalog ~relation ~column =
  let ti = Catalog.find catalog relation in
  let n = Float.of_int ti.Catalog.rows in
  {
    id = Printf.sprintf "sorted(%s.%s)" relation column;
    kind = Sorted_projection { relation; column };
    build_cost = n *. log2 n;
  }

let perfect_hash catalog ~relation ~column =
  let ti = Catalog.find catalog relation in
  let n = Float.of_int ti.Catalog.rows in
  {
    id = Printf.sprintf "sph(%s.%s)" relation column;
    kind = Perfect_hash { relation; column };
    build_cost = 2.0 *. n;
  }

let grouping_result catalog ~relation ~key =
  let ti = Catalog.find catalog relation in
  let n = Float.of_int ti.Catalog.rows in
  {
    id = Printf.sprintf "grouped(%s by %s)" relation key;
    kind = Grouping_result { relation; key };
    build_cost = 4.0 *. n;
  }

let update_table catalog name f =
  Catalog.create
    (List.map
       (fun (ti : Catalog.table_info) ->
         if String.equal ti.Catalog.name name then f ti else ti)
       (Catalog.tables catalog))

let grouped_name relation key = relation ^ "__by_" ^ key

let apply catalog t =
  match t.kind with
  | Sorted_projection { relation; column } ->
    update_table catalog relation (fun ti ->
        {
          ti with
          Catalog.props = Props.with_sort ti.Catalog.props column;
        })
  | Perfect_hash { relation; column } ->
    update_table catalog relation (fun ti ->
        let props = ti.Catalog.props in
        let columns =
          List.map
            (fun (n, (c : Props.column)) ->
              if String.equal n column then (n, { c with Props.dense = true })
              else (n, c))
            props.Props.columns
        in
        { ti with Catalog.props = { props with Props.columns } })
  | Grouping_result { relation; key } ->
    let ti = Catalog.find catalog relation in
    let groups =
      match Props.distinct_of ti.Catalog.props key with
      | Some d -> d
      | None -> ti.Catalog.rows
    in
    let key_col =
      match Props.column ti.Catalog.props key with
      | Some c -> { c with Props.distinct = groups }
      | None -> { Props.dense = false; lo = 0; hi = -1; distinct = groups }
    in
    let props =
      {
        Props.sorted_by = Some key;
        clustered_by = Some key;
        columns = [ (key, key_col) ];
        co_ordered = [];
      }
    in
    Catalog.create
      (Catalog.tables catalog
      @ [ Catalog.table ~name:(grouped_name relation key) ~rows:groups ~props ])

let apply_all catalog ts = List.fold_left apply catalog ts

(* --- rewriting queries through materialised-grouping views ----------- *)

module Logical = Dqo_plan.Logical
module Aggregate = Dqo_exec.Aggregate

let servable_agg ~key (a : Logical.aggregate) =
  match (a.Logical.spec, a.Logical.column) with
  | Aggregate.Count, _ -> true
  | Aggregate.Sum, Some c -> String.equal c key
  | (Aggregate.Sum | Aggregate.Min | Aggregate.Max | Aggregate.Avg), _ -> false

(* COUNT over the base becomes SUM over the view's per-group "cnt"
   column; SUM(key) becomes SUM over "total".  Each view key is unique,
   so re-grouping the view by its own key yields one row per group and
   the sums reconstruct the base aggregates exactly. *)
let rewrite_agg (a : Logical.aggregate) =
  match a.Logical.spec with
  | Aggregate.Count ->
    { a with Logical.spec = Aggregate.Sum; column = Some "cnt" }
  | Aggregate.Sum ->
    { a with Logical.spec = Aggregate.Sum; column = Some "total" }
  | Aggregate.Min | Aggregate.Max | Aggregate.Avg -> assert false

let rewrite_through views l =
  let grouped =
    List.filter_map
      (fun v ->
        match v.kind with
        | Grouping_result { relation; key } -> Some (relation, key)
        | Sorted_projection _ | Perfect_hash _ -> None)
      views
  in
  match l with
  | Logical.Group_by (Logical.Scan rel, key, aggs)
    when List.mem (rel, key) grouped
         && List.for_all (servable_agg ~key) aggs ->
    Logical.Group_by
      (Logical.Scan (grouped_name rel key), key, List.map rewrite_agg aggs)
  | Logical.Scan _ | Logical.Select _ | Logical.Project _ | Logical.Join _
  | Logical.Group_by _ ->
    l

(* --- resident-memory estimates --------------------------------------- *)

let word = 8

let estimated_bytes catalog t =
  match t.kind with
  | Sorted_projection { relation; _ } ->
    let ti = Catalog.find catalog relation in
    ti.Catalog.rows
    * max 1 (List.length ti.Catalog.props.Props.columns)
    * word
  | Perfect_hash { relation; column } ->
    let ti = Catalog.find catalog relation in
    if Props.dense_on ti.Catalog.props column then 2 * word
    else
      let d =
        match Props.distinct_of ti.Catalog.props column with
        | Some d -> d
        | None -> ti.Catalog.rows
      in
      (* FKS: expected-linear second-level tables (cells + keys) plus
         bucket headers — about six words per distinct key. *)
      d * 6 * word
  | Grouping_result { relation; key } ->
    let ti = Catalog.find catalog relation in
    let g =
      match Props.distinct_of ti.Catalog.props key with
      | Some d -> d
      | None -> ti.Catalog.rows
    in
    g * 3 * word

type materialized =
  | M_sorted of Dqo_data.Relation.t
  | M_fks of Dqo_hash.Perfect.Fks.t
  | M_dense_bounds of { lo : int; hi : int }
  | M_grouping of Dqo_exec.Group_result.t

let materialize ~info rel t =
  match t.kind with
  | Sorted_projection { column; _ } ->
    M_sorted (Dqo_exec.Sort_op.by_column rel column)
  | Perfect_hash { column; _ } -> (
    match Props.column info.Catalog.props column with
    | Some c when c.Props.dense -> M_dense_bounds { lo = c.Props.lo; hi = c.Props.hi }
    | Some _ | None ->
      M_fks
        (Dqo_hash.Perfect.Fks.build
           (Dqo_data.Int_col.to_array (Dqo_data.Relation.int_col rel column))))
  | Grouping_result { key; _ } ->
    let keys = Dqo_data.Relation.int_col rel key in
    M_grouping (Dqo_exec.Grouping.hash_based ~keys ~values:keys ())

let describe t =
  let detail =
    match t.kind with
    | Sorted_projection { relation; column } ->
      Printf.sprintf "sorted projection of %s by %s" relation column
    | Perfect_hash { relation; column } ->
      Printf.sprintf "static perfect hash over %s.%s" relation column
    | Grouping_result { relation; key } ->
      Printf.sprintf "materialised grouping of %s by %s" relation key
  in
  Printf.sprintf "%s (build cost %.0f)" detail t.build_cost
