(* End-to-end engine tests: SQL -> parse -> bind -> optimise (both modes)
   -> execute, checked against naive reference computations, plus
   algorithmic-view installation. *)

module Engine = Dqo_engine.Engine
module Relation = Dqo_data.Relation
module Schema = Dqo_data.Schema
module Value = Dqo_data.Value
module Datagen = Dqo_data.Datagen
module Physical = Dqo_plan.Physical
module Pareto = Dqo_opt.Pareto

(* Materialised copy of an integer column (tests index it randomly). *)
let int_column rel name = Dqo_data.Int_col.to_array (Relation.int_col rel name)

let fk_db ~r_sorted ~s_sorted ~dense ~seed =
  let rng = Dqo_util.Rng.create ~seed in
  let pair =
    Datagen.fk_pair ~rng ~r_rows:2_000 ~s_rows:7_000 ~r_groups:400 ~r_sorted
      ~s_sorted ~dense
  in
  let db = Engine.create () in
  Engine.register db ~name:"R" pair.Datagen.r;
  Engine.register db ~name:"S" pair.Datagen.s;
  (db, pair)

(* Reference: group count of the FK join over the S rows [keep]
   accepts, computed naively. *)
let reference_group_counts ?(keep = fun _ -> true) (pair : Datagen.fk_pair) =
  let ids = int_column pair.Datagen.r "id" in
  let a = int_column pair.Datagen.r "a" in
  let a_of_id = Hashtbl.create 1024 in
  Array.iteri (fun i id -> Hashtbl.replace a_of_id id a.(i)) ids;
  let counts = Hashtbl.create 1024 in
  Array.iteri
    (fun i r_id ->
      if keep i then
        let g = Hashtbl.find a_of_id r_id in
        Hashtbl.replace counts g (1 + Option.value ~default:0 (Hashtbl.find_opt counts g)))
    (int_column pair.Datagen.s "r_id");
  counts

let result_to_alist rel =
  let keys = int_column rel (List.hd (List.map (fun (f : Schema.field) -> f.Schema.name) (Schema.fields (Relation.schema rel)))) in
  let counts = int_column rel "cnt" in
  List.sort compare
    (Array.to_list (Array.mapi (fun i k -> (k, counts.(i))) keys))

let check_group_query ~r_sorted ~s_sorted ~dense ~seed =
  let db, pair = fk_db ~r_sorted ~s_sorted ~dense ~seed in
  let sql = "SELECT a, COUNT(*) AS cnt FROM R JOIN S ON id = r_id GROUP BY a" in
  let expected =
    List.sort compare
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) (reference_group_counts pair) [])
  in
  let check mode label =
    let rel = Engine.run_sql db ~mode sql in
    Alcotest.(check (list (pair int int))) label expected (result_to_alist rel)
  in
  check Engine.SQO "sqo result";
  check Engine.DQO "dqo result"

let test_group_query_all_combinations () =
  List.iteri
    (fun i (r_sorted, s_sorted, dense) ->
      check_group_query ~r_sorted ~s_sorted ~dense ~seed:(100 + i))
    [
      (true, true, true);
      (true, false, true);
      (false, true, true);
      (false, false, true);
      (true, true, false);
      (false, false, false);
    ]

let test_dqo_plan_uses_sph_and_matches () =
  let db, _ = fk_db ~r_sorted:false ~s_sorted:false ~dense:true ~seed:5 in
  let sql = "SELECT a, COUNT(*) AS cnt FROM R JOIN S ON id = r_id GROUP BY a" in
  let e = Engine.plan_sql db Engine.DQO sql in
  Alcotest.(check bool) "deep plan is SPH-based" true
    (Physical.uses_sph e.Pareto.plan)

let test_where_pushdown () =
  let db, pair = fk_db ~r_sorted:true ~s_sorted:true ~dense:true ~seed:9 in
  let rel =
    Engine.run_sql db
      "SELECT a, COUNT(*) AS cnt FROM R JOIN S ON id = r_id WHERE a < 100 GROUP BY a"
  in
  let expected =
    List.sort compare
      (Hashtbl.fold
         (fun k v acc -> if k < 100 then (k, v) :: acc else acc)
         (reference_group_counts pair) [])
  in
  Alcotest.(check (list (pair int int))) "filtered" expected (result_to_alist rel)

let test_plain_projection () =
  let db, pair = fk_db ~r_sorted:true ~s_sorted:false ~dense:true ~seed:3 in
  let rel = Engine.run_sql db "SELECT a FROM R WHERE id BETWEEN 10 AND 19" in
  Alcotest.(check int) "ten rows" 10 (Relation.cardinality rel);
  let ids = int_column pair.Datagen.r "id" in
  let a = int_column pair.Datagen.r "a" in
  let expected = ref [] in
  Array.iteri
    (fun i id -> if id >= 10 && id <= 19 then expected := a.(i) :: !expected)
    ids;
  let got = Array.to_list (int_column rel "a") in
  Alcotest.(check (list int))
    "values" (List.sort compare !expected) (List.sort compare got)

let test_generic_aggregates () =
  let db = Engine.create () in
  let schema = Schema.of_names [ ("g", Schema.T_int); ("v", Schema.T_int) ] in
  let rel =
    Relation.of_int_rows schema
      [ [ 1; 10 ]; [ 2; 5 ]; [ 1; 30 ]; [ 2; 15 ]; [ 1; 20 ] ]
  in
  Engine.register db ~name:"T" rel;
  let out =
    Engine.run_sql db
      "SELECT g, MIN(v) AS lo, MAX(v) AS hi, AVG(v) AS mean, COUNT(*) AS cnt \
       FROM T GROUP BY g"
  in
  let rows = List.sort compare (Relation.rows out) in
  Alcotest.(check int) "two groups" 2 (List.length rows);
  (match rows with
  | [ [ Value.Int 1; Value.Int 10; Value.Int 30; Value.Float m1; Value.Int 3 ];
      [ Value.Int 2; Value.Int 5; Value.Int 15; Value.Float m2; Value.Int 2 ] ] ->
    Alcotest.(check (float 0.001)) "avg g1" 20.0 m1;
    Alcotest.(check (float 0.001)) "avg g2" 10.0 m2
  | _ -> Alcotest.fail "unexpected result shape")

let test_sum_aggregate_fast_path () =
  let db = Engine.create () in
  let schema = Schema.of_names [ ("g", Schema.T_int); ("v", Schema.T_int) ] in
  let rel =
    Relation.of_int_rows schema [ [ 0; 1 ]; [ 1; 2 ]; [ 0; 3 ]; [ 1; 4 ] ]
  in
  Engine.register db ~name:"T" rel;
  let out = Engine.run_sql db "SELECT g, SUM(v) AS s FROM T GROUP BY g" in
  let rows = List.sort compare (Relation.rows out) in
  Alcotest.(check bool) "sums" true
    (rows = [ [ Value.Int 0; Value.Int 4 ]; [ Value.Int 1; Value.Int 6 ] ])

(* --- algorithmic views ---------------------------------------------- *)

let test_perfect_hash_av_on_sparse_data () =
  let db, pair = fk_db ~r_sorted:false ~s_sorted:false ~dense:false ~seed:21 in
  let sql = "SELECT a, COUNT(*) AS cnt FROM R JOIN S ON id = r_id GROUP BY a" in
  (* Without the AV, DQO cannot use SPH on sparse columns. *)
  let before = Engine.plan_sql db Engine.DQO sql in
  Alcotest.(check bool) "no SPH before" false
    (Physical.uses_sph before.Pareto.plan);
  (* Install perfect-hash AVs over the sparse join and grouping keys. *)
  Engine.install_av db
    (Dqo_av.View.perfect_hash (Engine.catalog db) ~relation:"R" ~column:"id");
  Engine.install_av db
    (Dqo_av.View.perfect_hash (Engine.catalog db) ~relation:"R" ~column:"a");
  let after = Engine.plan_sql db Engine.DQO sql in
  Alcotest.(check bool) "SPH after AV install" true
    (Physical.uses_sph after.Pareto.plan);
  Alcotest.(check bool) "cheaper after AV" true
    (after.Pareto.cost < before.Pareto.cost);
  (* And the FKS-backed execution still returns the right answer. *)
  let rel = Engine.run_sql db ~mode:Engine.DQO sql in
  let expected =
    List.sort compare
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) (reference_group_counts pair) [])
  in
  Alcotest.(check (list (pair int int))) "fks execution" expected
    (result_to_alist rel)

let test_sorted_projection_av () =
  let db, _ = fk_db ~r_sorted:false ~s_sorted:true ~dense:true ~seed:33 in
  let sql = "SELECT a, COUNT(*) AS cnt FROM R JOIN S ON id = r_id GROUP BY a" in
  let before = Engine.plan_sql db Engine.SQO sql in
  Engine.install_av db
    (Dqo_av.View.sorted_projection (Engine.catalog db) ~relation:"R"
       ~column:"id");
  let after = Engine.plan_sql db Engine.SQO sql in
  Alcotest.(check bool) "sorted projection helps SQO" true
    (after.Pareto.cost < before.Pareto.cost);
  (* The stored relation was physically reordered. *)
  let r = Engine.relation db "R" in
  Alcotest.(check bool) "R now physically sorted" true
    (Dqo_util.Int_array.is_sorted (int_column r "id"))

let test_grouping_result_av () =
  let db, pair = fk_db ~r_sorted:true ~s_sorted:true ~dense:true ~seed:44 in
  Engine.install_av db
    (Dqo_av.View.grouping_result (Engine.catalog db) ~relation:"R" ~key:"a");
  (* The materialised view is queryable as a relation. *)
  let out = Engine.run_sql db "SELECT a, cnt FROM R__by_a WHERE a < 5" in
  let expected_groups =
    let a = int_column pair.Datagen.r "a" in
    let h = Hashtbl.create 64 in
    Array.iter
      (fun v ->
        if v < 5 then
          Hashtbl.replace h v (1 + Option.value ~default:0 (Hashtbl.find_opt h v)))
      a;
    Hashtbl.length h
  in
  Alcotest.(check int) "materialised groups" expected_groups
    (Relation.cardinality out)

(* --- answering queries from materialised-grouping AVs -------------------- *)

(* The relations a plan scans, in scan order. *)
let scans (p : Physical.t) =
  List.filter (String.starts_with ~prefix:"TableScan") (Physical.operators p)

let test_view_answers_servable_grouping () =
  let db, pair = fk_db ~r_sorted:false ~s_sorted:false ~dense:true ~seed:93 in
  let q =
    Dqo_sql.Binder.plan_of_sql (Engine.catalog db)
      "SELECT a, COUNT(*) AS cnt, SUM(a) AS s FROM R GROUP BY a"
  in
  (* Without the view: computed from base data. *)
  let r1 = Engine.run db q in
  Engine.install_av db
    (Dqo_av.View.grouping_result (Engine.catalog db) ~relation:"R" ~key:"a");
  Alcotest.(check (list string)) "planned over the view" [ "TableScan(R__by_a)" ]
    (scans (Engine.plan db Engine.DQO q).Pareto.plan);
  let r2 = Engine.run db q in
  Alcotest.(check bool) "identical results" true
    (List.sort compare (Relation.rows r1) = List.sort compare (Relation.rows r2));
  (* Sanity: counts match a direct computation. *)
  let a = int_column pair.Datagen.r "a" in
  Alcotest.(check int) "group count" (Dqo_util.Int_array.count_distinct a)
    (Relation.cardinality r2)

let test_view_rejects_unservable_aggregates () =
  let db, _ = fk_db ~r_sorted:false ~s_sorted:false ~dense:true ~seed:94 in
  Engine.install_av db
    (Dqo_av.View.grouping_result (Engine.catalog db) ~relation:"R" ~key:"a");
  (* MIN is not stored in the view; must fall back to base data. *)
  let q =
    Dqo_sql.Binder.plan_of_sql (Engine.catalog db)
      "SELECT a, MIN(id) AS m FROM R GROUP BY a"
  in
  Alcotest.(check (list string)) "planned over the base relation" [ "TableScan(R)" ]
    (scans (Engine.plan db Engine.DQO q).Pareto.plan)

(* --- prepared statements -------------------------------------------- *)

let test_prepared_statements () =
  let db, _ = fk_db ~r_sorted:false ~s_sorted:false ~dense:true ~seed:97 in
  let sql = "SELECT a, COUNT(*) AS cnt FROM R JOIN S ON id = r_id GROUP BY a" in
  let p = Engine.prepare db sql in
  let direct = Engine.run_sql db sql in
  let via_prepared = Engine.execute_prepared db p in
  Alcotest.(check bool) "same result" true
    (List.sort compare (Relation.rows direct)
    = List.sort compare (Relation.rows via_prepared));
  (* Repeated execution of the same prepared plan is deterministic. *)
  let again = Engine.execute_prepared db p in
  Alcotest.(check bool) "re-executable" true
    (List.sort compare (Relation.rows again)
    = List.sort compare (Relation.rows via_prepared));
  (* The stored plan carries the optimiser's estimate. *)
  let entry = Engine.prepared_entry p in
  Alcotest.(check bool) "positive cost" true (entry.Pareto.cost > 0.0);
  (* Modes stick: an SQO-prepared plan uses no SPH. *)
  let shallow = Engine.prepare db ~mode:Engine.SQO sql in
  Alcotest.(check bool) "sqo prepared has no SPH" false
    (Physical.uses_sph (Engine.prepared_entry shallow).Pareto.plan);
  Alcotest.(check bool) "dqo prepared uses SPH" true
    (Physical.uses_sph entry.Pareto.plan)

(* --- randomised end-to-end fuzz -------------------------------------- *)

(* Random single-table grouping queries with predicates: SQO and DQO
   execution must both equal a naive evaluation. *)
let prop_engine_fuzz_single_table =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 400 in
      let* gmax = int_range 1 20 in
      let* vmax = int_range 1 50 in
      let* cut = int_bound vmax in
      let* seed = int_bound 10_000 in
      return (n, gmax, vmax, cut, seed))
  in
  QCheck.Test.make ~name:"engine fuzz: single-table grouping" ~count:60
    (QCheck.make gen) (fun (n, gmax, vmax, cut, seed) ->
      let rng = Dqo_util.Rng.create ~seed in
      let g = Array.init n (fun _ -> Dqo_util.Rng.int rng gmax) in
      let v = Array.init n (fun _ -> Dqo_util.Rng.int rng vmax) in
      let schema = Schema.of_names [ ("g", Schema.T_int); ("v", Schema.T_int) ] in
      let rel =
        Relation.create schema [ Dqo_data.Column.of_ints g; Dqo_data.Column.of_ints v ]
      in
      let db = Engine.create () in
      Engine.register db ~name:"T" rel;
      let sql =
        Printf.sprintf
          "SELECT g, COUNT(*) AS cnt, SUM(v) AS s FROM T WHERE v <= %d GROUP \
           BY g"
          cut
      in
      (* Naive evaluation. *)
      let expected = Hashtbl.create 32 in
      Array.iteri
        (fun i key ->
          if v.(i) <= cut then begin
            let c, s = Option.value ~default:(0, 0) (Hashtbl.find_opt expected key) in
            Hashtbl.replace expected key (c + 1, s + v.(i))
          end)
        g;
      let expected =
        List.sort compare
          (Hashtbl.fold (fun k cs acc -> (k, cs) :: acc) expected [])
      in
      let normalise rel =
        let keys = int_column rel "g" in
        let cnt = int_column rel "cnt" in
        let s = int_column rel "s" in
        List.sort compare
          (Array.to_list (Array.mapi (fun i k -> (k, (cnt.(i), s.(i)))) keys))
      in
      let q = Dqo_sql.Binder.plan_of_sql (Engine.catalog db) sql in
      let sqo = normalise (Engine.run db ~mode:Engine.SQO q) in
      let dqo = normalise (Engine.run db ~mode:Engine.DQO q) in
      sqo = expected && dqo = expected)

(* Random FK-join grouping queries across all data shapes. *)
let prop_engine_fuzz_join =
  let gen =
    QCheck.Gen.(
      let* r_rows = int_range 2 200 in
      let* s_rows = int_range 1 400 in
      let* groups = int_range 1 (max 1 (r_rows / 2)) in
      let* r_sorted = bool in
      let* s_sorted = bool in
      let* dense = bool in
      let* seed = int_bound 10_000 in
      return (r_rows, s_rows, groups, r_sorted, s_sorted, dense, seed))
  in
  QCheck.Test.make ~name:"engine fuzz: fk-join grouping" ~count:40
    (QCheck.make gen)
    (fun (r_rows, s_rows, groups, r_sorted, s_sorted, dense, seed) ->
      let rng = Dqo_util.Rng.create ~seed in
      let pair =
        Datagen.fk_pair ~rng ~r_rows ~s_rows ~r_groups:groups ~r_sorted
          ~s_sorted ~dense
      in
      let db = Engine.create () in
      Engine.register db ~name:"R" pair.Datagen.r;
      Engine.register db ~name:"S" pair.Datagen.s;
      let expected =
        List.sort compare
          (Hashtbl.fold
             (fun k c acc -> (k, c) :: acc)
             (reference_group_counts pair) [])
      in
      let sql =
        "SELECT a, COUNT(*) AS cnt FROM R JOIN S ON id = r_id GROUP BY a"
      in
      result_to_alist (Engine.run_sql db ~mode:Engine.SQO sql) = expected
      && result_to_alist (Engine.run_sql db ~mode:Engine.DQO sql) = expected)

let test_explain_sql () =
  let db, _ = fk_db ~r_sorted:false ~s_sorted:false ~dense:true ~seed:55 in
  let report =
    Engine.explain_sql db
      "SELECT a, COUNT(*) AS cnt FROM R JOIN S ON id = r_id GROUP BY a"
  in
  Alcotest.(check bool) "mentions SQO" true
    (Astring.String.is_infix ~affix:"SQO" report);
  Alcotest.(check bool) "mentions DQO" true
    (Astring.String.is_infix ~affix:"DQO" report)

let test_binder_errors () =
  let db, _ = fk_db ~r_sorted:true ~s_sorted:true ~dense:true ~seed:66 in
  let expect_error sql =
    match Engine.run_sql db sql with
    | exception Dqo_sql.Binder.Error _ -> ()
    | exception Dqo_sql.Parser.Error _ -> ()
    | _ -> Alcotest.fail ("expected an error for: " ^ sql)
  in
  expect_error "SELECT x FROM R";
  expect_error "SELECT a FROM Unknown";
  expect_error "SELECT COUNT(*) FROM R";
  expect_error "SELECT b, COUNT(*) FROM R JOIN S ON id = r_id GROUP BY a";
  expect_error "SELECT a FROM R WHERE";
  expect_error "SELECT a, FROM R"

(* --- hierarchical routing ------------------------------------------- *)

let hier_sql = "SELECT a, COUNT(*) AS cnt FROM R JOIN S ON id = r_id GROUP BY a"

let test_hier_routing_off_by_default () =
  let db, _ = fk_db ~r_sorted:false ~s_sorted:false ~dense:true ~seed:71 in
  let a = Engine.explain_analyze db (Dqo_sql.Binder.plan_of_sql (Engine.catalog db) hier_sql) in
  Alcotest.(check bool) "2-relation query plans exhaustively" true
    (a.Engine.hier = None)

let test_hier_routing_forced () =
  let db, pair = fk_db ~r_sorted:false ~s_sorted:false ~dense:true ~seed:72 in
  let q = Dqo_sql.Binder.plan_of_sql (Engine.catalog db) hier_sql in
  let exhaustive = Engine.explain_analyze db q in
  Engine.set_opts db { (Engine.opts db) with Engine.hier_threshold = 0 };
  let a = Engine.explain_analyze db q in
  (match a.Engine.hier with
  | None -> Alcotest.fail "hier_threshold = 0 must produce a partition report"
  | Some r ->
      Alcotest.(check int) "two leaves" 2 r.Dqo_opt.Hier.leaves;
      Alcotest.(check int) "one partition" 1
        (List.length r.Dqo_opt.Hier.partitions));
  (* A 2-relation query fits one partition: same plan, same cost, same
     answer as the exhaustive search. *)
  Alcotest.(check string) "plan identical to exhaustive"
    (Format.asprintf "%a" Physical.pp exhaustive.Engine.entry.Pareto.plan)
    (Format.asprintf "%a" Physical.pp a.Engine.entry.Pareto.plan);
  Alcotest.(check (float 1e-6)) "cost identical"
    exhaustive.Engine.entry.Pareto.cost a.Engine.entry.Pareto.cost;
  let expected =
    List.sort compare
      (Hashtbl.fold
         (fun k v acc -> (k, v) :: acc)
         (reference_group_counts pair) [])
  in
  Alcotest.(check (list (pair int int))) "hier result correct" expected
    (result_to_alist a.Engine.result)

let test_hier_routing_by_threshold () =
  let db, _ = fk_db ~r_sorted:false ~s_sorted:false ~dense:true ~seed:73 in
  Engine.set_opts db { (Engine.opts db) with Engine.hier_threshold = 1 };
  let a = Engine.explain_analyze db (Dqo_sql.Binder.plan_of_sql (Engine.catalog db) hier_sql) in
  Alcotest.(check bool) "2 relations > threshold 1 routes hierarchically" true
    (a.Engine.hier <> None)

let test_hier_explain_analyze_sql_renders_partitions () =
  let db, _ = fk_db ~r_sorted:false ~s_sorted:false ~dense:true ~seed:74 in
  Engine.set_opts db { (Engine.opts db) with Engine.hier_threshold = 0 };
  let report = Engine.explain_analyze_sql db hier_sql in
  Alcotest.(check bool) "mentions hierarchical planning" true
    (Astring.String.is_infix ~affix:"hierarchical planning" report);
  Alcotest.(check bool) "renders the partition line" true
    (Astring.String.is_infix ~affix:"P0: 2 leaves" report);
  Alcotest.(check bool) "renders the stitch line" true
    (Astring.String.is_infix ~affix:"stitch:" report)

(* --- one search, one executor walk ------------------------------------ *)

let sorted_rows rel = List.sort compare (Relation.rows rel)
let plan_string (e : Pareto.entry) = Format.asprintf "%a" Physical.pp e.Pareto.plan

(* EXPLAIN ANALYZE plans exactly as [plan] does and its annotated walk
   returns exactly what the plain executor returns, for every operator
   kind, sequentially and pooled, exhaustive and hierarchical. *)
let test_explain_analyze_matches_plan_and_execute () =
  let db, _ = fk_db ~r_sorted:false ~s_sorted:false ~dense:true ~seed:75 in
  let queries =
    [
      ("filter", "SELECT id, a FROM R WHERE a < 100");
      ("project", "SELECT a FROM R");
      ("join", "SELECT a, b FROM R JOIN S ON id = r_id WHERE b < 100");
      ("fast grouping", "SELECT a, COUNT(*) AS cnt, SUM(a) AS s FROM R GROUP BY a");
      ("generic grouping", "SELECT a, MIN(id) AS lo, AVG(id) AS mean FROM R GROUP BY a");
    ]
  in
  List.iter
    (fun (threads, hier_threshold) ->
      Engine.set_opts db
        { Engine.default_opts with Engine.threads; Engine.hier_threshold };
      List.iter
        (fun (label, sql) ->
          let label =
            Printf.sprintf "%s, threads=%d, hier_threshold=%d" label threads
              hier_threshold
          in
          let q = Dqo_sql.Binder.plan_of_sql (Engine.catalog db) sql in
          let planned = Engine.plan db Engine.DQO q in
          let a = Engine.explain_analyze db q in
          Alcotest.(check string) (label ^ ": plan") (plan_string planned)
            (plan_string a.Engine.entry);
          Alcotest.(check (float 0.0)) (label ^ ": cost") planned.Pareto.cost
            a.Engine.entry.Pareto.cost;
          Alcotest.(check bool) (label ^ ": rows") true
            (sorted_rows a.Engine.result
            = sorted_rows (Engine.execute db planned.Pareto.plan)))
        queries)
    [ (1, 16); (2, 16); (1, 0); (2, 0) ]

(* At the paper's §4.3 scale, a selective filter on S leaves the SPH
   join's build side far smaller than the span of its dense r_id keys,
   and the grouping over the join output far smaller than the span of a.
   Both must still run on slot arrays: the span is bounded by the base
   relation owning the column. *)
let test_sph_after_selective_filter () =
  let rng = Dqo_util.Rng.create ~seed:7 in
  let pair =
    Datagen.fk_pair ~rng ~r_rows:25_000 ~s_rows:90_000 ~r_groups:20_000
      ~r_sorted:false ~s_sorted:false ~dense:true
  in
  let db = Engine.create () in
  Engine.register db ~name:"R" pair.Datagen.r;
  Engine.register db ~name:"S" pair.Datagen.s;
  let b = int_column pair.Datagen.s "b" in
  List.iter
    (fun cut ->
      let expected =
        List.sort compare
          (Hashtbl.fold
             (fun k v acc -> (k, v) :: acc)
             (reference_group_counts ~keep:(fun i -> b.(i) < cut) pair)
             [])
      in
      let sql =
        Printf.sprintf
          "SELECT a, COUNT(*) AS cnt FROM R JOIN S ON id = r_id WHERE b < %d \
           GROUP BY a"
          cut
      in
      List.iter
        (fun threads ->
          Engine.set_opts db { Engine.default_opts with Engine.threads };
          let label = Printf.sprintf "b < %d, threads=%d" cut threads in
          Alcotest.(check bool) (label ^ ": deep plan is SPH-based") true
            (Physical.uses_sph (Engine.plan_sql db Engine.DQO sql).Pareto.plan);
          Alcotest.(check (list (pair int int))) (label ^ ": dqo") expected
            (result_to_alist (Engine.run_sql db ~mode:Engine.DQO sql));
          Alcotest.(check (list (pair int int))) (label ^ ": sqo") expected
            (result_to_alist (Engine.run_sql db ~mode:Engine.SQO sql)))
        [ 1; 2 ])
    [ 500; 25_000; 50_000 ]

(* SPH bounds over an empty or one-row input.  S.b sits at 0 or 1000
   except for a single 500, so a range inside (0, 1000) keeps almost
   every row by the uniform estimate while really keeping none or one:
   the deep plan still chooses SPHJ and SPHG, and both then read their
   [lo]/[hi] from an empty or one-row key column. *)
let test_sph_on_empty_and_single_row_input () =
  let r_rows = 4_000 and s_rows = 12_000 in
  let rng = Dqo_util.Rng.create ~seed:31 in
  let r =
    Relation.create
      (Schema.of_names [ ("id", Schema.T_int); ("a", Schema.T_int) ])
      [
        Dqo_data.Column.of_ints (Array.init r_rows Fun.id);
        Dqo_data.Column.of_ints (Array.init r_rows (fun i -> i mod 3_000));
      ]
  in
  let s =
    Relation.create
      (Schema.of_names [ ("r_id", Schema.T_int); ("b", Schema.T_int) ])
      [
        Dqo_data.Column.of_ints
          (Array.init s_rows (fun _ -> Dqo_util.Rng.int rng r_rows));
        Dqo_data.Column.of_ints
          (Array.init s_rows (fun i ->
               if i = 7 then 500 else if i mod 2 = 0 then 0 else 1000));
      ]
  in
  let db = Engine.create () in
  Engine.register db ~name:"R" r;
  Engine.register db ~name:"S" s;
  let digest = Dqo_serve.Wire.digest in
  List.iter
    (fun (range, rows) ->
      let sql =
        Printf.sprintf
          "SELECT a, COUNT(*) AS cnt FROM R JOIN S ON id = r_id WHERE b \
           BETWEEN %s GROUP BY a"
          range
      in
      List.iter
        (fun threads ->
          Engine.set_opts db { Engine.default_opts with Engine.threads };
          let label = Printf.sprintf "b between %s, threads=%d" range threads in
          let plan = plan_string (Engine.plan_sql db Engine.DQO sql) in
          List.iter
            (fun op ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: deep plan uses %s" label op)
                true
                (Astring.String.is_infix ~affix:(op ^ "(") plan))
            [ "SPHJ"; "SPHG" ];
          let dqo = Engine.run_sql db ~mode:Engine.DQO sql in
          Alcotest.(check int) (label ^ ": rows") rows (Relation.cardinality dqo);
          Alcotest.(check string) (label ^ ": digest matches sqo")
            (digest (Engine.run_sql db ~mode:Engine.SQO sql))
            (digest dqo))
        [ 1; 2 ])
    [ ("501 AND 999", 0); ("400 AND 600", 1) ]

(* The FKS join: R.id is sparse, so the deep plan's SPHJ builds on the
   perfect-hash AV's slots.  Half the probe keys lie outside the AV's
   key set (neighbours of member keys, negatives, huge values); a
   filter on R also leaves member keys whose slots hold no build row. *)
let test_fks_join_probe_keys_outside_key_set () =
  let r_rows = 2_000 and s_rows = 8_000 in
  let rng = Dqo_util.Rng.create ~seed:43 in
  let ids = Array.init r_rows (fun i -> (i * 1_009) + 17) in
  Dqo_util.Rng.shuffle rng ids;
  let r_id =
    Array.init s_rows (fun i ->
        let member = ids.(Dqo_util.Rng.int rng r_rows) in
        match i mod 4 with
        | 0 | 1 -> member
        | 2 -> member + 1 + Dqo_util.Rng.int rng 1_000
        | _ -> if i mod 8 = 3 then -member else member * 1_000_003)
  in
  let db = Engine.create () in
  Engine.register db ~name:"R"
    (Relation.create
       (Schema.of_names [ ("id", Schema.T_int); ("a", Schema.T_int) ])
       [
         Dqo_data.Column.of_ints ids;
         Dqo_data.Column.of_ints (Array.init r_rows (fun i -> i mod 50));
       ]);
  Engine.register db ~name:"S"
    (Relation.create
       (Schema.of_names [ ("r_id", Schema.T_int); ("b", Schema.T_int) ])
       [
         Dqo_data.Column.of_ints r_id;
         Dqo_data.Column.of_ints (Array.init s_rows (fun i -> i mod 7));
       ]);
  Engine.install_av db
    (Dqo_av.View.perfect_hash (Engine.catalog db) ~relation:"R" ~column:"id");
  List.iter
    (fun sql ->
      Alcotest.(check bool) (sql ^ ": deep plan uses SPHJ") true
        (Astring.String.is_infix ~affix:"SPHJ("
           (plan_string (Engine.plan_sql db Engine.DQO sql)));
      Alcotest.(check string) (sql ^ ": digest matches sqo")
        (Dqo_serve.Wire.digest (Engine.run_sql db ~mode:Engine.SQO sql))
        (Dqo_serve.Wire.digest (Engine.run_sql db ~mode:Engine.DQO sql)))
    [
      "SELECT a, COUNT(*) AS c FROM R JOIN S ON id = r_id GROUP BY a";
      "SELECT id, a, b FROM R JOIN S ON id = r_id WHERE a < 20";
    ]

(* --- live columns ------------------------------------------------------ *)

(* Joins and filters gather only the columns their consumers read.  The
   result schema (names, order) and digest of each query are pinned to
   what the executor produced when every node gathered every column,
   for both optimisers, at 1 and 2 threads, through [execute] and
   [explain_analyze].  R, S and T carry unused payload columns; S is
   sorted on r_id, so shallow plans sort R to merge-join it; P and Q
   share the column name x. *)
let live_db () =
  let rng = Dqo_util.Rng.create ~seed:57 in
  let ints n f = Dqo_data.Column.of_ints (Array.init n f) in
  let rel names cols =
    Relation.create
      (Schema.of_names (List.map (fun n -> (n, Schema.T_int)) names))
      cols
  in
  let r_rows = 1_000 and s_rows = 4_000 and t_rows = 500 and q_rows = 300 in
  let s_ids = Array.init s_rows (fun _ -> Dqo_util.Rng.int rng r_rows) in
  Array.sort compare s_ids;
  let db = Engine.create () in
  List.iter
    (fun (name, r) -> Engine.register db ~name r)
    [
      ( "R",
        rel [ "id"; "a"; "r_pad" ]
          [
            ints r_rows (fun i -> i * 7_919 mod r_rows);
            ints r_rows (fun i -> i mod 40);
            ints r_rows (fun _ -> Dqo_util.Rng.int rng 1_000_000);
          ] );
      ( "S",
        rel [ "r_id"; "b"; "s_pad" ]
          [
            ints s_rows (fun i -> s_ids.(i));
            ints s_rows (fun _ -> Dqo_util.Rng.int rng t_rows);
            ints s_rows (fun _ -> Dqo_util.Rng.int rng 1_000_000);
          ] );
      ( "T",
        rel [ "t_k"; "c"; "t_pad" ]
          [
            ints t_rows (fun i -> t_rows - 1 - i);
            ints t_rows (fun i -> i mod 13);
            ints t_rows (fun _ -> Dqo_util.Rng.int rng 1_000_000);
          ] );
      ( "P",
        rel [ "k"; "x"; "p_v" ]
          [
            ints q_rows (fun i -> i);
            ints q_rows (fun i -> i mod 17);
            ints q_rows (fun _ -> Dqo_util.Rng.int rng 100);
          ] );
      ( "Q",
        rel [ "q_k"; "x"; "q_w" ]
          [
            ints q_rows (fun _ -> Dqo_util.Rng.int rng q_rows);
            ints q_rows (fun i -> 1_000 + i);
            ints q_rows (fun _ -> Dqo_util.Rng.int rng 100);
          ] );
    ];
  db

(* (query, result column names, digest, rows). *)
let live_cases =
  [
    ( "SELECT a, COUNT(*) AS c FROM R JOIN S ON id = r_id WHERE b < 200 \
       GROUP BY a",
      [ "a"; "c" ], "3810ab36e7deb8d7", 40 );
    ( "SELECT id, b FROM R JOIN S ON id = r_id WHERE a < 4",
      [ "id"; "b" ], "1183b8ac2783901d", 408 );
    ( "SELECT c, COUNT(*) AS n FROM R JOIN S ON id = r_id JOIN T ON b = t_k \
       GROUP BY c",
      [ "c"; "n" ], "16e377cb942f000d", 13 );
    ( "SELECT c, SUM(a) AS s FROM R JOIN S ON id = r_id JOIN T ON b = t_k \
       WHERE c < 5 GROUP BY c",
      [ "c"; "s" ], "1c4e3a1f414015c6", 5 );
    ( "SELECT a, COUNT(*) AS c FROM R JOIN S ON id = r_id GROUP BY a",
      [ "a"; "c" ], "2474ae3e6db69321", 40 );
    ( "SELECT id, a, b FROM R JOIN S ON id = r_id WHERE a < 3",
      [ "id"; "a"; "b" ], "2cec7192bfa838b1", 309 );
    ( "SELECT b, MIN(a) AS m, AVG(id) AS v FROM R JOIN S ON id = r_id WHERE \
       a < 30 GROUP BY b",
      [ "b"; "m"; "v" ], "3cc8cddeb2ef46a8", 498 );
    ( "SELECT k, P.x, q_w FROM P JOIN Q ON k = q_k",
      [ "k"; "x"; "q_w" ], "153e6dbfbb68bb07", 300 );
    ( "SELECT P.x, SUM(q_w) AS s FROM P JOIN Q ON k = q_k WHERE q_w < 50 \
       GROUP BY P.x",
      [ "x"; "s" ], "132fe9c778158b52", 147 );
  ]

let test_live_columns () =
  let db = live_db () in
  let names rel =
    List.map (fun (f : Schema.field) -> f.Schema.name)
      (Schema.fields (Relation.schema rel))
  in
  let plans = Buffer.create 1024 in
  List.iter
    (fun (sql, cols, digest, rows) ->
      List.iter
        (fun (mode, threads) ->
          Engine.set_opts db { Engine.default_opts with Engine.mode; threads };
          let q = Dqo_sql.Binder.plan_of_sql (Engine.catalog db) sql in
          let planned = Engine.plan db mode q in
          Buffer.add_string plans (plan_string planned);
          let label path =
            Printf.sprintf "%s [%s, threads=%d, %s]" sql
              (match mode with Engine.SQO -> "sqo" | Engine.DQO -> "dqo")
              threads path
          in
          List.iter
            (fun (path, rel) ->
              Alcotest.(check (list string)) (label path ^ ": schema") cols
                (names rel);
              Alcotest.(check string) (label path ^ ": digest") digest
                (Dqo_serve.Wire.digest rel);
              Alcotest.(check int) (label path ^ ": rows") rows
                (Relation.cardinality rel))
            [
              ("execute", Engine.execute db planned.Pareto.plan);
              ("explain_analyze", (Engine.explain_analyze db q).Engine.result);
            ])
        [ (Engine.DQO, 1); (Engine.DQO, 2); (Engine.SQO, 1); (Engine.SQO, 2) ])
    live_cases;
  (* Physical plans may name the right-hand copy of a clashing column
     (x'), which exists only when the join's inputs keep both copies:
     the join under the filter must gather every column. *)
  let module P = Physical in
  List.iter
    (fun (plan, cols, digest, rows) ->
      List.iter
        (fun threads ->
          Engine.set_opts db { Engine.default_opts with Engine.threads };
          let rel = Engine.execute db plan in
          let label = Printf.sprintf "x' plan, threads=%d" threads in
          Alcotest.(check (list string)) (label ^ ": schema") cols (names rel);
          Alcotest.(check string) (label ^ ": digest") digest
            (Dqo_serve.Wire.digest rel);
          Alcotest.(check int) (label ^ ": rows") rows
            (Relation.cardinality rel))
        [ 1; 2 ])
    [
      ( P.Project_op
          ( P.Join_op
              ( P.Table_scan "P", P.Table_scan "Q", "k", "q_k",
                P.default_join Dqo_exec.Join.HJ ),
            [ "k"; "x'"; "q_w" ] ),
        [ "k"; "x'"; "q_w" ], "153e6dbfbb68bb07", 300 );
      ( P.Group_op
          ( P.Join_op
              ( P.Table_scan "Q",
                P.Filter_op (P.Table_scan "P", "p_v", Dqo_exec.Filter.Lt 50),
                "q_k", "k", P.default_join Dqo_exec.Join.SPHJ ),
            "x'",
            [
              {
                Dqo_plan.Logical.spec = Dqo_exec.Aggregate.Sum;
                column = Some "p_v";
                alias = "s";
              };
            ],
            P.default_grouping Dqo_exec.Grouping.HG ),
        [ "x'"; "s" ], "3e48baab865d87f7", 17 );
    ];
  (* The cases do reach the shapes they are meant to cover. *)
  List.iter
    (fun op ->
      Alcotest.(check bool) ("some plan has " ^ op) true
        (Astring.String.is_infix ~affix:op (Buffer.contents plans)))
    [ "Sort("; "Filter("; "Project("; "SPHJ("; "OJ("; "HJ(" ]

(* --- catalog: each relation measured once -------------------------------- *)

module Catalog = Dqo_opt.Catalog
module Props = Dqo_plan.Props
module View = Dqo_av.View
module Int_col = Dqo_data.Int_col
module Column = Dqo_data.Column

(* Every recorded field of a catalog entry, one line. *)
let dump_info (ti : Catalog.table_info) =
  let p = ti.Catalog.props in
  let opt = function Some n -> n | None -> "-" in
  Printf.sprintf "%s rows=%d sorted=%s clustered=%s cols=[%s] co=[%s]"
    ti.Catalog.name ti.Catalog.rows (opt p.Props.sorted_by)
    (opt p.Props.clustered_by)
    (String.concat "; "
       (List.map
          (fun (n, (c : Props.column)) ->
            Printf.sprintf "%s:%b,%d,%d,%d" n c.Props.dense c.Props.lo
              c.Props.hi c.Props.distinct)
          p.Props.columns))
    (String.concat "; "
       (List.map (fun (a, b) -> a ^ ">" ^ b) p.Props.co_ordered))

let dump_catalog c = List.map dump_info (Catalog.tables c)

type storage = Flat | W32 | Const

(* A small relation [T<i>] of 1-3 int columns over one key: the key
   sorted or shuffled, dense or sparse; each further column a copy of
   the key, a monotone (co-ordered) or clustered function of it, or
   independent noise; each stored flat, chunked (W32) or constant. *)
let relation_gen i =
  QCheck.Gen.(
    let* n = oneof [ int_range 0 2; int_range 3 40 ] in
    let* sparse = bool in
    let* key =
      array_repeat n
        (if sparse then int_range 0 (1 lsl 28) else int_range 0 (max 0 (n / 2)))
    in
    let* sorted = bool in
    if sorted then Array.sort compare key;
    let* shapes =
      list_size (int_range 1 3)
        (pair (int_range 0 4) (oneofl [ Flat; W32; Const ]))
    in
    let+ noise = array_repeat n (int_range (-4) 4) in
    let cols =
      List.mapi
        (fun j (shape, storage) ->
          let a =
            match shape with
            | 0 -> Array.copy key
            | 1 -> Array.map (fun v -> (3 * v) + 1) key
            | 2 -> Array.map (fun v -> v / 7) key
            | 3 -> Array.mapi (fun r v -> v + noise.(r)) key
            | _ -> Array.copy noise
          in
          let col =
            match storage with
            | Flat -> Int_col.of_array a
            | W32 ->
              Int_col.init ~backend:(Int_col.Chunked Int_col.W32) ~chunk_rows:16
                n (fun r -> a.(r))
            | Const -> Int_col.const n (if n = 0 then 0 else a.(0))
          in
          (Printf.sprintf "t%d_c%d" i j, Column.of_int_col col))
        shapes
    in
    ( Printf.sprintf "T%d" i,
      Relation.create
        (Schema.of_names (List.map (fun (c, _) -> (c, Schema.T_int)) cols))
        (List.map snd cols) ))

(* One step, resolved against the engine's state when it runs: register
   the next relation, install a view of a kind over a registered
   relation and column, or evict an installed view. *)
type step =
  | Register
  | Sorted of int * int
  | Hash of int * int
  | Group of int * int
  | Evict of int

let step_gen =
  QCheck.Gen.(
    let idx = int_bound 99 in
    frequency
      [
        (2, return Register);
        (2, map2 (fun a b -> Sorted (a, b)) idx idx);
        (2, map2 (fun a b -> Hash (a, b)) idx idx);
        (2, map2 (fun a b -> Group (a, b)) idx idx);
        (2, map (fun a -> Evict a) idx);
      ])

let show_step = function
  | Register -> "register"
  | Sorted (a, b) -> Printf.sprintf "sorted %d %d" a b
  | Hash (a, b) -> Printf.sprintf "hash %d %d" a b
  | Group (a, b) -> Printf.sprintf "group %d %d" a b
  | Evict a -> Printf.sprintf "evict %d" a

(* The test's own model of the engine's stored relations, in catalog
   order: base relations are re-sorted here on a sorted-projection
   install; grouping views are taken as the engine materialised them. *)
type model = {
  db : Engine.t;
  mutable pending : (string * Relation.t) list;
  mutable bases : string list;
  mutable stored : (string * Relation.t) list;
}

let pick k l = List.nth l (k mod List.length l)

let catalog_level db =
  List.filter
    (fun (v : View.t) ->
      match v.View.kind with
      | View.Grouping_result _ -> false
      | View.Sorted_projection _ | View.Perfect_hash _ -> true)
    (Engine.installed_avs db)

(* Install [v] unless a view with its id is installed. *)
let install m v =
  let installed =
    List.exists
      (fun (w : View.t) -> String.equal w.View.id v.View.id)
      (Engine.installed_avs m.db)
  in
  if not installed then Engine.install_av m.db v;
  not installed

(* Run one step on the engine and the model; the relation the step
   replaced in place, if any. *)
let run_step m step =
  let on_base_column a b f =
    match m.bases with
    | [] -> None
    | bases ->
      let relation = pick a bases in
      let fields =
        Schema.fields (Relation.schema (List.assoc relation m.stored))
      in
      f relation (pick b fields).Schema.name
  in
  let catalog = Engine.catalog m.db in
  match step with
  | Register -> (
    match m.pending with
    | [] -> None
    | (name, rel) :: rest ->
      m.pending <- rest;
      Engine.register m.db ~name rel;
      m.bases <- m.bases @ [ name ];
      m.stored <- m.stored @ [ (name, rel) ];
      None)
  | Sorted (a, b) ->
    on_base_column a b (fun relation column ->
        if install m (View.sorted_projection catalog ~relation ~column) then begin
          m.stored <-
            List.map
              (fun (n, r) ->
                if String.equal n relation then
                  (n, Dqo_exec.Sort_op.by_column r column)
                else (n, r))
              m.stored;
          Some relation
        end
        else None)
  | Hash (a, b) ->
    on_base_column a b (fun relation column ->
        ignore (install m (View.perfect_hash catalog ~relation ~column));
        None)
  | Group (a, b) ->
    on_base_column a b (fun relation key ->
        if install m (View.grouping_result catalog ~relation ~key) then begin
          let name = View.grouped_name relation key in
          m.stored <- m.stored @ [ (name, Engine.relation m.db name) ]
        end;
        None)
  | Evict a -> (
    match Engine.installed_avs m.db with
    | [] -> None
    | views ->
      let v = pick a views in
      Engine.uninstall_av m.db v.View.id;
      (match v.View.kind with
      | View.Grouping_result { relation; key } ->
        let name = View.grouped_name relation key in
        m.stored <-
          List.filter (fun (n, _) -> not (String.equal n name)) m.stored
      | View.Sorted_projection _ | View.Perfect_hash _ -> ());
      None)

let prop_catalog_matches_full_rebuild =
  let gen =
    QCheck.Gen.(
      pair
        (flatten_l (List.init 4 relation_gen))
        (list_size (int_range 1 12) step_gen))
  in
  let print (_, steps) = String.concat "; " (List.map show_step steps) in
  QCheck.Test.make ~name:"catalog = full re-measure after every step"
    ~count:300 (QCheck.make ~print gen) (fun (pool, steps) ->
      let m = { db = Engine.create (); pending = pool; bases = []; stored = [] } in
      List.for_all
        (fun step ->
          let fail fmt = QCheck.Test.fail_reportf ("after %s: " ^^ fmt) (show_step step) in
          let before =
            List.map (fun (n, _) -> (n, Engine.measurement m.db n)) m.stored
          in
          let replaced = run_step m step in
          let views = catalog_level m.db in
          let expected =
            View.apply_all
              (Catalog.create
                 (List.map (fun (n, r) -> Catalog.of_relation n r) m.stored))
              views
          in
          let got = dump_catalog (Engine.catalog m.db)
          and want = dump_catalog expected in
          if got <> want then
            fail "got\n%s\nwant\n%s" (String.concat "\n" got)
              (String.concat "\n" want);
          (* Every stored measurement is exact (SPH operators over a bare
             scan read their key bounds off it), with or without a view. *)
          List.iter
            (fun (n, r) ->
              if
                (Engine.measurement m.db n).Catalog.props
                <> (Catalog.of_relation n r).Catalog.props
              then
                fail "measurement of %s: got %s, want %s" n
                  (dump_info (Engine.measurement m.db n))
                  (dump_info (Catalog.of_relation n r)))
            m.stored;
          (* The catalog is built from the stored measurements: where no
             catalog-level view applies, its entry is the measurement
             itself. *)
          List.iter
            (fun (n, _) ->
              let viewed =
                List.exists
                  (fun (v : View.t) ->
                    match v.View.kind with
                    | View.Sorted_projection { relation; _ }
                    | View.Perfect_hash { relation; _ } ->
                      String.equal relation n
                    | View.Grouping_result _ -> false)
                  views
              in
              if
                (not viewed)
                && Catalog.find (Engine.catalog m.db) n
                   != Engine.measurement m.db n
              then fail "catalog entry %s re-measured" n)
            m.stored;
          (* A relation the step did not add or replace keeps the very
             measurement it had: nothing was measured again. *)
          List.iter
            (fun (n, info) ->
              if
                List.mem_assoc n m.stored
                && replaced <> Some n
                && Engine.measurement m.db n != info
              then fail "%s was measured again" n)
            before;
          true)
        steps)

(* --- groupjoin --------------------------------------------------------- *)

module Join = Dqo_exec.Join
module Grouping = Dqo_exec.Grouping
module Filter = Dqo_exec.Filter
module Aggregate = Dqo_exec.Aggregate
module Logical = Dqo_plan.Logical

type gj_case = {
  lrows : (int * int * int) list;  (* lk, lg, lv *)
  rrows : (int * int * int) list;  (* rk, rg, rv *)
  key : string;
  sum : string option;
  lfilters : (string * Filter.predicate) list;  (* innermost first *)
  rfilters : (string * Filter.predicate) list;
  domains : int;
}

let gj_relation (k, g, v) rows =
  Relation.create
    (Schema.of_names [ (k, Schema.T_int); (g, Schema.T_int); (v, Schema.T_int) ])
    (List.map
       (fun pick -> Column.of_ints (Array.of_list (List.map pick rows)))
       [ (fun (x, _, _) -> x); (fun (_, y, _) -> y); (fun (_, _, z) -> z) ])

let gj_aggs c =
  { Logical.spec = Aggregate.Count; column = None; alias = "cnt" }
  :: (match c.sum with
     | Some col -> [ { Logical.spec = Aggregate.Sum; column = Some col; alias = "total" } ]
     | None -> [])

(* Filters stacked over [sub], the first innermost. *)
let filtered_plan sub filters =
  List.fold_left (fun p (col, pred) -> Physical.Filter_op (p, col, pred)) sub filters

(* The plan the fused path serves: SPHG over SPHJ(lk = rk) of the two
   (optionally filtered) scans. *)
let gj_plan c =
  let scan name filters = filtered_plan (Physical.Table_scan name) filters in
  Physical.Group_op
    ( Physical.Join_op
        ( scan "L" c.lfilters,
          scan "R" c.rfilters,
          "lk",
          "rk",
          Physical.default_join Join.SPHJ ),
      c.key,
      gj_aggs c,
      Physical.default_grouping Grouping.SPHG )

(* The unfused filters called directly, innermost first: select, then
   gather every column. *)
let select_take rel filters =
  List.fold_left
    (fun rel (col, p) -> Relation.take rel (Filter.select (Relation.int_col rel col) p))
    rel filters

(* The unfused operators called directly: filter, SPHJ over the left
   keys' min/max, gather every column, SPHG over the key's min/max. *)
let gj_reference c l r =
  let l = select_take l c.lfilters and r = select_take r c.rfilters in
  let bounds col =
    if Int_col.length col = 0 then (0, 0) else Int_col.min_max col
  in
  let lkeys = Relation.int_col l "lk" in
  let lo, hi = bounds lkeys in
  let joined =
    Join.materialize l r
      (Join.sph_join ~lo ~hi ~left:lkeys ~right:(Relation.int_col r "rk"))
  in
  let keys = Relation.int_col joined c.key in
  let lo, hi = bounds keys in
  let values =
    match c.sum with
    | Some col -> Relation.int_col joined col
    | None -> Int_col.const (Int_col.length keys) 0
  in
  let g = Grouping.sph_based ~lo ~hi ~keys ~values in
  Relation.create
    (Schema.of_names
       ((c.key, Schema.T_int)
       :: List.map (fun (a : Logical.aggregate) -> (a.Logical.alias, Schema.T_int)) (gj_aggs c)))
    (Column.of_ints g.Dqo_exec.Group_result.keys
    :: List.map
         (fun (a : Logical.aggregate) ->
           Column.of_ints
             (match a.Logical.spec with
             | Aggregate.Sum -> g.Dqo_exec.Group_result.sums
             | _ -> g.Dqo_exec.Group_result.counts))
         (gj_aggs c))

(* Any predicate, with literals near the data and at the ends of the
   int range. *)
let gen_pred =
  let open QCheck.Gen in
  let literal =
    frequency
      [
        (6, int_range (-35) 35);
        (1, oneofl [ min_int; min_int + 1; max_int - 1; max_int ]);
      ]
  in
  let* x = literal and* y = literal in
  oneofl
    Filter.
      [ Eq x; Ne x; Lt x; Le x; Gt x; Ge x; Between (x, y); Between (min x y, max x y) ]

(* Zero to two stacked filters over the named columns. *)
let gen_filters cols =
  let open QCheck.Gen in
  let* n = frequency [ (3, return 0); (2, return 1); (1, return 2) ] in
  list_repeat n (pair (oneofl cols) gen_pred)

let gen_gj_case =
  let open QCheck.Gen in
  (* Keys collide on both sides; right keys reach past the left span.
     Values include the extremes, so SUM wraps.  Filters test the join
     key, the group key and the payload of either side.  An outlier row
     on each side, which never finds a partner, takes the stored span of
     either group key past the slot budget, so the group slots come
     from the matched rows. *)
  let value = frequency [ (6, int_range (-50) 50); (1, oneofl [ min_int; max_int ]) ] in
  let row kmax = triple (int_range 0 kmax) (int_range (-30) 30) value in
  let* outliers = frequency [ (4, return false); (1, return true) ] in
  let outlier k rows = if outliers then rows @ [ (k, 1_000_000_000_000, 0) ] else rows in
  let* lrows = map (outlier (-1)) (list_size (int_bound 40) (row 10)) in
  let* rrows = map (outlier 17) (list_size (int_bound 40) (row 16)) in
  let* key = oneofl [ "lg"; "rg"; "lk"; "rk" ] in
  let* sum = oneofl [ None; Some "lv"; Some "rv" ] in
  let* lfilters = gen_filters [ "lk"; "lg"; "lv" ]
  and* rfilters = gen_filters [ "rk"; "rg"; "rv" ] in
  let* domains = oneofl [ 1; 2 ] in
  return { lrows; rrows; key; sum; lfilters; rfilters; domains }

let show_filters filters =
  String.concat " AND "
    (List.map (fun (col, p) -> Format.asprintf "%s %a" col Filter.pp p) filters)

let show_gj_case c =
  let rows l =
    String.concat " "
      (List.map (fun (k, g, v) -> Printf.sprintf "(%d,%d,%d)" k g v) l)
  in
  Printf.sprintf "L=[%s]\nR=[%s]\nkey=%s sum=%s lfilters=%s rfilters=%s domains=%d"
    (rows c.lrows) (rows c.rrows) c.key
    (Option.value ~default:"-" c.sum)
    (show_filters c.lfilters) (show_filters c.rfilters) c.domains

let prop_groupjoin_matches_unfused =
  QCheck.Test.make ~count:300 ~name:"groupjoin = SPHJ + materialize + SPHG"
    (QCheck.make ~print:show_gj_case gen_gj_case)
    (fun c ->
      let l = gj_relation ("lk", "lg", "lv") c.lrows
      and r = gj_relation ("rk", "rg", "rv") c.rrows in
      let db = Engine.create () in
      Engine.register db ~name:"L" l;
      Engine.register db ~name:"R" r;
      let fused =
        Dqo_par.Pool.with_pool ~domains:c.domains (fun pool ->
            Engine.execute db ~pool (gj_plan c))
      in
      let expected = gj_reference c l r in
      Schema.fields (Relation.schema fused) = Schema.fields (Relation.schema expected)
      && Relation.rows fused = Relation.rows expected)

(* SPHJ, SPHG and the groupjoin over a bare scan (bounds from the stored
   measurement) against the same plans with a keep-everything filter
   [key >= min] on the key's side (bounds scanned off the filtered
   keys): same digest, or the same error when the span is unaffordable.
   Sparse cases spread the left keys past the slot budget. *)
let prop_stored_bounds_match_scanned =
  let open QCheck.Gen in
  let gen =
    let* c = gen_gj_case in
    let* sparse = frequency [ (4, return false); (1, return true) ] in
    return (c, sparse)
  in
  let print (c, sparse) = show_gj_case c ^ Printf.sprintf " sparse=%b" sparse in
  QCheck.Test.make ~count:300 ~name:"stored SPH bounds = scanned SPH bounds"
    (QCheck.make ~print gen) (fun (c, sparse) ->
      let spread (k, g, v) = ((if sparse then k * 1_000_003 else k), g, v) in
      let lrows = List.map spread c.lrows in
      let l = gj_relation ("lk", "lg", "lv") lrows
      and r = gj_relation ("rk", "rg", "rv") c.rrows in
      let db = Engine.create () in
      Engine.register db ~name:"L" l;
      Engine.register db ~name:"R" r;
      let keep_all name col rel =
        let keys = Relation.int_col rel col in
        let lo = if Int_col.length keys = 0 then 0 else fst (Int_col.min_max keys) in
        Physical.Filter_op (Physical.Table_scan name, col, Filter.Ge lo)
      in
      let sphj left =
        Physical.Join_op
          (left, Physical.Table_scan "R", "lk", "rk", Physical.default_join Join.SPHJ)
      in
      let group ?(c = c) sub key =
        Physical.Group_op (sub, key, gj_aggs c, Physical.default_grouping Grouping.SPHG)
      in
      (* A grouping of L alone sums L's payload. *)
      let l_only = { c with sum = Option.map (fun _ -> "lv") c.sum } in
      let outcome plan =
        match
          Dqo_par.Pool.with_pool ~domains:c.domains (fun pool ->
              Engine.execute db ~pool plan)
        with
        | rel -> Ok (Dqo_serve.Wire.digest rel)
        | exception Invalid_argument msg -> Error msg
      in
      List.for_all
        (fun (bare, filtered) -> outcome bare = outcome filtered)
        [
          (sphj (Physical.Table_scan "L"), sphj (keep_all "L" "lk" l));
          ( group ~c:l_only (Physical.Table_scan "L") "lk",
            group ~c:l_only (keep_all "L" "lk" l) "lk" );
          ( group (sphj (Physical.Table_scan "L")) c.key,
            group (sphj (keep_all "L" "lk" l)) c.key );
        ])

(* SPHG over a WHERE on a stored relation T(k, f, v), which the sequential
   SPHG tests in its own pass, against the operators it replaces: the
   same plan with a projection of every column shielding the scan runs
   [Filter.select] + [take] per filter and then the grouping the plan
   names (the parallel SPHG on 2 domains, the FKS grouping when an FKS
   AV serves a sparse key).  Same digest, or the same error.  Where the
   keys are dense, the digest is also that of [Filter.select] + [take]
   + [Grouping.sph_based] called directly.  Storage is flat or chunked
   (16-row chunks, so segments cross chunk boundaries). *)
type sphg_case = {
  rows : (int * int * int) list;  (* k, f, v *)
  filters : (string * Filter.predicate) list;  (* innermost first *)
  with_sum : bool;
  chunked : bool;
  sparse : bool;
  fks : bool;
  pool_domains : int;
}

let prop_sphg_where_matches_operators =
  let open QCheck.Gen in
  let gen =
    let value = frequency [ (6, int_range (-50) 50); (1, oneofl [ min_int; max_int ]) ] in
    let* rows = list_size (int_bound 60) (triple (int_range 0 12) (int_range (-30) 30) value) in
    let* n = int_range 1 2 in
    let* filters = list_repeat n (pair (oneofl [ "k"; "f"; "v" ]) gen_pred) in
    let* with_sum = bool and* chunked = bool in
    let* sparse = frequency [ (3, return false); (1, return true) ] in
    let* fks = bool and* pool_domains = oneofl [ 1; 2 ] in
    return { rows; filters; with_sum; chunked; sparse; fks; pool_domains }
  in
  let print c =
    Printf.sprintf "T=[%s]\nwhere %s sum=%b chunked=%b sparse=%b fks=%b domains=%d"
      (String.concat " "
         (List.map (fun (k, f, v) -> Printf.sprintf "(%d,%d,%d)" k f v) c.rows))
      (show_filters c.filters) c.with_sum c.chunked c.sparse c.fks c.pool_domains
  in
  QCheck.Test.make ~count:300 ~name:"SPHG over Filter = Filter.select + take + sph_based"
    (QCheck.make ~print gen) (fun c ->
      let rows =
        List.map (fun (k, f, v) -> ((if c.sparse then k * 1_000_003 else k), f, v)) c.rows
      in
      let column pick =
        let a = Array.of_list (List.map pick rows) in
        if c.chunked then
          Column.of_int_col
            (Int_col.init ~backend:(Int_col.Chunked Int_col.W64) ~chunk_rows:16
               (Array.length a) (Array.get a))
        else Column.of_ints a
      in
      let t =
        Relation.create
          (Schema.of_names [ ("k", Schema.T_int); ("f", Schema.T_int); ("v", Schema.T_int) ])
          [ column (fun (k, _, _) -> k); column (fun (_, f, _) -> f); column (fun (_, _, v) -> v) ]
      in
      let db = Engine.create () in
      Engine.register db ~name:"T" t;
      if c.fks then
        Engine.install_av db (View.perfect_hash (Engine.catalog db) ~relation:"T" ~column:"k");
      let aggs =
        { Logical.spec = Aggregate.Count; column = None; alias = "cnt" }
        :: (if c.with_sum then
              [ { Logical.spec = Aggregate.Sum; column = Some "v"; alias = "total" } ]
            else [])
      in
      let plan scan =
        Physical.Group_op
          (filtered_plan scan c.filters, "k", aggs, Physical.default_grouping Grouping.SPHG)
      in
      let outcome plan =
        match
          Dqo_par.Pool.with_pool ~domains:c.pool_domains (fun pool ->
              Engine.execute db ~pool plan)
        with
        | rel -> Ok (Dqo_serve.Wire.digest rel)
        | exception Invalid_argument msg -> Error msg
      in
      let fused = outcome (plan (Physical.Table_scan "T")) in
      let operators =
        outcome (plan (Physical.Project_op (Physical.Table_scan "T", [ "k"; "f"; "v" ])))
      in
      let direct () =
        let kept = select_take t c.filters in
        let keys = Relation.int_col kept "k" in
        let lo, hi = if Int_col.length keys = 0 then (0, 0) else Int_col.min_max keys in
        let g =
          Grouping.sph_based ~lo ~hi ~keys
            ~values:
              (if c.with_sum then Relation.int_col kept "v"
               else Int_col.const (Int_col.length keys) 0)
        in
        Dqo_serve.Wire.digest
          (Relation.create
             (Schema.of_names
                (List.map (fun (a : Logical.aggregate) -> (a.Logical.alias, Schema.T_int)) aggs
                |> List.cons ("k", Schema.T_int)))
             (Column.of_ints g.Dqo_exec.Group_result.keys
             :: List.map
                  (fun (a : Logical.aggregate) ->
                    Column.of_ints
                      (match a.Logical.spec with
                      | Aggregate.Sum -> g.Dqo_exec.Group_result.sums
                      | _ -> g.Dqo_exec.Group_result.counts))
                  aggs))
      in
      fused = operators && (c.sparse || fused = Ok (direct ())))

(* Every node of an analysed execution, fused or not, keeps its plan
   label and estimate, and as actual rows what executing that node's
   subtree alone returns: a filter reports the rows it keeps (also
   those the join above finds no partner for), a join the pairs it
   would materialise. *)
let check_analysed db ~name plan root =
  let rec check (p : Physical.t) (n : Dqo_opt.Explain.analyzed) =
    let label = name ^ ": " ^ Physical.op_label p in
    Alcotest.(check string) label (Physical.op_label p) n.Dqo_opt.Explain.op;
    Alcotest.(check int) (label ^ " est")
      (Dqo_opt.Explain.estimated_rows (Engine.catalog db) p)
      n.Dqo_opt.Explain.est_rows;
    Alcotest.(check int) (label ^ " actual")
      (Relation.cardinality (Engine.execute db p))
      n.Dqo_opt.Explain.actual_rows;
    let subs =
      match p with
      | Physical.Table_scan _ -> []
      | Physical.Filter_op (c, _, _) | Physical.Project_op (c, _)
      | Physical.Sort_enforcer (c, _) | Physical.Group_op (c, _, _, _) ->
        [ c ]
      | Physical.Join_op (l, r, _, _, _) -> [ l; r ]
    in
    Alcotest.(check int) (label ^ " children") (List.length subs)
      (List.length n.Dqo_opt.Explain.children);
    List.iter2 check subs n.Dqo_opt.Explain.children
  in
  check plan root

(* [check_analysed] over EXPLAIN ANALYZE of random WHEREs (one or two
   predicates per relation, literals the SQL lexer reads: no negative
   ones) on a grouping of L alone and of L JOIN R, as planned. *)
let prop_analysed_matches_operators =
  let open QCheck.Gen in
  let gen =
    let* c = gen_gj_case in
    let pred =
      let* x = int_range 0 20 and* y = int_range 0 20 in
      oneofl
        Filter.[ Eq x; Ne x; Lt x; Le x; Gt x; Ge x; Between (min x y, max x y) ]
    in
    let filters cols =
      let* n = frequency [ (1, return 1); (2, return 2) ] in
      list_repeat n (pair (oneofl cols) pred)
    in
    let* lfilters = filters [ "lk"; "lg" ] and* rfilters = filters [ "rk"; "rg" ] in
    let* join = bool in
    return ({ c with lfilters; rfilters }, join)
  in
  let print (c, join) = show_gj_case c ^ Printf.sprintf " join=%b" join in
  QCheck.Test.make ~count:200 ~name:"EXPLAIN ANALYZE nodes = unfused operators"
    (QCheck.make ~print gen) (fun (c, join) ->
      let db = Engine.create () in
      Engine.register db ~name:"L" (gj_relation ("lk", "lg", "lv") c.lrows);
      Engine.register db ~name:"R" (gj_relation ("rk", "rg", "rv") c.rrows);
      let key, from, filters =
        if join then (c.key, "L JOIN R ON lk = rk", c.lfilters @ c.rfilters)
        else ("lg", "L", c.lfilters)
      in
      let sql =
        Printf.sprintf "SELECT %s, COUNT(*) AS cnt%s FROM %s%s GROUP BY %s" key
          (match c.sum with
          | Some v when join || String.equal v "lv" -> Printf.sprintf ", SUM(%s) AS total" v
          | _ -> "")
          from
          (if filters = [] then ""
           else
             " WHERE "
             ^ String.concat " AND "
                 (List.map (fun (col, p) -> Format.asprintf "%s %a" col Filter.pp p) filters))
          key
      in
      match Engine.explain_analyze db (Dqo_sql.Binder.plan_of_sql (Engine.catalog db) sql) with
      | a ->
        check_analysed db ~name:sql a.Engine.entry.Pareto.plan a.Engine.root;
        true
      | exception Invalid_argument _ -> true)

(* The group key's slot domain keeps the SPHG affordability rule: a span
   past 4 x (rows + 1024) refuses with SPHG's error. *)
let test_groupjoin_sparse_group_key () =
  let c =
    {
      lrows = [ (1, 0, 0); (2, 0, 0) ];
      rrows = [ (1, 0, 0); (2, 1_000_000_000, 0) ];
      key = "rg";
      sum = None;
      lfilters = [];
      rfilters = [];
      domains = 1;
    }
  in
  let db = Engine.create () in
  Engine.register db ~name:"L" (gj_relation ("lk", "lg", "lv") c.lrows);
  Engine.register db ~name:"R" (gj_relation ("rk", "rg", "rv") c.rrows);
  Alcotest.check_raises "sparse group key"
    (Invalid_argument
       "Engine: SPHG chosen for sparse column rg without a perfect-hash AV")
    (fun () -> ignore (Engine.execute db (gj_plan c)))

(* The analysed walk runs the groupjoin but still reports the SPHJ node:
   every node's label and estimate are the plan's, and its actual rows
   are what executing that node's subtree alone returns — for the join,
   the materialised pair count. *)
let test_groupjoin_analysed_tree () =
  let db, _ = fk_db ~r_sorted:false ~s_sorted:false ~dense:true ~seed:7 in
  List.iter
    (fun sql ->
      let a = Engine.explain_analyze db (Dqo_sql.Binder.plan_of_sql (Engine.catalog db) sql) in
      let plan = a.Engine.entry.Pareto.plan in
      Alcotest.(check (list string)) (sql ^ ": fused shape")
        [ "SPHG"; "SPHJ" ]
        (List.filteri (fun i _ -> i < 2) (Physical.operators plan));
      check_analysed db ~name:sql plan a.Engine.root;
      Alcotest.(check bool) (sql ^ ": result") true
        (Relation.rows a.Engine.result = Relation.rows (Engine.execute db plan)))
    [
      "SELECT a, COUNT(*) AS cnt FROM R JOIN S ON id = r_id GROUP BY a";
      "SELECT a, COUNT(*) AS cnt FROM R JOIN S ON id = r_id WHERE a < 10000 \
       GROUP BY a";
      "SELECT a, COUNT(*) AS cnt FROM R JOIN S ON id = r_id WHERE a < 200 \
       GROUP BY a";
    ]

let () =
  Alcotest.run "dqo_engine"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "group query, all data shapes" `Quick
            test_group_query_all_combinations;
          Alcotest.test_case "dqo picks SPH" `Quick
            test_dqo_plan_uses_sph_and_matches;
          Alcotest.test_case "where pushdown" `Quick test_where_pushdown;
          Alcotest.test_case "plain projection" `Quick test_plain_projection;
          Alcotest.test_case "generic aggregates" `Quick
            test_generic_aggregates;
          Alcotest.test_case "sum fast path" `Quick
            test_sum_aggregate_fast_path;
        ] );
      ( "algorithmic-views",
        [
          Alcotest.test_case "perfect hash AV on sparse data" `Quick
            test_perfect_hash_av_on_sparse_data;
          Alcotest.test_case "sorted projection AV" `Quick
            test_sorted_projection_av;
          Alcotest.test_case "grouping result AV" `Quick
            test_grouping_result_av;
        ] );
      ( "catalog",
        [ QCheck_alcotest.to_alcotest prop_catalog_matches_full_rebuild ] );
      ( "view-answering",
        [
          Alcotest.test_case "uses materialised grouping" `Quick
            test_view_answers_servable_grouping;
          Alcotest.test_case "rejects unservable aggregates" `Quick
            test_view_rejects_unservable_aggregates;
        ] );
      ( "prepared",
        [ Alcotest.test_case "prepared statements" `Quick test_prepared_statements ]
      );
      ( "live-columns",
        [
          Alcotest.test_case "schemas and digests pinned" `Quick
            test_live_columns;
          Alcotest.test_case "FKS join, probe keys outside the key set"
            `Quick test_fks_join_probe_keys_outside_key_set;
        ] );
      ( "merged-paths",
        [
          Alcotest.test_case "explain analyze matches plan and execute"
            `Quick test_explain_analyze_matches_plan_and_execute;
          Alcotest.test_case "SPH after a selective filter" `Quick
            test_sph_after_selective_filter;
          Alcotest.test_case "SPH on empty and one-row input" `Quick
            test_sph_on_empty_and_single_row_input;
        ] );
      ( "groupjoin",
        [
          QCheck_alcotest.to_alcotest prop_groupjoin_matches_unfused;
          QCheck_alcotest.to_alcotest prop_stored_bounds_match_scanned;
          QCheck_alcotest.to_alcotest prop_sphg_where_matches_operators;
          QCheck_alcotest.to_alcotest prop_analysed_matches_operators;
          Alcotest.test_case "sparse group key" `Quick
            test_groupjoin_sparse_group_key;
          Alcotest.test_case "analysed tree" `Quick test_groupjoin_analysed_tree;
        ] );
      ( "fuzz",
        [
          QCheck_alcotest.to_alcotest prop_engine_fuzz_single_table;
          QCheck_alcotest.to_alcotest prop_engine_fuzz_join;
        ] );
      ( "sql",
        [
          Alcotest.test_case "explain" `Quick test_explain_sql;
          Alcotest.test_case "binder errors" `Quick test_binder_errors;
        ] );
      ( "hier-routing",
        [
          Alcotest.test_case "off by default" `Quick
            test_hier_routing_off_by_default;
          Alcotest.test_case "forced via hier_threshold 0" `Quick
            test_hier_routing_forced;
          Alcotest.test_case "threshold routes" `Quick
            test_hier_routing_by_threshold;
          Alcotest.test_case "explain analyze renders partitions" `Quick
            test_hier_explain_analyze_sql_renders_partitions;
        ] );
    ]
