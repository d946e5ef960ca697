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

(* --- runtime re-optimisation ------------------------------------------- *)

let test_adaptive_discovers_density () =
  (* The grouping key is globally sparse (one huge outlier), so the
     static optimiser — whose filter estimator narrows bounds but cannot
     prove density — plans HG even for a query whose WHERE clause
     removes the outlier.  Adaptive re-optimisation measures the real
     filter output, finds a dense domain, and switches to SPHG. *)
  let rng = Dqo_util.Rng.create ~seed:88 in
  let n = 20_000 in
  let a =
    Array.init n (fun i -> if i = 0 then 1_000_000_000 else i mod 1_000)
  in
  Dqo_util.Rng.shuffle rng a;
  let v = Array.init n (fun i -> i mod 7) in
  let schema =
    Schema.of_names [ ("a", Schema.T_int); ("v", Schema.T_int) ]
  in
  let rel =
    Relation.create schema [ Dqo_data.Column.of_ints a; Dqo_data.Column.of_ints v ]
  in
  let db = Engine.create () in
  Engine.register db ~name:"T" rel;
  let q =
    Dqo_sql.Binder.plan_of_sql (Engine.catalog db)
      "SELECT a, COUNT(*) AS cnt FROM T WHERE a BETWEEN 0 AND 999 GROUP BY a"
  in
  let result, report = Engine.run_adaptive db q in
  (* The static optimiser cannot prove the filtered domain dense, so any
     static choice but SPHG is possible (the outlier also wrecks its
     uniform selectivity estimate); the adaptive pass measures the real
     intermediate and reaches SPHG. *)
  Alcotest.(check bool) "static cannot reach SPHG" true
    (report.Engine.static_grouping <> "SPHG");
  Alcotest.(check string) "adaptive measures density, picks SPHG" "SPHG"
    report.Engine.adaptive_grouping;
  Alcotest.(check bool) "replanned" true report.Engine.replanned;
  (* Correctness of the adaptive result. *)
  let expected = Hashtbl.create 1_024 in
  Array.iter
    (fun x ->
      if x <= 999 then
        Hashtbl.replace expected x
          (1 + Option.value ~default:0 (Hashtbl.find_opt expected x)))
    a;
  let expected =
    List.sort compare (Hashtbl.fold (fun k c acc -> (k, c) :: acc) expected [])
  in
  Alcotest.(check (list (pair int int))) "adaptive result correct" expected
    (result_to_alist result)

let test_adaptive_no_change_when_static_is_right () =
  let db, _ = fk_db ~r_sorted:true ~s_sorted:true ~dense:true ~seed:91 in
  let q =
    Dqo_sql.Binder.plan_of_sql (Engine.catalog db)
      "SELECT a, COUNT(*) AS cnt FROM R JOIN S ON id = r_id GROUP BY a"
  in
  let _, report = Engine.run_adaptive db q in
  Alcotest.(check bool) "no replanning needed" false report.Engine.replanned

let test_adaptive_on_non_grouping_query () =
  let db, _ = fk_db ~r_sorted:true ~s_sorted:true ~dense:true ~seed:92 in
  let q =
    Dqo_sql.Binder.plan_of_sql (Engine.catalog db) "SELECT a FROM R WHERE a < 5"
  in
  let result, report = Engine.run_adaptive db q in
  Alcotest.(check bool) "fallback executes" true
    (Relation.cardinality result > 0);
  Alcotest.(check bool) "no replanning" false report.Engine.replanned

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

(* Random single-table grouping queries with predicates: SQO, DQO and
   adaptive execution must all equal a naive evaluation. *)
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
      let adaptive = normalise (fst (Engine.run_adaptive db q)) in
      sqo = expected && dqo = expected && adaptive = expected)

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
      ( "adaptive",
        [
          Alcotest.test_case "discovers density at runtime" `Quick
            test_adaptive_discovers_density;
          Alcotest.test_case "no change when right" `Quick
            test_adaptive_no_change_when_static_is_right;
          Alcotest.test_case "non-grouping fallback" `Quick
            test_adaptive_on_non_grouping_query;
        ] );
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
      ( "merged-paths",
        [
          Alcotest.test_case "explain analyze matches plan and execute"
            `Quick test_explain_analyze_matches_plan_and_execute;
          Alcotest.test_case "SPH after a selective filter" `Quick
            test_sph_after_selective_filter;
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
