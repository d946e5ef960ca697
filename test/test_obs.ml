(* Observability layer: the JSON emitter, the metrics registry, the
   instrumented executor entry points, and EXPLAIN ANALYZE end to end. *)

module Json = Dqo_obs.Json
module Metrics = Dqo_obs.Metrics
module Pipeline = Dqo_exec.Pipeline
module Datagen = Dqo_data.Datagen
module Engine = Dqo_engine.Engine
module Explain = Dqo_opt.Explain

(* --- JSON emitter ----------------------------------------------------- *)

let test_json_scalars () =
  Alcotest.(check string) "null" "null" (Json.to_string Json.Null);
  Alcotest.(check string) "true" "true" (Json.to_string (Json.Bool true));
  Alcotest.(check string) "int" "42" (Json.to_string (Json.Int 42));
  Alcotest.(check string) "float keeps .0" "3.0"
    (Json.to_string (Json.Float 3.0));
  Alcotest.(check string) "fractional float" "2.5"
    (Json.to_string (Json.Float 2.5));
  Alcotest.(check string) "string" "\"hi\"" (Json.to_string (Json.String "hi"))

let test_json_non_finite_is_null () =
  Alcotest.(check string) "nan" "null" (Json.to_string (Json.Float Float.nan));
  Alcotest.(check string) "inf" "null"
    (Json.to_string (Json.Float Float.infinity));
  Alcotest.(check string) "-inf" "null"
    (Json.to_string (Json.Float Float.neg_infinity));
  Alcotest.(check string) "of_float_opt none" "null"
    (Json.to_string (Json.of_float_opt None))

let test_json_escaping () =
  Alcotest.(check string) "quotes and backslash" "\"a\\\"b\\\\c\""
    (Json.to_string (Json.String "a\"b\\c"));
  Alcotest.(check string) "newline and tab" "\"a\\nb\\tc\""
    (Json.to_string (Json.String "a\nb\tc"));
  Alcotest.(check string) "control char" "\"\\u0001\""
    (Json.to_string (Json.String "\x01"))

let test_json_nesting () =
  let j =
    Json.Obj
      [ ("xs", Json.List [ Json.Int 1; Json.Int 2 ]); ("empty", Json.Obj []) ]
  in
  Alcotest.(check string) "indented"
    "{\n  \"xs\": [\n    1,\n    2\n  ],\n  \"empty\": {}\n}"
    (Json.to_string j);
  Alcotest.(check string) "empty list" "[]" (Json.to_string (Json.List []))

(* --- metrics registry ------------------------------------------------- *)

let test_metrics_counters () =
  let m = Metrics.create () in
  Alcotest.(check int) "unknown is 0" 0 (Metrics.counter m "x");
  Metrics.incr m "x";
  Metrics.incr m ~by:4 "x";
  Metrics.incr m "y";
  Alcotest.(check int) "accumulates" 5 (Metrics.counter m "x");
  Alcotest.(check int) "independent" 1 (Metrics.counter m "y")

let test_metrics_spans () =
  let m = Metrics.create () in
  Alcotest.(check int) "unknown span is 0" 0 (Metrics.span_ns m "s");
  let r = Metrics.span m "s" (fun () -> 7) in
  Alcotest.(check int) "span returns result" 7 r;
  Alcotest.(check bool) "non-negative" true (Metrics.span_ns m "s" >= 0);
  (* Accumulates on exceptions too. *)
  (try Metrics.span m "s" (fun () -> failwith "boom") with Failure _ -> ());
  Metrics.add_span_ns m "s" 1_000;
  Alcotest.(check bool) "accumulated" true (Metrics.span_ns m "s" >= 1_000)

let test_metrics_ops () =
  let m = Metrics.create () in
  Metrics.record m ~op:"scan" ~rows_in:0 ~rows_out:100 ~wall_ns:5;
  Metrics.record m ~op:"scan" ~rows_in:0 ~rows_out:50 ~wall_ns:5;
  Metrics.record m ~op:"join" ~rows_in:150 ~rows_out:3 ~wall_ns:7;
  (match Metrics.find_op m "scan" with
  | None -> Alcotest.fail "scan op missing"
  | Some o ->
    Alcotest.(check int) "invocations" 2 o.Metrics.invocations;
    Alcotest.(check int) "rows_out summed" 150 o.Metrics.rows_out;
    Alcotest.(check int) "wall summed" 10 o.Metrics.wall_ns);
  (match Metrics.find_op m "join" with
  | None -> Alcotest.fail "join op missing"
  | Some o ->
    Alcotest.(check int) "rows_in" 150 o.Metrics.rows_in;
    Alcotest.(check int) "rows_out" 3 o.Metrics.rows_out);
  Alcotest.(check int) "two ops registered" 2 (List.length (Metrics.ops m))

let test_metrics_to_json () =
  let m = Metrics.create () in
  Metrics.incr m "plans";
  Metrics.record m ~op:"scan" ~rows_in:0 ~rows_out:9 ~wall_ns:1;
  let s = Json.to_string (Metrics.to_json m) in
  List.iter
    (fun affix ->
      Alcotest.(check bool) ("mentions " ^ affix) true
        (Astring.String.is_infix ~affix s))
    [ "\"counters\""; "\"plans\": 1"; "\"operators\""; "\"rows_out\": 9" ]

let test_metrics_merge () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.incr a ~by:2 "shared";
  Metrics.incr a "only_a";
  Metrics.incr b ~by:5 "shared";
  Metrics.incr b "only_b";
  Metrics.add_span_ns a "s" 10;
  Metrics.add_span_ns b "s" 32;
  Metrics.record a ~op:"scan" ~rows_in:0 ~rows_out:10 ~wall_ns:3;
  Metrics.record b ~op:"scan" ~rows_in:0 ~rows_out:20 ~wall_ns:4;
  Metrics.record b ~op:"join" ~rows_in:30 ~rows_out:5 ~wall_ns:1;
  Metrics.merge ~into:a b;
  Alcotest.(check int) "shared counter summed" 7 (Metrics.counter a "shared");
  Alcotest.(check int) "a-only kept" 1 (Metrics.counter a "only_a");
  Alcotest.(check int) "b-only adopted" 1 (Metrics.counter a "only_b");
  Alcotest.(check int) "spans summed" 42 (Metrics.span_ns a "s");
  (match Metrics.find_op a "scan" with
  | None -> Alcotest.fail "scan op missing after merge"
  | Some o ->
    Alcotest.(check int) "invocations summed" 2 o.Metrics.invocations;
    Alcotest.(check int) "rows_out summed" 30 o.Metrics.rows_out;
    Alcotest.(check int) "wall summed" 7 o.Metrics.wall_ns);
  Alcotest.(check bool) "b-only op adopted" true
    (Metrics.find_op a "join" <> None);
  (* [b] is untouched. *)
  Alcotest.(check int) "source unchanged" 5 (Metrics.counter b "shared")

let test_metrics_clock_is_wall_time () =
  (* A sleeping span burns no CPU; only a wall clock sees it.  The old
     [Sys.time]-based clock recorded ~0 here. *)
  let m = Metrics.create () in
  Metrics.span m "sleep" (fun () -> Unix.sleepf 0.02);
  Alcotest.(check bool) "sleep measured as wall time" true
    (Metrics.span_ns m "sleep" >= 15_000_000)

(* --- instrumented executor entry points ------------------------------- *)

let test_pipeline_observe () =
  let n = 10_000 in
  let keys = Array.init n (fun i -> i mod 7) in
  let values = Array.make n 1 in
  let m = Metrics.create () in
  let prod =
    Pipeline.observe m ~op:"scan"
      (Pipeline.of_arrays ~chunk_size:1_024 ~keys ~values ())
  in
  let ks, vs = Pipeline.collect prod in
  Alcotest.(check int) "stream intact" n (Array.length ks);
  Alcotest.(check int) "values intact" n (Array.length vs);
  match Metrics.find_op m "scan" with
  | None -> Alcotest.fail "scan op missing"
  | Some o ->
    Alcotest.(check int) "one invocation" 1 o.Metrics.invocations;
    Alcotest.(check int) "rows counted" n o.Metrics.rows_out;
    (* 10,000 rows in 1,024-row chunks: ceil = 10 pushes. *)
    Alcotest.(check int) "chunks counted" 10 o.Metrics.chunks

(* --- EXPLAIN ANALYZE end to end --------------------------------------- *)

let demo_db () =
  let rng = Dqo_util.Rng.create ~seed:3 in
  let pair =
    Datagen.fk_pair ~rng ~r_rows:2_500 ~s_rows:9_000 ~r_groups:2_000
      ~r_sorted:false ~s_sorted:false ~dense:true
  in
  let db = Engine.create () in
  Engine.register db ~name:"R" pair.Datagen.r;
  Engine.register db ~name:"S" pair.Datagen.s;
  db

let demo_sql = "SELECT a, COUNT(*) AS c FROM R JOIN S ON id = r_id GROUP BY a"

let rec count_nodes (n : Explain.analyzed) =
  1 + List.fold_left (fun acc c -> acc + count_nodes c) 0 n.Explain.children

let test_explain_analyze_end_to_end () =
  let db = demo_db () in
  let a =
    Engine.explain_analyze db
      (Dqo_sql.Binder.plan_of_sql (Engine.catalog db) demo_sql)
  in
  let root = a.Engine.root in
  Alcotest.(check int) "root actual = result cardinality"
    (Dqo_data.Relation.cardinality a.Engine.result)
    root.Explain.actual_rows;
  (* group-by over a join over two scans: at least 4 nodes. *)
  Alcotest.(check bool) "whole tree annotated" true (count_nodes root >= 4);
  let rec check_node (n : Explain.analyzed) =
    Alcotest.(check bool)
      (n.Explain.op ^ " q-error >= 1") true
      (Explain.q_error ~est:n.Explain.est_rows ~actual:n.Explain.actual_rows
       >= 1.0);
    Alcotest.(check bool)
      (n.Explain.op ^ " cumulative time") true
      (List.for_all
         (fun (c : Explain.analyzed) -> c.Explain.wall_ns <= n.Explain.wall_ns)
         n.Explain.children);
    List.iter check_node n.Explain.children
  in
  check_node root;
  (* The executor recorded per-operator metrics and the execute span. *)
  Alcotest.(check bool) "per-op metrics" true
    (List.length (Metrics.ops a.Engine.metrics) >= 4);
  Alcotest.(check bool) "execute span" true
    (Metrics.span_ns a.Engine.metrics "execute" >= 0);
  (* Optimiser stats carry the DP trace. *)
  Alcotest.(check bool) "trace present" true
    (a.Engine.search_stats.Dqo_opt.Search.trace <> [])

let test_explain_analyze_render_and_json () =
  let db = demo_db () in
  let report = Engine.explain_analyze_sql db demo_sql in
  List.iter
    (fun affix ->
      Alcotest.(check bool) ("report mentions " ^ affix) true
        (Astring.String.is_infix ~affix report))
    [ "EXPLAIN ANALYZE"; "est="; "actual="; "q="; "TableScan(R)"; "optimiser" ];
  let a =
    Engine.explain_analyze db
      (Dqo_sql.Binder.plan_of_sql (Engine.catalog db) demo_sql)
  in
  let s = Json.to_string (Engine.analysis_to_json a) in
  List.iter
    (fun affix ->
      Alcotest.(check bool) ("json mentions " ^ affix) true
        (Astring.String.is_infix ~affix s))
    [
      "\"estimated_cost\""; "\"plan\""; "\"q_error\""; "\"optimizer\"";
      "\"trace\""; "\"metrics\""; "\"plans_considered\""; "\"levels\"";
      "\"beam_pruned\"";
    ]

let test_estimates_match_search () =
  (* The EXPLAIN ANALYZE estimator must agree with the search: the root
     estimate of the chosen plan is the Pareto entry's rows. *)
  let db = demo_db () in
  let a =
    Engine.explain_analyze db
      (Dqo_sql.Binder.plan_of_sql (Engine.catalog db) demo_sql)
  in
  Alcotest.(check int) "root est = entry rows"
    a.Engine.entry.Dqo_opt.Pareto.rows a.Engine.root.Explain.est_rows

let () =
  Alcotest.run "dqo_obs"
    [
      ( "json",
        [
          Alcotest.test_case "scalars" `Quick test_json_scalars;
          Alcotest.test_case "non-finite -> null" `Quick
            test_json_non_finite_is_null;
          Alcotest.test_case "escaping" `Quick test_json_escaping;
          Alcotest.test_case "nesting" `Quick test_json_nesting;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_metrics_counters;
          Alcotest.test_case "spans" `Quick test_metrics_spans;
          Alcotest.test_case "operators" `Quick test_metrics_ops;
          Alcotest.test_case "to_json" `Quick test_metrics_to_json;
          Alcotest.test_case "merge" `Quick test_metrics_merge;
          Alcotest.test_case "wall clock" `Quick test_metrics_clock_is_wall_time;
        ] );
      ( "executor",
        [
          Alcotest.test_case "pipeline observe" `Quick test_pipeline_observe;
        ] );
      ( "explain-analyze",
        [
          Alcotest.test_case "end to end" `Quick
            test_explain_analyze_end_to_end;
          Alcotest.test_case "render & json" `Quick
            test_explain_analyze_render_and_json;
          Alcotest.test_case "estimates match search" `Quick
            test_estimates_match_search;
        ] );
    ]
