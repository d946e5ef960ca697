(* The cardinality-feedback re-optimisation loop, end to end: analysed
   executions learn correction factors, prepared statements track their
   worst observed q-error, and crossing the engine's threshold replans
   the cached statement — transparently in the server. *)

module Engine = Dqo_engine.Engine
module Server = Dqo_serve.Server
module Feedback = Dqo_cost.Feedback
module Metrics = Dqo_obs.Metrics
module Datagen = Dqo_data.Datagen
module Relation = Dqo_data.Relation
module Column = Dqo_data.Column
module Rng = Dqo_util.Rng
module Pareto = Dqo_opt.Pareto

(* S.b drawn from Zipf(1.0) over [0, 1000): the measured catalog assumes
   b is uniform on its value range, so [b <= 9] is estimated at ~1% but
   actually keeps roughly 39% of the table — a ~39x misestimate. *)
let skewed_db () =
  let rng = Rng.create ~seed:2020 in
  let pair =
    Datagen.fk_pair ~rng ~r_rows:2_500 ~s_rows:9_000 ~r_groups:2_000
      ~r_sorted:false ~s_sorted:false ~dense:true
  in
  let r_id =
    Dqo_data.Int_col.to_array (Relation.int_col pair.Datagen.s "r_id")
  in
  let b =
    Datagen.zipf_keys ~rng ~n:(Array.length r_id) ~groups:1_000 ~theta:1.0 ()
  in
  let s =
    Relation.create
      (Relation.schema pair.Datagen.s)
      [ Column.of_ints (Array.copy r_id); Column.of_int_col b ]
  in
  let db = Engine.create () in
  Engine.register db ~name:"R" pair.Datagen.r;
  Engine.register db ~name:"S" s;
  db

let misestimated_sql = "SELECT b, COUNT(*) AS c FROM S WHERE b <= 9 GROUP BY b"

let replan =
  Alcotest.testable
    (fun ppf r ->
      Format.pp_print_string ppf
        (match r with Engine.Stale -> "Stale" | Engine.Drifted -> "Drifted"))
    ( = )

let with_feedback db =
  Engine.set_opts db { Engine.default_opts with Engine.feedback = true };
  db

(* --- learning -------------------------------------------------------- *)

let test_learns_and_replans () =
  let db = with_feedback (skewed_db ()) in
  let p = Engine.prepare db misestimated_sql in
  Alcotest.(check (float 1e-9)) "fresh statement worst q" 1.0
    (Engine.prepared_worst_q p);
  Alcotest.(check bool) "fresh statement not drifted" false
    (Engine.prepared_drifted db p);
  (* The root estimate (group output) is distinct-capped either way, so
     the corrected filter estimate shows up in the plan's cost. *)
  let cost_before = (Engine.prepared_entry p).Pareto.cost in
  let m = Metrics.create () in
  ignore (Engine.revalidate db p);
  let first = Engine.execute_prepared db ~metrics:m p in
  (* The analysed execution learned: corrections landed in the store,
     q-errors in the metrics, and the statement saw its misestimate. *)
  Alcotest.(check bool) "corrections learned" true
    (Feedback.size (Engine.corrections db) > 0);
  Alcotest.(check bool) "observations counted" true
    (Metrics.counter m "feedback.observations" > 0);
  Alcotest.(check bool) "q-error histogram recorded" true
    (match Metrics.find_hist m "feedback.qerror" with
    | Some h -> Metrics.hist_count h > 0
    | None -> false);
  let q1 = Engine.prepared_worst_q p in
  Alcotest.(check bool) "misestimate observed (q >= 2)" true (q1 >= 2.0);
  Alcotest.(check bool) "statement drifted" true (Engine.prepared_drifted db p);
  (* Revalidating the drifted statement replans it: the q-error tracker
     resets, then records the corrected round. *)
  Alcotest.(check (option replan)) "drift replans" (Some Engine.Drifted)
    (Engine.revalidate db p);
  let second = Engine.execute_prepared db p in
  let q2 = Engine.prepared_worst_q p in
  Alcotest.(check bool) "replanned estimate moved" true
    ((Engine.prepared_entry p).Pareto.cost <> cost_before);
  Alcotest.(check bool) "q-error improved at least 2x" true (q1 /. q2 >= 2.0);
  Alcotest.(check bool) "no longer drifted" false (Engine.prepared_drifted db p);
  Alcotest.(check bool) "results identical across replan" true (first = second)

let test_threshold_is_inclusive () =
  let db = with_feedback (skewed_db ()) in
  let p = Engine.prepare db misestimated_sql in
  ignore (Engine.revalidate db p);
  ignore (Engine.execute_prepared db p);
  let q = Engine.prepared_worst_q p in
  (* Replanning triggers exactly at the threshold (>=), not beyond it. *)
  Engine.set_opts db
    { Engine.default_opts with Engine.feedback = true; qerror_threshold = q };
  Alcotest.(check bool) "q = threshold drifts" true (Engine.prepared_drifted db p);
  Engine.set_opts db
    {
      Engine.default_opts with
      Engine.feedback = true;
      qerror_threshold = q +. 0.01;
    };
  Alcotest.(check bool) "q just below threshold holds" false
    (Engine.prepared_drifted db p);
  (* Feedback off: drift is never reported, whatever was observed. *)
  Engine.set_opts db Engine.default_opts;
  Alcotest.(check bool) "no drift with feedback off" false
    (Engine.prepared_drifted db p)

let test_corrections_survive_reprepare () =
  let db = with_feedback (skewed_db ()) in
  let p = Engine.prepare db misestimated_sql in
  ignore (Engine.revalidate db p);
  ignore (Engine.execute_prepared db p);
  let size = Feedback.size (Engine.corrections db) in
  let runs = Feedback.runs (Engine.corrections db) in
  Engine.reprepare db p;
  Alcotest.(check int) "store size unchanged" size
    (Feedback.size (Engine.corrections db));
  Alcotest.(check int) "runs unchanged" runs
    (Feedback.runs (Engine.corrections db));
  Alcotest.(check (float 1e-9)) "worst q reset by reprepare" 1.0
    (Engine.prepared_worst_q p);
  (* The replanned statement used the surviving corrections: a fresh
     prepare of the same SQL prices its plan identically. *)
  Alcotest.(check (float 1e-9)) "fresh prepare sees corrections"
    (Engine.prepared_entry p).Pareto.cost
    (Engine.prepared_entry (Engine.prepare db misestimated_sql)).Pareto.cost

let test_feedback_off_learns_nothing () =
  let db = skewed_db () in
  let p = Engine.prepare db misestimated_sql in
  ignore (Engine.execute_prepared db p);
  Alcotest.(check int) "no corrections" 0 (Feedback.size (Engine.corrections db));
  Alcotest.(check (float 1e-9)) "no q tracked" 1.0 (Engine.prepared_worst_q p)

(* --- convergence ----------------------------------------------------- *)

(* The §4.3 fk pair at full size (25,000 x 90,000) with S.b drawn from
   Zipf(theta) over [0, 1000): at every skew the worst per-node q-error
   of both a filtered grouping and a filtered join falls to at most 2.0
   by the third analysed round, because each round's corrections already
   reach the next optimisation. *)
let test_converges_across_skews () =
  let queries =
    [
      ("filter+group", misestimated_sql);
      ( "join+filter",
        "SELECT a, COUNT(*) AS c FROM R JOIN S ON id = r_id WHERE b <= 9 \
         GROUP BY a" );
    ]
  in
  List.iter
    (fun theta ->
      List.iter
        (fun (name, sql) ->
          let rng = Rng.create ~seed:2020 in
          let pair =
            Datagen.fk_pair ~rng ~r_rows:25_000 ~s_rows:90_000
              ~r_groups:20_000 ~r_sorted:false ~s_sorted:false ~dense:true
          in
          let r_id = Relation.int_col pair.Datagen.s "r_id" in
          let b =
            Datagen.zipf_keys ~rng ~n:(Dqo_data.Int_col.length r_id)
              ~groups:1_000 ~theta ()
          in
          let s =
            Relation.create
              (Relation.schema pair.Datagen.s)
              [
                Column.of_ints (Dqo_data.Int_col.to_array r_id);
                Column.of_int_col b;
              ]
          in
          let db = Engine.create () in
          Engine.register db ~name:"R" pair.Datagen.r;
          Engine.register db ~name:"S" s;
          Engine.set_opts db
            { Engine.default_opts with mode = Engine.DQO; feedback = true };
          let plan = Dqo_sql.Binder.plan_of_sql (Engine.catalog db) sql in
          let qs =
            List.init 3 (fun _ ->
                Dqo_opt.Explain.max_q_error
                  (Engine.explain_analyze db plan).Engine.root)
          in
          let label =
            Printf.sprintf "theta=%.1f %s: q per round %s" theta name
              (String.concat " -> " (List.map (Printf.sprintf "%.2f") qs))
          in
          Alcotest.(check bool) (label ^ ", round 1 misestimated") true
            (List.hd qs >= 2.0);
          Alcotest.(check bool) (label ^ ", round 3 q <= 2.0") true
            (List.nth qs 2 <= 2.0))
        queries)
    [ 0.5; 1.0; 1.5 ]

(* --- serving --------------------------------------------------------- *)

let test_server_auto_replans () =
  let db = with_feedback (skewed_db ()) in
  let srv = Server.create ~workers:2 db in
  Fun.protect
    ~finally:(fun () -> Server.shutdown srv)
    (fun () ->
      let s = Server.open_session srv in
      let stmt = Server.prepare s misestimated_sql in
      let first = Server.execute s stmt in
      let q1 = Feedback.last_max_q (Engine.corrections db) in
      let second = Server.execute s stmt in
      let q2 = Feedback.last_max_q (Engine.corrections db) in
      Server.close_session s;
      let m = Server.metrics srv in
      (* The second request found the cached statement drifted and
         replanned it before executing — no client intervention. *)
      Alcotest.(check bool) "feedback replan counted" true
        (Metrics.counter m "feedback.replans" >= 1);
      Alcotest.(check bool) "also counted as a serve replan" true
        (Metrics.counter m "serve.replans"
        >= Metrics.counter m "feedback.replans");
      Alcotest.(check bool) "first round badly misestimated" true (q1 >= 2.0);
      Alcotest.(check bool) "second round improved at least 2x" true
        (q1 /. q2 >= 2.0);
      Alcotest.(check bool) "feedback q-errors in server metrics" true
        (match Metrics.find_hist m "feedback.qerror" with
        | Some h -> Metrics.hist_count h > 0
        | None -> false);
      Alcotest.(check bool) "results identical across replan" true
        (Relation.rows first = Relation.rows second))

(* A cache hit on a drifted statement replans it at prepare, counted
   once; the execution that follows finds a current plan. *)
let test_server_prepare_replans_drifted () =
  let db = with_feedback (skewed_db ()) in
  let srv = Server.create ~workers:2 db in
  Fun.protect
    ~finally:(fun () -> Server.shutdown srv)
    (fun () ->
      let s = Server.open_session srv in
      let stmt = Server.prepare s misestimated_sql in
      ignore (Server.execute s stmt);
      Alcotest.(check bool) "statement drifted" true
        (Engine.prepared_drifted db (Server.stmt_prepared stmt));
      let again = Server.prepare s misestimated_sql in
      Alcotest.(check int) "cache hit" (Server.stmt_id stmt)
        (Server.stmt_id again);
      let m = Server.metrics srv in
      Alcotest.(check int) "replanned at prepare" 1
        (Metrics.counter m "feedback.replans");
      Alcotest.(check int) "one serve replan" 1
        (Metrics.counter m "serve.replans");
      ignore (Server.execute s again);
      Server.close_session s;
      Alcotest.(check int) "execute does not replan again" 1
        (Metrics.counter m "feedback.replans");
      Alcotest.(check int) "still one serve replan" 1
        (Metrics.counter m "serve.replans"))

let () =
  Alcotest.run "dqo_feedback"
    [
      ( "engine",
        [
          Alcotest.test_case "learns and replans" `Quick test_learns_and_replans;
          Alcotest.test_case "threshold inclusive" `Quick
            test_threshold_is_inclusive;
          Alcotest.test_case "corrections survive reprepare" `Quick
            test_corrections_survive_reprepare;
          Alcotest.test_case "off by default" `Quick
            test_feedback_off_learns_nothing;
          Alcotest.test_case "converges across skews" `Quick
            test_converges_across_skews;
        ] );
      ( "serving",
        [
          Alcotest.test_case "server auto-replans" `Quick
            test_server_auto_replans;
          Alcotest.test_case "prepare replans a drifted statement" `Quick
            test_server_prepare_replans_drifted;
        ] );
    ]
