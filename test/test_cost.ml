(* Tests for the cost layer: Table 2 formulas, cardinality estimation,
   and calibration against the real execution engine. *)

module Model = Dqo_cost.Model
module Cardinality = Dqo_cost.Cardinality
module Calibrate = Dqo_cost.Calibrate
module Physical = Dqo_plan.Physical
module Grouping = Dqo_exec.Grouping
module Join = Dqo_exec.Join

let g alg = Physical.default_grouping alg
let j alg = Physical.default_join alg

let gcost ?(model = Model.table2) alg ~rows ~groups =
  Model.grouping_cost model ~impl:(g alg) ~rows ~groups

let jcost ?(model = Model.table2) alg ~left ~right ~distinct =
  let costs = [| 0.0 |] in
  Model.join_costs model ~impls:[| j alg |] ~mask:1 ~left_rows:left
    ~right_rows:right ~left_distinct:distinct costs;
  costs.(0)

(* --- Table 2 formulas, checked against the paper's own numbers -------- *)

let test_table2_grouping_formulas () =
  (* HG(R) = 4 |R| *)
  Alcotest.(check (float 1e-6)) "HG" 400_000.0
    (gcost Grouping.HG ~rows:100_000 ~groups:20_000);
  (* OG(R) = |R| ; SPHG(R) = |R| *)
  Alcotest.(check (float 1e-6)) "OG" 100_000.0
    (gcost Grouping.OG ~rows:100_000 ~groups:20_000);
  Alcotest.(check (float 1e-6)) "SPHG" 100_000.0
    (gcost Grouping.SPHG ~rows:100_000 ~groups:20_000);
  (* SOG(R) = |R| log2 |R| + |R| *)
  Alcotest.(check (float 1.0)) "SOG" (1_024.0 *. 10.0 +. 1_024.0)
    (gcost Grouping.SOG ~rows:1_024 ~groups:4);
  (* BSG(R) = |R| log2 #groups *)
  Alcotest.(check (float 1e-6)) "BSG" (1_000.0 *. 4.0)
    (gcost Grouping.BSG ~rows:1_000 ~groups:16)

let test_table2_join_formulas () =
  (* HJ = 4 (|R| + |S|) *)
  Alcotest.(check (float 1e-6)) "HJ" 460_000.0
    (jcost Join.HJ ~left:25_000 ~right:90_000 ~distinct:25_000);
  (* OJ = SPHJ = |R| + |S| *)
  Alcotest.(check (float 1e-6)) "OJ" 115_000.0
    (jcost Join.OJ ~left:25_000 ~right:90_000 ~distinct:25_000);
  Alcotest.(check (float 1e-6)) "SPHJ" 115_000.0
    (jcost Join.SPHJ ~left:25_000 ~right:90_000 ~distinct:25_000);
  (* SOJ = |R| log2 |R| + |S| log2 |S| + |R| + |S| *)
  let expected =
    (1_024.0 *. 10.0) +. (4_096.0 *. 12.0) +. 1_024.0 +. 4_096.0
  in
  Alcotest.(check (float 1.0)) "SOJ" expected
    (jcost Join.SOJ ~left:1_024 ~right:4_096 ~distinct:1_024);
  (* BSJ = (|R| + |S|) log2 #groups *)
  Alcotest.(check (float 1e-6)) "BSJ" (5_120.0 *. 4.0)
    (jcost Join.BSJ ~left:1_024 ~right:4_096 ~distinct:16)

let test_sort_and_log2 () =
  Alcotest.(check (float 1e-6)) "sort" 10_240.0
    (Model.sort_cost Model.table2 ~rows:1_024);
  Alcotest.(check (float 1e-9)) "log2 1" 0.0 (Model.log2 1.0);
  Alcotest.(check (float 1e-9)) "log2 0 clamps" 0.0 (Model.log2 0.0);
  Alcotest.(check (float 1e-9)) "log2 8" 3.0 (Model.log2 8.0);
  Alcotest.(check (float 1e-6)) "scan" 42.0 (Model.scan_cost Model.table2 ~rows:42)

let test_tiny_inputs_nonnegative () =
  List.iter
    (fun alg ->
      List.iter
        (fun rows ->
          let c = gcost alg ~rows ~groups:1 in
          Alcotest.(check bool) "cost >= 0" true (c >= 0.0))
        [ 0; 1; 2 ])
    Grouping.all

(* --- molecule modulation ------------------------------------------------ *)

let test_molecule_multiplier () =
  (* The model prices every molecule row at the row's multiplier. *)
  List.iter
    (fun (m : Dqo_plan.Granule.molecule) ->
      Alcotest.(check (float 0.0)) "row multiplier" m.Dqo_plan.Granule.multiplier
        (Model.molecule_multiplier ~table:m.Dqo_plan.Granule.table
           ~hash:m.Dqo_plan.Granule.hash))
    Dqo_plan.Granule.molecules;
  (match Dqo_plan.Granule.molecules with
  | m :: _ ->
    Alcotest.(check bool) "default first" true
      (m.Dqo_plan.Granule.table = Grouping.Chaining
      && m.Dqo_plan.Granule.hash = Dqo_hash.Hash_fn.Murmur3);
    Alcotest.(check (float 1e-9)) "default is 1" 1.0 m.Dqo_plan.Granule.multiplier
  | [] -> Alcotest.fail "no molecule rows");
  Alcotest.(check bool) "linear probing cheaper" true
    (Model.molecule_multiplier ~table:Grouping.Linear_probing
       ~hash:Dqo_hash.Hash_fn.Murmur3
    < 1.0);
  (* A molecule without a row is priced as the default. *)
  Alcotest.(check (float 0.0)) "identity has no row" 1.0
    (Model.molecule_multiplier ~table:Grouping.Linear_probing
       ~hash:Dqo_hash.Hash_fn.Identity)

let test_deep_model_changes_hash_costs_only () =
  let impl =
    {
      (Physical.default_grouping Grouping.HG) with
      Physical.g_table = Grouping.Linear_probing;
      g_hash = Dqo_hash.Hash_fn.Multiply_shift;
    }
  in
  let plain = Model.grouping_cost Model.table2 ~impl ~rows:1_000 ~groups:10 in
  let deep = Model.grouping_cost Model.deep ~impl ~rows:1_000 ~groups:10 in
  Alcotest.(check (float 1e-6)) "table2 ignores molecules" 4_000.0 plain;
  Alcotest.(check bool) "deep model discounts" true (deep < plain);
  (* Non-hash algorithms are unaffected. *)
  Alcotest.(check (float 1e-6)) "OG unaffected"
    (gcost Grouping.OG ~rows:1_000 ~groups:10)
    (gcost ~model:Model.deep Grouping.OG ~rows:1_000 ~groups:10)

(* --- cardinality --------------------------------------------------------- *)

let test_cardinality_fk_join () =
  (* The paper's §4.3 numbers: FK join output = |S| = 90,000. *)
  Alcotest.(check int) "fk join" 90_000
    (Cardinality.equi_join ~left_rows:25_000 ~right_rows:90_000
       ~left_distinct:25_000 ~right_distinct:24_000);
  Alcotest.(check int) "group by" 20_000 (Cardinality.group_by ~key_distinct:20_000);
  Alcotest.(check int) "filter" 50
    (Cardinality.filter ~rows:100 ~selectivity:0.5);
  Alcotest.(check int) "filter clamps" 100
    (Cardinality.filter ~rows:100 ~selectivity:7.0);
  Alcotest.(check int) "distinct after join" 500
    (Cardinality.distinct_after_join ~side_distinct:20_000 ~output_rows:500)

let test_cardinality_mn_join () =
  (* Containment assumption: |R| * |S| / max(dR, dS). *)
  Alcotest.(check int) "m:n join" 10_000
    (Cardinality.equi_join ~left_rows:1_000 ~right_rows:1_000
       ~left_distinct:100 ~right_distinct:50)

let test_filter_floor () =
  (* A positive selectivity on a non-empty input must never estimate 0
     rows: 1000 * 0.0004 rounds to 0, which used to poison every cost
     above the filter (and made q-error blind to the misestimate). *)
  Alcotest.(check int) "tiny selectivity floors at 1" 1
    (Cardinality.filter ~rows:1_000 ~selectivity:0.0004);
  Alcotest.(check int) "zero selectivity still 0" 0
    (Cardinality.filter ~rows:1_000 ~selectivity:0.0);
  Alcotest.(check int) "empty input still 0" 0
    (Cardinality.filter ~rows:0 ~selectivity:0.5)

(* --- feedback store -------------------------------------------------------- *)

module Feedback = Dqo_cost.Feedback
module Filter = Dqo_exec.Filter

let test_feedback_q_error () =
  Alcotest.(check (float 1e-9)) "exact" 1.0 (Feedback.q_error ~est:10 ~actual:10);
  Alcotest.(check (float 1e-9)) "under" 4.0 (Feedback.q_error ~est:25 ~actual:100);
  Alcotest.(check (float 1e-9)) "over" 4.0 (Feedback.q_error ~est:100 ~actual:25);
  (* est=0 vs actual=n must report the misestimate, not a perfect 1.0 —
     a zero count scores as half a row. *)
  Alcotest.(check (float 1e-9)) "zero est vs 1" 2.0
    (Feedback.q_error ~est:0 ~actual:1);
  Alcotest.(check (float 1e-9)) "zero est vs n" 200.0
    (Feedback.q_error ~est:0 ~actual:100);
  Alcotest.(check (float 1e-9)) "both zero" 1.0
    (Feedback.q_error ~est:0 ~actual:0)

let test_feedback_store () =
  let fb = Feedback.create () in
  let key = Feedback.filter_key ~relation:"S" ~column:"b" (Filter.Le 9) in
  Alcotest.(check (float 1e-9)) "unknown key factor" 1.0 (Feedback.factor fb key);
  Alcotest.(check int) "unknown key passes through" 900
    (Feedback.corrected fb key 900);
  Feedback.observe fb key ~est:900 ~actual:35_100;
  Alcotest.(check (float 1e-6)) "factor = actual/est" 39.0
    (Feedback.factor fb key);
  Alcotest.(check int) "corrected estimate" 35_100 (Feedback.corrected fb key 900);
  (* The corrected estimate observes ratio 1: the factor must not reset
     (latest-wins would oscillate between corrected and uncorrected). *)
  Feedback.observe fb key ~est:35_100 ~actual:35_100;
  Alcotest.(check (float 1e-6)) "converged factor stable" 39.0
    (Feedback.factor fb key);
  (* A residual error composes multiplicatively. *)
  Feedback.observe fb key ~est:35_100 ~actual:17_550;
  Alcotest.(check (float 1e-6)) "residual composes" 19.5 (Feedback.factor fb key);
  Alcotest.(check int) "one key" 1 (Feedback.size fb);
  Alcotest.(check int) "three observations" 3 (Feedback.total_observations fb);
  (match Feedback.entries fb with
  | [ (_, c) ] ->
    Alcotest.(check int) "entry observations" 3 c.Feedback.observations;
    Alcotest.(check (float 1e-6)) "worst q retained" 39.0 c.Feedback.worst_q
  | _ -> Alcotest.fail "expected exactly one entry");
  Feedback.clear fb;
  Alcotest.(check int) "cleared" 0 (Feedback.size fb);
  Alcotest.(check (float 1e-9)) "cleared factor" 1.0 (Feedback.factor fb key)

let test_feedback_keys () =
  (* Join edges are orientation-insensitive. *)
  Alcotest.(check bool) "join key normalised" true
    (Feedback.join_key "id" "r_id" = Feedback.join_key "r_id" "id");
  (* One-sided ranges share a class; Eq / Ne / Between each have their
     own — a correction for [b <= 9] must not leak onto [b = 9]. *)
  let k p = Feedback.filter_key ~relation:"S" ~column:"b" p in
  Alcotest.(check bool) "Lt and Ge share the range class" true
    (k (Filter.Lt 9) = k (Filter.Ge 9));
  Alcotest.(check bool) "Eq distinct from Le" false (k (Filter.Eq 9) = k (Filter.Le 9));
  Alcotest.(check bool) "Ne distinct from Le" false (k (Filter.Ne 9) = k (Filter.Le 9));
  Alcotest.(check bool) "Between distinct from Le" false
    (k (Filter.Between (0, 9)) = k (Filter.Le 9));
  Alcotest.(check bool) "columns distinct" false
    (Feedback.group_key ~relation:"S" ~column:"b"
    = Feedback.group_key ~relation:"S" ~column:"a")

let test_feedback_clamps () =
  let fb = Feedback.create () in
  let key = Feedback.group_key ~relation:"S" ~column:"b" in
  Feedback.observe fb key ~est:1 ~actual:10_000_000;
  Alcotest.(check (float 1e-6)) "factor clamped high" 1000.0
    (Feedback.factor fb key);
  let key2 = Feedback.group_key ~relation:"S" ~column:"c" in
  Feedback.observe fb key2 ~est:10_000_000 ~actual:1;
  Alcotest.(check (float 1e-6)) "factor clamped low" 0.001
    (Feedback.factor fb key2);
  (* Non-positive estimates pass through uncorrected. *)
  Alcotest.(check int) "zero est untouched" 0 (Feedback.corrected fb key 0);
  (* Positive estimates are floored at 1 after scaling down. *)
  Alcotest.(check int) "scaled-down floor" 1 (Feedback.corrected fb key2 100)

(* --- calibration ----------------------------------------------------------- *)

let test_calibration_sane () =
  let ms = Calibrate.measure ~rows:200_000 ~groups:256 () in
  Alcotest.(check int) "five measurements" 5 (List.length ms);
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (m.Calibrate.algorithm ^ " positive")
        true
        (m.Calibrate.per_tuple_ns > 0.0))
    ms;
  let f = Calibrate.hash_factor ~rows:200_000 ~groups:256 () in
  (* The measured HG/OG ratio is machine-dependent but must be a sane
     multiple: HG does strictly more work per tuple than OG. *)
  Alcotest.(check bool) "factor in (1, 100)" true (f > 1.0 && f < 100.0);
  let m = Calibrate.calibrated_model ~rows:200_000 ~groups:256 () in
  Alcotest.(check bool) "model carries factor" true
    (m.Model.hash_factor = f || m.Model.hash_factor > 0.0)

let () =
  Alcotest.run "dqo_cost"
    [
      ( "table2",
        [
          Alcotest.test_case "grouping formulas" `Quick
            test_table2_grouping_formulas;
          Alcotest.test_case "join formulas" `Quick test_table2_join_formulas;
          Alcotest.test_case "sort & log2" `Quick test_sort_and_log2;
          Alcotest.test_case "tiny inputs" `Quick test_tiny_inputs_nonnegative;
        ] );
      ( "molecules",
        [
          Alcotest.test_case "multiplier" `Quick test_molecule_multiplier;
          Alcotest.test_case "deep model" `Quick
            test_deep_model_changes_hash_costs_only;
        ] );
      ( "cardinality",
        [
          Alcotest.test_case "fk join" `Quick test_cardinality_fk_join;
          Alcotest.test_case "m:n join" `Quick test_cardinality_mn_join;
          Alcotest.test_case "filter floor" `Quick test_filter_floor;
        ] );
      ( "feedback",
        [
          Alcotest.test_case "q-error" `Quick test_feedback_q_error;
          Alcotest.test_case "store" `Quick test_feedback_store;
          Alcotest.test_case "keys" `Quick test_feedback_keys;
          Alcotest.test_case "clamps" `Quick test_feedback_clamps;
        ] );
      ( "calibration",
        [ Alcotest.test_case "sane measurements" `Slow test_calibration_sane ]
      );
    ]
