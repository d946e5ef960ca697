(* Optimiser tests: SQO vs DQO dynamic programming, Pareto pruning, and
   the exact reproduction of the paper's Figure 5 improvement factors. *)

module Props = Dqo_plan.Props
module Logical = Dqo_plan.Logical
module Physical = Dqo_plan.Physical
module Catalog = Dqo_opt.Catalog
module Search = Dqo_opt.Search
module Pareto = Dqo_opt.Pareto
module Model = Dqo_cost.Model

let col ~dense ~lo ~hi ~distinct : Props.column = { dense; lo; hi; distinct }

(* The §4.3 catalog: |R| = 25,000 (20,000 distinct R.a), |S| = 90,000,
   FK join output 90,000 — these reproduce Figure 5 exactly under
   Table 2 (see EXPERIMENTS.md). *)
let figure5_catalog ~r_sorted ~s_sorted ~dense =
  let r_props =
    {
      Props.sorted_by = (if r_sorted then Some "id" else None);
      clustered_by = (if r_sorted then Some "id" else None);
      columns =
        [
          ("id", col ~dense ~lo:0 ~hi:24_999 ~distinct:25_000);
          ("a", col ~dense ~lo:0 ~hi:19_999 ~distinct:20_000);
        ];
      co_ordered = [ ("id", "a") ];
    }
  in
  let s_props =
    {
      Props.sorted_by = (if s_sorted then Some "r_id" else None);
      clustered_by = (if s_sorted then Some "r_id" else None);
      columns =
        [
          ("r_id", col ~dense ~lo:0 ~hi:24_999 ~distinct:25_000);
          ("b", col ~dense:false ~lo:0 ~hi:999_999 ~distinct:60_000);
        ];
      co_ordered = [];
    }
  in
  Catalog.create
    [
      Catalog.table ~name:"R" ~rows:25_000 ~props:r_props;
      Catalog.table ~name:"S" ~rows:90_000 ~props:s_props;
    ]

let figure5_query =
  Logical.group_by
    (Logical.join (Logical.scan "R") (Logical.scan "S") ~on:("id", "r_id"))
    ~key:"a"
    [ Logical.count_star () ]

let factor ~r_sorted ~s_sorted ~dense =
  Dqo_opt.Search.improvement_factor
    (figure5_catalog ~r_sorted ~s_sorted ~dense)
    figure5_query

let check_factor ~r_sorted ~s_sorted ~dense expected =
  let f = factor ~r_sorted ~s_sorted ~dense in
  Alcotest.(check (float 0.01))
    (Printf.sprintf "factor r_sorted=%b s_sorted=%b dense=%b" r_sorted
       s_sorted dense)
    expected f

(* --- Figure 5 ------------------------------------------------------ *)

let test_figure5_dense () =
  check_factor ~r_sorted:true ~s_sorted:true ~dense:true 1.0;
  check_factor ~r_sorted:true ~s_sorted:false ~dense:true 4.0;
  (* 2.78x: the paper reports 2.8x. *)
  check_factor ~r_sorted:false ~s_sorted:true ~dense:true 2.7817;
  check_factor ~r_sorted:false ~s_sorted:false ~dense:true 4.0

let test_figure5_sparse () =
  List.iter
    (fun (r_sorted, s_sorted) ->
      check_factor ~r_sorted ~s_sorted ~dense:false 1.0)
    [ (true, true); (true, false); (false, true); (false, false) ]

(* --- plan shapes ---------------------------------------------------- *)

let best mode ~r_sorted ~s_sorted ~dense =
  Search.optimize mode (figure5_catalog ~r_sorted ~s_sorted ~dense) figure5_query

let test_dqo_picks_sph_when_unsorted_dense () =
  let e = best Search.Deep ~r_sorted:false ~s_sorted:false ~dense:true in
  Alcotest.(check bool) "uses SPH" true (Physical.uses_sph e.Pareto.plan);
  Alcotest.(check (float 1.0)) "cost" 205_000.0 e.Pareto.cost

let test_sqo_never_picks_sph () =
  List.iter
    (fun (r_sorted, s_sorted, dense) ->
      let e = best Search.Shallow ~r_sorted ~s_sorted ~dense in
      Alcotest.(check bool)
        "no SPH in shallow plans" false
        (Physical.uses_sph e.Pareto.plan))
    [
      (true, true, true);
      (true, false, true);
      (false, true, true);
      (false, false, true);
      (false, false, false);
    ]

let test_sqo_unsorted_best_is_hash_pipeline () =
  let e = best Search.Shallow ~r_sorted:false ~s_sorted:false ~dense:true in
  let ops = Physical.operators e.Pareto.plan in
  Alcotest.(check bool) "has HJ" true (List.mem "HJ" ops);
  Alcotest.(check bool) "has HG" true (List.mem "HG" ops);
  Alcotest.(check (float 1.0)) "cost 4(|R|+|S|) + 4|J|" 820_000.0 e.Pareto.cost

let test_sqo_mixed_sorts_r_then_merges () =
  let e = best Search.Shallow ~r_sorted:false ~s_sorted:true ~dense:true in
  let ops = Physical.operators e.Pareto.plan in
  Alcotest.(check bool) "has Sort(id)" true (List.mem "Sort(id)" ops);
  Alcotest.(check bool) "has OJ" true (List.mem "OJ" ops);
  Alcotest.(check bool) "has OG" true (List.mem "OG" ops)

let test_both_sorted_plans_are_order_based () =
  let e = best Search.Shallow ~r_sorted:true ~s_sorted:true ~dense:true in
  Alcotest.(check (float 1.0)) "OJ + OG cost" 205_000.0 e.Pareto.cost

(* --- DQO never worse ------------------------------------------------ *)

let test_dqo_never_worse () =
  List.iter
    (fun (r_sorted, s_sorted, dense) ->
      let s = best Search.Shallow ~r_sorted ~s_sorted ~dense in
      let d = best Search.Deep ~r_sorted ~s_sorted ~dense in
      Alcotest.(check bool)
        "dqo cost <= sqo cost" true
        (d.Pareto.cost <= s.Pareto.cost +. 1e-9))
    [
      (true, true, true);
      (true, false, true);
      (false, true, true);
      (false, false, true);
      (true, true, false);
      (false, false, false);
    ]

(* --- catalog measured from real data ------------------------------- *)

let measured_catalog ~r_sorted ~s_sorted ~dense =
  let rng = Dqo_util.Rng.create ~seed:7 in
  let pair =
    Dqo_data.Datagen.fk_pair ~rng ~r_rows:2_500 ~s_rows:9_000 ~r_groups:2_000
      ~r_sorted ~s_sorted ~dense
  in
  ( Catalog.create
      [
        Catalog.of_relation "R" pair.Dqo_data.Datagen.r;
        Catalog.of_relation "S" pair.Dqo_data.Datagen.s;
      ],
    pair )

let test_measured_catalog_properties () =
  let catalog, _ = measured_catalog ~r_sorted:true ~s_sorted:false ~dense:true in
  let r = Catalog.find catalog "R" in
  Alcotest.(check bool) "R sorted by id" true
    (Props.sorted_on r.Catalog.props "id");
  Alcotest.(check bool) "R.id dense" true (Props.dense_on r.Catalog.props "id");
  Alcotest.(check bool) "id co-orders a" true
    (List.mem ("id", "a") r.Catalog.props.Props.co_ordered);
  let s = Catalog.find catalog "S" in
  Alcotest.(check bool) "S unsorted" true
    (s.Catalog.props.Props.sorted_by = None)

let test_measured_improvement_factor () =
  (* Ground-truth statistics reproduce the Figure 5 shape: ~4x when both
     inputs are unsorted and dense, 1x when sparse. *)
  let catalog, _ =
    measured_catalog ~r_sorted:false ~s_sorted:false ~dense:true
  in
  let f = Dqo_opt.Search.improvement_factor catalog figure5_query in
  Alcotest.(check bool) "factor close to 4" true (f > 3.5 && f <= 4.1);
  let sparse_catalog, _ =
    measured_catalog ~r_sorted:false ~s_sorted:false ~dense:false
  in
  let f = Dqo_opt.Search.improvement_factor sparse_catalog figure5_query in
  Alcotest.(check (float 0.001)) "sparse factor 1x" 1.0 f

(* --- Pareto behaviour ----------------------------------------------- *)

let dummy_plan = Physical.Table_scan "T"

let entry cost props = { Pareto.plan = dummy_plan; cost; props; rows = 100 }

let test_pareto_dominance () =
  let unsorted = Props.none in
  let sorted = Props.with_sort Props.none "x" in
  let set = Pareto.add [] (entry 10.0 unsorted) in
  (* A cheaper plan with fewer properties must coexist with a costlier
     sorted one. *)
  let set = Pareto.add set (entry 20.0 sorted) in
  Alcotest.(check int) "both kept" 2 (Pareto.size set);
  (* A sorted plan at cost 10 dominates both. *)
  let set = Pareto.add set (entry 10.0 sorted) in
  Alcotest.(check int) "collapsed" 1 (Pareto.size set);
  let best = Pareto.cheapest set in
  Alcotest.(check bool) "sorted survivor" true (Props.sorted_on best.Pareto.props "x")

let test_pareto_rejects_dominated () =
  let sorted = Props.with_sort Props.none "x" in
  let set = Pareto.add [] (entry 10.0 sorted) in
  let set = Pareto.add set (entry 15.0 sorted) in
  Alcotest.(check int) "dominated entry rejected" 1 (Pareto.size set)

(* Pareto-set invariants: the frontier is what the DP's correctness
   rests on, so pin its three edge behaviours explicitly. *)

let test_pareto_dominated_add_is_noop () =
  let sorted = Props.with_sort Props.none "x" in
  let set = Pareto.add [] (entry 10.0 sorted) in
  let set' = Pareto.add set (entry 99.0 Props.none) in
  Alcotest.(check int) "size unchanged" 1 (Pareto.size set');
  Alcotest.(check (float 1e-9))
    "survivor is the original" 10.0 (Pareto.cheapest set').Pareto.cost

let test_pareto_dominating_add_evicts_all () =
  let sorted = Props.with_sort Props.none "x" in
  let x_col = [ ("x", col ~dense:true ~lo:0 ~hi:9 ~distinct:10) ] in
  let with_col = { Props.none with Props.columns = x_col } in
  (* Three mutually incomparable entries... *)
  let set =
    Pareto.add_all []
      [ entry 10.0 Props.none; entry 20.0 sorted; entry 20.0 with_col ]
  in
  Alcotest.(check int) "incomparable all kept" 3 (Pareto.size set);
  (* ...then one entry that dominates every one of them. *)
  let all_props = { sorted with Props.columns = x_col } in
  let set = Pareto.add set (entry 5.0 all_props) in
  Alcotest.(check int) "all dominated evicted" 1 (Pareto.size set);
  Alcotest.(check (float 1e-9)) "dominator" 5.0 (Pareto.cheapest set).Pareto.cost

let test_pareto_equal_duplicates_dont_accumulate () =
  let sorted = Props.with_sort Props.none "x" in
  let e = entry 10.0 sorted in
  let set = Pareto.add_all [] [ e; e; e ] in
  Alcotest.(check int) "one survivor" 1 (Pareto.size set)

(* --- Ne selectivity regression --------------------------------------- *)

(* [a <> const] used to be estimated at selectivity 1.0 when the
   column's value bounds were unknown (the shallow optimiser's normal
   state, since Props.shallow erases lo/hi) — leaving inequality
   filters free and mis-ranking every plan above them. *)

let test_ne_selectivity_without_bounds () =
  let catalog = figure5_catalog ~r_sorted:false ~s_sorted:false ~dense:true in
  let r = (Catalog.find catalog "R").Catalog.props in
  let blind = Props.shallow r in
  let sel = Search.default_selectivity blind "a" (Dqo_exec.Filter.Ne 7) 25_000 in
  Alcotest.(check bool) "strictly below 1" true (sel < 1.0);
  (* R.a has 20,000 distinct values: <> excludes exactly one of them. *)
  Alcotest.(check (float 1e-9)) "1 - 1/distinct" (1.0 -. (1.0 /. 20_000.0)) sel

let test_ne_filter_reduces_shallow_estimate () =
  let catalog = figure5_catalog ~r_sorted:false ~s_sorted:false ~dense:true in
  let q =
    Logical.project
      (Logical.select (Logical.scan "R") "a" (Dqo_exec.Filter.Ne 7))
      [ "a" ]
  in
  let e = Search.optimize Search.Shallow catalog q in
  Alcotest.(check bool) "fewer rows than the scan" true (e.Pareto.rows < 25_000);
  Alcotest.(check int) "25000 * (1 - 1/20000), rounded" 24_999 e.Pareto.rows

let test_ne_narrows_distinct_for_grouping () =
  (* Downstream effect: grouping above [a <> const] must expect one
     group fewer than the column's distinct count. *)
  let catalog = figure5_catalog ~r_sorted:false ~s_sorted:false ~dense:true in
  let q =
    Logical.group_by
      (Logical.select (Logical.scan "R") "a" (Dqo_exec.Filter.Ne 7))
      ~key:"a"
      [ Logical.count_star () ]
  in
  let e = Search.optimize Search.Deep catalog q in
  Alcotest.(check int) "19999 estimated groups" 19_999 e.Pareto.rows

(* --- range narrowing regression --------------------------------------- *)

(* One-sided ranges ([<] [<=] [>] [>=]) used to leave the column's
   lo/hi/distinct untouched and fall back to a hard-coded 0.33
   selectivity even when the bounds were known — so a range filter
   followed by a grouping (or a join) over-counted distinct values by
   the whole unfiltered domain. *)

let test_range_selectivity_from_bounds () =
  let catalog = figure5_catalog ~r_sorted:false ~s_sorted:false ~dense:true in
  let r = (Catalog.find catalog "R").Catalog.props in
  (* R.a spans [0, 19999]: a <= 4999 keeps exactly a quarter of it. *)
  Alcotest.(check (float 1e-9)) "Le from bounds" 0.25
    (Search.default_selectivity r "a" (Dqo_exec.Filter.Le 4_999) 25_000);
  Alcotest.(check (float 1e-9)) "Lt from bounds" 0.25
    (Search.default_selectivity r "a" (Dqo_exec.Filter.Lt 5_000) 25_000);
  Alcotest.(check (float 1e-9)) "Gt from bounds" 0.25
    (Search.default_selectivity r "a" (Dqo_exec.Filter.Gt 14_999) 25_000);
  Alcotest.(check (float 1e-9)) "Ge from bounds" 0.25
    (Search.default_selectivity r "a" (Dqo_exec.Filter.Ge 15_000) 25_000)

let test_range_narrows_distinct_for_grouping () =
  (* Downstream effect: grouping above a one-sided range must expect
     only the surviving slice of the key domain — 5,000 groups here,
     exactly as an equivalent BETWEEN always did. *)
  let catalog = figure5_catalog ~r_sorted:false ~s_sorted:false ~dense:true in
  let grouped pred =
    Logical.group_by
      (Logical.select (Logical.scan "R") "a" pred)
      ~key:"a"
      [ Logical.count_star () ]
  in
  List.iter
    (fun (name, pred) ->
      let e = Search.optimize Search.Deep catalog (grouped pred) in
      Alcotest.(check int) name 5_000 e.Pareto.rows)
    [
      ("a <= 4999", Dqo_exec.Filter.Le 4_999);
      ("a < 5000", Dqo_exec.Filter.Lt 5_000);
      ("a >= 15000", Dqo_exec.Filter.Ge 15_000);
      ("a > 14999", Dqo_exec.Filter.Gt 14_999);
      ("a between 0 and 4999", Dqo_exec.Filter.Between (0, 4_999));
    ]

(* --- search stats ---------------------------------------------------- *)

let test_deep_searches_more_plans () =
  let catalog = figure5_catalog ~r_sorted:false ~s_sorted:false ~dense:true in
  let _, shallow_stats =
    Search.optimize_entries Search.Shallow catalog figure5_query
  in
  let _, deep_stats =
    Search.optimize_entries Search.Deep catalog figure5_query
  in
  Alcotest.(check bool)
    "deep explores at least as many candidates" true
    (deep_stats.Search.plans_considered
    >= shallow_stats.Search.plans_considered)

let test_trace_is_consistent () =
  let catalog = figure5_catalog ~r_sorted:false ~s_sorted:false ~dense:true in
  let entries, stats =
    Search.optimize_entries Search.Deep catalog figure5_query
  in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 stats.Search.trace in
  Alcotest.(check bool) "trace non-empty" true (stats.Search.trace <> []);
  (* Every DP step shows up: two scans, the three join subsets, and the
     final grouping. *)
  let steps = List.map (fun (s : Search.trace_step) -> s.Search.step)
      stats.Search.trace
  in
  Alcotest.(check bool) "has scan(R)" true (List.mem "scan(R)" steps);
  Alcotest.(check bool) "has subset{R,S}" true (List.mem "subset{R,S}" steps);
  Alcotest.(check bool) "has group_by(a)" true (List.mem "group_by(a)" steps);
  (* Totals are the trace's totals. *)
  Alcotest.(check int) "enforcers add up" stats.Search.enforcers_added
    (sum (fun s -> s.Search.enforcers));
  Alcotest.(check int) "pruned adds up" stats.Search.candidates_pruned
    (sum (fun s -> s.Search.pruned));
  (* Per step, kept = generated + enforcers - pruned. *)
  List.iter
    (fun (s : Search.trace_step) ->
      Alcotest.(check int)
        (Printf.sprintf "balance at %s" s.Search.step)
        (s.Search.generated + s.Search.enforcers - s.Search.pruned)
        s.Search.kept)
    stats.Search.trace;
  (* The last step is the root: its kept equals pareto_kept. *)
  (match List.rev stats.Search.trace with
  | last :: _ ->
    Alcotest.(check int) "root kept" (List.length entries) last.Search.kept
  | [] -> Alcotest.fail "empty trace")

let test_molecule_model_expands_space () =
  let catalog = figure5_catalog ~r_sorted:false ~s_sorted:false ~dense:true in
  let _, plain =
    Search.optimize_entries ~model:Model.table2 Search.Deep catalog
      figure5_query
  in
  let _, molecules =
    Search.optimize_entries ~model:Model.deep Search.Deep catalog
      figure5_query
  in
  Alcotest.(check bool)
    "molecule-aware model explores more" true
    (molecules.Search.plans_considered > plain.Search.plans_considered)

(* --- three-way join DP ----------------------------------------------- *)

let test_three_way_join () =
  let mk name rows cols =
    Catalog.table ~name ~rows
      ~props:
        {
          Props.sorted_by = None;
          clustered_by = None;
          columns = cols;
          co_ordered = [];
        }
  in
  let catalog =
    Catalog.create
      [
        mk "A" 1_000 [ ("a_id", col ~dense:true ~lo:0 ~hi:999 ~distinct:1_000) ];
        mk "B" 5_000
          [
            ("b_a", col ~dense:true ~lo:0 ~hi:999 ~distinct:1_000);
            ("b_c", col ~dense:true ~lo:0 ~hi:499 ~distinct:500);
          ];
        mk "C" 500 [ ("c_id", col ~dense:true ~lo:0 ~hi:499 ~distinct:500) ];
      ]
  in
  let q =
    Logical.join
      (Logical.join (Logical.scan "A") (Logical.scan "B") ~on:("a_id", "b_a"))
      (Logical.scan "C") ~on:("b_c", "c_id")
  in
  let deep = Search.optimize Search.Deep catalog q in
  let shallow = Search.optimize Search.Shallow catalog q in
  Alcotest.(check bool) "deep <= shallow" true
    (deep.Pareto.cost <= shallow.Pareto.cost);
  Alcotest.(check bool) "deep uses SPH joins" true
    (Physical.uses_sph deep.Pareto.plan);
  (* Output cardinality: FK-ish chain, 5000 rows expected. *)
  Alcotest.(check int) "rows" 5_000 deep.Pareto.rows

let test_disconnected_join_rejected () =
  let mk name rows cols =
    Catalog.table ~name ~rows
      ~props:
        {
          Props.sorted_by = None;
          clustered_by = None;
          columns = cols;
          co_ordered = [];
        }
  in
  let catalog =
    Catalog.create
      [
        mk "A" 10 [ ("x", col ~dense:true ~lo:0 ~hi:9 ~distinct:10) ];
        mk "B" 10 [ ("y", col ~dense:true ~lo:0 ~hi:9 ~distinct:10) ];
      ]
  in
  (* Predicate references a column neither side provides. *)
  let q = Logical.join (Logical.scan "A") (Logical.scan "B") ~on:("x", "zzz") in
  Alcotest.check_raises "disconnected join"
    (Invalid_argument "Search: join graph is disconnected (cross product needed)")
    (fun () -> ignore (Search.optimize Search.Deep catalog q))

(* --- cost-model sensitivity ------------------------------------------ *)

let test_factor_scales_with_hash_constant () =
  (* In the both-unsorted dense cell, SQO's plan is all hash-based and
     DQO's all SPH-based, so the improvement factor equals the hash
     constant itself: recalibrating Table 2's "4" (cf. Calibrate)
     rescales Figure 5 accordingly. *)
  let catalog = figure5_catalog ~r_sorted:false ~s_sorted:false ~dense:true in
  List.iter
    (fun f ->
      let model = Model.with_hash_factor f in
      Alcotest.(check (float 0.01))
        (Printf.sprintf "factor = hash constant %.1f" f)
        f
        (Dqo_opt.Search.improvement_factor ~model catalog figure5_query))
    [ 2.0; 4.0; 8.0 ];
  (* Beyond ~10 the shallow optimiser abandons hashing for
     sort-both-inputs + merge + ordered grouping, so the factor
     saturates at that plan's cost ratio instead of growing further. *)
  let saturation =
    let c r = Model.log2 (Float.of_int r) *. Float.of_int r in
    (c 25_000 +. c 90_000 +. 115_000.0 +. 90_000.0) /. 205_000.0
  in
  let model = Model.with_hash_factor 20.0 in
  Alcotest.(check (float 0.01))
    "factor saturates at the sort-based plan" saturation
    (Dqo_opt.Search.improvement_factor ~model catalog figure5_query)

let test_filter_estimate_feeds_grouping () =
  (* WHERE a = const collapses the estimated group count to 1; the DP's
     grouping costs must follow (BSG's log2 #groups term vanishes). *)
  let catalog = figure5_catalog ~r_sorted:false ~s_sorted:false ~dense:true in
  let q =
    Logical.group_by
      (Logical.select (Logical.scan "R") "a" (Dqo_exec.Filter.Eq 7))
      ~key:"a"
      [ Logical.count_star () ]
  in
  let e = Search.optimize Search.Deep catalog q in
  Alcotest.(check int) "one estimated group" 1 e.Pareto.rows

let test_enforcer_only_on_interesting_columns () =
  (* The sort enforcer must never appear on a column the query cannot
     exploit (here: b). *)
  let catalog = figure5_catalog ~r_sorted:false ~s_sorted:false ~dense:true in
  let entries, _ = Search.optimize_entries Search.Deep catalog figure5_query in
  List.iter
    (fun (e : Pareto.entry) ->
      List.iter
        (fun op ->
          Alcotest.(check bool) "no Sort(b)" false (String.equal op "Sort(b)"))
        (Physical.operators e.Pareto.plan))
    entries

(* --- explain --------------------------------------------------------- *)

let test_explain_mentions_factor () =
  let catalog = figure5_catalog ~r_sorted:false ~s_sorted:false ~dense:true in
  let report = Dqo_opt.Explain.comparison catalog figure5_query in
  Alcotest.(check bool) "mentions improvement" true
    (Astring.String.is_infix ~affix:"4.00x" report
    || Astring.String.is_infix ~affix:"improvement" report)

(* --- parallel DP search ----------------------------------------------- *)

module Pool = Dqo_par.Pool
module Rng = Dqo_util.Rng

(* Tree-shaped join cases over [relations] relations: a left-deep chain
   T0 - T1 - ... - T{k-1}, or a star around the hub T0.  Row counts,
   sortedness, and column shapes are drawn deterministically from
   [seed], so every (seed, relations, star) triple names one
   reproducible join graph.  Column names are globally unique
   (t<i>_<suffix>) as the binder requires. *)
let synthetic_case ~seed ~relations ~star =
  let rng = Rng.create ~seed:((seed * 8191) + (relations * 13) + Bool.to_int star) in
  let mk_col () =
    let d = 500 + Rng.int rng 4_500 in
    col ~dense:(Rng.bool rng) ~lo:0 ~hi:(d - 1) ~distinct:d
  in
  let table i cols =
    let rows = 2_000 + Rng.int rng 48_000 in
    let sorted = Rng.bool rng in
    let first = fst (List.hd cols) in
    let props =
      {
        Props.sorted_by = (if sorted then Some first else None);
        clustered_by = (if sorted then Some first else None);
        columns = cols;
        co_ordered = [];
      }
    in
    Catalog.table ~name:(Printf.sprintf "T%d" i) ~rows ~props
  in
  let name i suffix = Printf.sprintf "t%d_%s" i suffix in
  let join_all joins =
    List.fold_left
      (fun acc (j, on) -> Logical.join acc (Logical.scan (Printf.sprintf "T%d" j)) ~on)
      (Logical.scan "T0") joins
  in
  let tables, joined =
    if star then begin
      let fks = List.init (relations - 1) (fun j -> (name 0 (Printf.sprintf "f%d" (j + 1)), mk_col ())) in
      let hub = table 0 ((name 0 "g", mk_col ()) :: fks) in
      let sats =
        List.init (relations - 1) (fun j -> table (j + 1) [ (name (j + 1) "k", mk_col ()) ])
      in
      let joins =
        List.init (relations - 1) (fun j ->
            (j + 1, (name 0 (Printf.sprintf "f%d" (j + 1)), name (j + 1) "k")))
      in
      (hub :: sats, join_all joins)
    end
    else begin
      let cols_of i =
        let own = if i = 0 then [ (name 0 "g", mk_col ()) ] else [ (name i "l", mk_col ()) ] in
        if i < relations - 1 then own @ [ (name i "r", mk_col ()) ] else own
      in
      let tables = List.init relations (fun i -> table i (cols_of i)) in
      let joins =
        List.init (relations - 1) (fun i ->
            (i + 1, (name i "r", name (i + 1) "l")))
      in
      (tables, join_all joins)
    end
  in
  let query = Logical.group_by joined ~key:(name 0 "g") [ Logical.count_star () ] in
  (Catalog.create tables, query)

(* Everything the search returns except wall-clock times, flattened to
   one string: chosen plan, full frontier costs, all counters, the
   complete trace, and the per-level DP breakdown.  Two runs are
   equivalent iff their fingerprints are equal. *)
let fingerprint (entries, (stats : Search.stats)) =
  let best = Pareto.cheapest entries in
  let b = Buffer.create 512 in
  Buffer.add_string b (Format.asprintf "%a" Physical.pp best.Pareto.plan);
  Buffer.add_string b
    (Printf.sprintf "|cost=%.3f|rows=%d|frontier=%d" best.Pareto.cost
       best.Pareto.rows (List.length entries));
  List.iter
    (fun (e : Pareto.entry) -> Buffer.add_string b (Printf.sprintf ";%.3f" e.Pareto.cost))
    entries;
  Buffer.add_string b
    (Printf.sprintf "|considered=%d|kept=%d|enforced=%d|pruned=%d"
       stats.Search.plans_considered stats.Search.pareto_kept
       stats.Search.enforcers_added stats.Search.candidates_pruned);
  List.iter
    (fun (t : Search.trace_step) ->
      Buffer.add_string b
        (Printf.sprintf "|%s:%d:%d:%d:%d" t.Search.step t.Search.generated
           t.Search.enforcers t.Search.kept t.Search.pruned))
    stats.Search.trace;
  List.iter
    (fun (lv : Search.level_stat) ->
      Buffer.add_string b
        (Printf.sprintf "|L%d:%d:%d:%d" lv.Search.level lv.Search.subproblems
           lv.Search.level_generated lv.Search.level_kept))
    stats.Search.levels;
  Buffer.contents b

(* The core determinism contract: for every shape, size, and seed, the
   pooled search is byte-identical to the sequential one at any pool
   size — same chosen plan, same frontier, same counters, same trace. *)
let test_parallel_matches_sequential () =
  List.iter
    (fun star ->
      List.iter
        (fun relations ->
          List.iter
            (fun seed ->
              let catalog, query = synthetic_case ~seed ~relations ~star in
              let base =
                fingerprint (Search.optimize_entries Search.Deep catalog query)
              in
              List.iter
                (fun domains ->
                  Pool.with_pool ~domains (fun pool ->
                      let fp =
                        fingerprint
                          (Search.optimize_entries ~pool Search.Deep catalog
                             query)
                      in
                      Alcotest.(check string)
                        (Printf.sprintf
                           "star=%b relations=%d seed=%d domains=%d" star
                           relations seed domains)
                        base fp))
                [ 1; 2; 4; 8 ])
            [ 1; 2; 3 ])
        [ 2; 3; 4; 5; 6 ])
    [ false; true ]

(* Shallow mode shares join_dp, and improvement_factor runs both
   searches; neither may depend on the pool size either. *)
let test_parallel_shallow_and_factor () =
  let catalog, query = synthetic_case ~seed:5 ~relations:5 ~star:true in
  let shallow = fingerprint (Search.optimize_entries Search.Shallow catalog query) in
  let f = Search.improvement_factor catalog query in
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          Alcotest.(check string)
            (Printf.sprintf "shallow domains=%d" domains)
            shallow
            (fingerprint (Search.optimize_entries ~pool Search.Shallow catalog query));
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "factor domains=%d" domains)
            f
            (Search.improvement_factor ~pool catalog query)))
    [ 2; 3; 8 ]

(* Under the molecule-level model the frontier is larger and the DP does
   real work per level; sweep every pool size 1..8 and also require the
   merged [opt.dp.*] metrics to match the sequential registries. *)
let test_parallel_domain_sweep_deep_model () =
  let catalog, query = synthetic_case ~seed:7 ~relations:6 ~star:true in
  let counters m =
    List.map
      (fun c -> (c, Dqo_obs.Metrics.counter m c))
      [ "opt.dp.subproblems"; "opt.dp.candidates_generated"; "opt.dp.pareto_kept" ]
  in
  let m0 = Dqo_obs.Metrics.create () in
  let base =
    fingerprint
      (Search.optimize_entries ~model:Model.deep ~metrics:m0 Search.Deep catalog
         query)
  in
  let base_counters = counters m0 in
  Alcotest.(check bool) "sequential run recorded dp counters" true
    (List.for_all (fun (_, v) -> v > 0) base_counters);
  for domains = 1 to 8 do
    Pool.with_pool ~domains (fun pool ->
        let m = Dqo_obs.Metrics.create () in
        let fp =
          fingerprint
            (Search.optimize_entries ~model:Model.deep ~pool ~metrics:m
               Search.Deep catalog query)
        in
        Alcotest.(check string) (Printf.sprintf "deep model domains=%d" domains)
          base fp;
        Alcotest.(check (list (pair string int)))
          (Printf.sprintf "dp metrics domains=%d" domains)
          base_counters (counters m))
  done

(* One pool shared by concurrent submitters (the serving shape): each
   client thread optimises its own query on the same pool; every result
   must equal that client's sequential baseline. *)
let test_parallel_shared_pool_concurrent () =
  let cases =
    List.map
      (fun seed -> synthetic_case ~seed ~relations:4 ~star:(seed mod 2 = 0))
      [ 11; 12; 13; 14 ]
  in
  let expected =
    List.map
      (fun (c, q) -> fingerprint (Search.optimize_entries Search.Deep c q))
      cases
  in
  Pool.with_pool ~domains:4 (fun pool ->
      let results = Array.make (List.length cases) "" in
      let threads =
        List.mapi
          (fun i (c, q) ->
            Thread.create
              (fun () ->
                results.(i) <-
                  fingerprint (Search.optimize_entries ~pool Search.Deep c q))
              ())
          cases
      in
      List.iter Thread.join threads;
      List.iteri
        (fun i e ->
          Alcotest.(check string)
            (Printf.sprintf "concurrent submitter %d" i)
            e results.(i))
        expected)

(* The determinism contract survives cardinality feedback: the store is
   read-only during a search, so planning with a corrections-loaded
   store is byte-identical between the sequential and pooled paths —
   and the corrections really do move the estimates. *)
let test_parallel_matches_sequential_with_feedback () =
  let module Feedback = Dqo_cost.Feedback in
  let catalog = figure5_catalog ~r_sorted:false ~s_sorted:false ~dense:true in
  let fb = Feedback.create () in
  Feedback.observe fb
    (Feedback.join_key "id" "r_id")
    ~est:90_000 ~actual:45_000;
  Feedback.observe fb
    (Feedback.group_key ~relation:"R" ~column:"a")
    ~est:20_000 ~actual:10_000;
  let corrected =
    fingerprint
      (Search.optimize_entries ~feedback:fb Search.Deep catalog figure5_query)
  in
  let uncorrected =
    fingerprint (Search.optimize_entries Search.Deep catalog figure5_query)
  in
  Alcotest.(check bool) "corrections move the estimates" true
    (corrected <> uncorrected);
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          Alcotest.(check string)
            (Printf.sprintf "feedback search, domains=%d" domains)
            corrected
            (fingerprint
               (Search.optimize_entries ~pool ~feedback:fb Search.Deep catalog
                  figure5_query))))
    [ 2; 4 ]

(* End to end through the serving front end: a statement prepared on a
   live server (whose replans and prepares plan on the shared serve
   pool) carries exactly the plan and cost the sequential engine
   chooses. *)
let test_parallel_serve_pool_prepare () =
  let module Engine = Dqo_engine.Engine in
  let module Server = Dqo_serve.Server in
  let module Datagen = Dqo_data.Datagen in
  let sql = "SELECT a, COUNT(*) AS c FROM R JOIN S ON id = r_id GROUP BY a" in
  let mk_db () =
    let rng = Rng.create ~seed:3 in
    let pair =
      Datagen.fk_pair ~rng ~r_rows:2_500 ~s_rows:9_000 ~r_groups:2_000
        ~r_sorted:false ~s_sorted:false ~dense:true
    in
    let db = Engine.create () in
    Engine.register db ~name:"R" pair.Datagen.r;
    Engine.register db ~name:"S" pair.Datagen.s;
    db
  in
  let entry_fp (e : Pareto.entry) =
    Printf.sprintf "%s|%.3f"
      (Format.asprintf "%a" Physical.pp e.Pareto.plan)
      e.Pareto.cost
  in
  let sequential = entry_fp (Engine.plan_sql (mk_db ()) Engine.DQO sql) in
  let db = mk_db () in
  Engine.set_opts db
    { Engine.default_opts with Engine.mode = Engine.DQO; threads = 2 };
  let srv = Server.create ~threads:2 db in
  Fun.protect
    ~finally:(fun () -> Server.shutdown srv)
    (fun () ->
      Alcotest.(check int) "server runs a 2-domain pool" 2 (Server.pool_size srv);
      let s = Server.open_session srv in
      let stmt = Server.prepare s sql in
      ignore (Server.execute s stmt);
      Server.close_session s;
      (* The cached statement was planned on the serve pool. *)
      Alcotest.(check string) "serve-pool plan = sequential plan" sequential
        (entry_fp (Engine.prepared_entry (Server.stmt_prepared stmt))))

(* --- hierarchical planning ------------------------------------------ *)

module Hier = Dqo_opt.Hier

(* A chain T0 ⋈ T1 ⋈ … ⋈ T(n-1) joined on T(i).t{i}_f = T(i+1).t{i+1}_k,
   alternate relations pre-sorted so order properties matter. *)
let chain_catalog n =
  let table i =
    let k = Printf.sprintf "t%d_k" i and f = Printf.sprintf "t%d_f" i in
    let sorted = i mod 2 = 0 in
    let props =
      {
        Props.sorted_by = (if sorted then Some k else None);
        clustered_by = (if sorted then Some k else None);
        columns =
          [
            (k, col ~dense:true ~lo:0 ~hi:999 ~distinct:1_000);
            (f, col ~dense:false ~lo:0 ~hi:999 ~distinct:800);
          ];
        co_ordered = [];
      }
    in
    Catalog.table ~name:(Printf.sprintf "T%d" i) ~rows:(1_000 + (137 * i))
      ~props
  in
  Catalog.create (List.init n table)

let chain_query n =
  let q = ref (Logical.scan "T0") in
  for i = 1 to n - 1 do
    q :=
      Logical.join !q
        (Logical.scan (Printf.sprintf "T%d" i))
        ~on:(Printf.sprintf "t%d_f" (i - 1), Printf.sprintf "t%d_k" i)
  done;
  Logical.group_by !q ~key:"t0_k" [ Logical.count_star () ]

let entry_fingerprint (e : Pareto.entry) =
  Printf.sprintf "%s|%.6f"
    (Format.asprintf "%a" Physical.pp e.Pareto.plan)
    e.Pareto.cost

let cheapest entries =
  List.fold_left
    (fun acc (e : Pareto.entry) ->
      match acc with
      | Some (b : Pareto.entry) when b.Pareto.cost <= e.Pareto.cost -> acc
      | _ -> Some e)
    None entries
  |> Option.get

let test_hier_partition_graph () =
  let chain n = List.init (n - 1) (fun i -> (i, i + 1)) in
  Alcotest.(check (list (list int)))
    "chain of 6, max 3"
    [ [ 0; 1; 2 ]; [ 3; 4; 5 ] ]
    (Hier.partition_graph ~n:6 ~edges:(chain 6) ~max_size:3);
  Alcotest.(check (list (list int)))
    "max covering all -> one partition"
    [ [ 0; 1; 2; 3 ] ]
    (Hier.partition_graph ~n:4 ~edges:(chain 4) ~max_size:10);
  Alcotest.(check (list (list int)))
    "no edges -> singletons"
    [ [ 0 ]; [ 1 ]; [ 2 ] ]
    (Hier.partition_graph ~n:3 ~edges:[] ~max_size:4);
  (* Star: the hub fills its partition first, stranding the remaining
     spokes as (connected) singletons. *)
  Alcotest.(check (list (list int)))
    "star, max 3"
    [ [ 0; 1; 2 ]; [ 3 ]; [ 4 ] ]
    (Hier.partition_graph ~n:5
       ~edges:[ (0, 1); (0, 2); (0, 3); (0, 4) ]
       ~max_size:3);
  Alcotest.check_raises "max_size < 1 rejected"
    (Invalid_argument "Hier.partition_graph: max_size < 1") (fun () ->
      ignore (Hier.partition_graph ~n:2 ~edges:[ (0, 1) ] ~max_size:0))

let test_hier_single_partition_identical () =
  let cat = chain_catalog 6 and q = chain_query 6 in
  let exhaustive, _ = Search.optimize_entries Search.Deep cat q in
  let hier, _, report =
    Hier.optimize_entries ~partition_max:16 Search.Deep cat q
  in
  Alcotest.(check int) "one partition" 1 (List.length report.Hier.partitions);
  Alcotest.(check int) "six leaves" 6 report.Hier.leaves;
  Alcotest.(check (list string))
    "frontier byte-identical to exhaustive DP"
    (List.map entry_fingerprint exhaustive)
    (List.map entry_fingerprint hier)

let test_hier_multi_partition_cost () =
  let cat = chain_catalog 9 and q = chain_query 9 in
  let exhaustive, _ = Search.optimize_entries Search.Deep cat q in
  let hier, _, report =
    Hier.optimize_entries ~partition_max:3 Search.Deep cat q
  in
  Alcotest.(check int) "three partitions" 3
    (List.length report.Hier.partitions);
  Alcotest.(check int) "two cut predicates" 2 report.Hier.cut_predicates;
  List.iter
    (fun (p : Hier.partition_info) ->
      Alcotest.(check int) "3 leaves per partition" 3 p.Hier.leaf_count;
      Alcotest.(check int) "2 internal predicates" 2 p.Hier.internal_predicates)
    report.Hier.partitions;
  let ratio = (cheapest hier).Pareto.cost /. (cheapest exhaustive).Pareto.cost in
  Alcotest.(check bool)
    (Printf.sprintf "cost ratio %.3f within 1.1x of exhaustive" ratio)
    true
    (ratio <= 1.1 && ratio >= 1.0 -. 1e-9)

let test_hier_pooled_identical () =
  let cat = chain_catalog 8 and q = chain_query 8 in
  let sequential, _, _ =
    Hier.optimize_entries ~partition_max:3 Search.Deep cat q
  in
  let expected = List.map entry_fingerprint sequential in
  List.iter
    (fun domains ->
      Dqo_par.Pool.with_pool ~domains (fun pool ->
          let pooled, _, _ =
            Hier.optimize_entries ~pool ~partition_max:3 Search.Deep cat q
          in
          Alcotest.(check (list string))
            (Printf.sprintf "pool of %d matches sequential hier" domains)
            expected
            (List.map entry_fingerprint pooled)))
    [ 2; 4 ]

let test_hier_70_relation_chain () =
  let n = 70 in
  let cat = chain_catalog n and q = chain_query n in
  let entries, _, report =
    Hier.optimize_entries ~partition_max:12 Search.Deep cat q
  in
  Alcotest.(check int) "70 leaves" n report.Hier.leaves;
  Alcotest.(check int) "six partitions" 6 (List.length report.Hier.partitions);
  Alcotest.(check int) "69 predicates partitioned" 69
    (report.Hier.cut_predicates
    + List.fold_left
        (fun acc (p : Hier.partition_info) -> acc + p.Hier.internal_predicates)
        0 report.Hier.partitions);
  Alcotest.(check bool) "non-empty frontier" true (entries <> []);
  Alcotest.(check bool)
    "finite positive cost" true
    (let c = (cheapest entries).Pareto.cost in
     Float.is_finite c && c > 0.0)

let () =
  Alcotest.run "dqo_opt"
    [
      ( "figure5",
        [
          Alcotest.test_case "dense factors" `Quick test_figure5_dense;
          Alcotest.test_case "sparse factors" `Quick test_figure5_sparse;
        ] );
      ( "plan-shape",
        [
          Alcotest.test_case "dqo picks SPH" `Quick
            test_dqo_picks_sph_when_unsorted_dense;
          Alcotest.test_case "sqo never picks SPH" `Quick
            test_sqo_never_picks_sph;
          Alcotest.test_case "sqo hash pipeline" `Quick
            test_sqo_unsorted_best_is_hash_pipeline;
          Alcotest.test_case "sqo sorts R then merges" `Quick
            test_sqo_mixed_sorts_r_then_merges;
          Alcotest.test_case "both sorted: order-based" `Quick
            test_both_sorted_plans_are_order_based;
          Alcotest.test_case "dqo never worse" `Quick test_dqo_never_worse;
        ] );
      ( "measured",
        [
          Alcotest.test_case "catalog from data" `Quick
            test_measured_catalog_properties;
          Alcotest.test_case "measured factors" `Quick
            test_measured_improvement_factor;
        ] );
      ( "pareto",
        [
          Alcotest.test_case "dominance" `Quick test_pareto_dominance;
          Alcotest.test_case "rejects dominated" `Quick
            test_pareto_rejects_dominated;
          Alcotest.test_case "dominated add is no-op" `Quick
            test_pareto_dominated_add_is_noop;
          Alcotest.test_case "dominating add evicts all" `Quick
            test_pareto_dominating_add_evicts_all;
          Alcotest.test_case "duplicates don't accumulate" `Quick
            test_pareto_equal_duplicates_dont_accumulate;
        ] );
      ( "selectivity",
        [
          Alcotest.test_case "Ne without bounds < 1" `Quick
            test_ne_selectivity_without_bounds;
          Alcotest.test_case "Ne reduces shallow estimate" `Quick
            test_ne_filter_reduces_shallow_estimate;
          Alcotest.test_case "Ne narrows grouping estimate" `Quick
            test_ne_narrows_distinct_for_grouping;
          Alcotest.test_case "ranges use known bounds" `Quick
            test_range_selectivity_from_bounds;
          Alcotest.test_case "ranges narrow grouping estimate" `Quick
            test_range_narrows_distinct_for_grouping;
        ] );
      ( "search",
        [
          Alcotest.test_case "deep explores more" `Quick
            test_deep_searches_more_plans;
          Alcotest.test_case "trace is consistent" `Quick
            test_trace_is_consistent;
          Alcotest.test_case "molecules expand space" `Quick
            test_molecule_model_expands_space;
          Alcotest.test_case "three-way join" `Quick test_three_way_join;
          Alcotest.test_case "disconnected join" `Quick
            test_disconnected_join_rejected;
          Alcotest.test_case "factor scales with hash constant" `Quick
            test_factor_scales_with_hash_constant;
          Alcotest.test_case "filter feeds grouping estimate" `Quick
            test_filter_estimate_feeds_grouping;
          Alcotest.test_case "enforcers only where interesting" `Quick
            test_enforcer_only_on_interesting_columns;
          Alcotest.test_case "explain" `Quick test_explain_mentions_factor;
        ] );
      ( "hier",
        [
          Alcotest.test_case "partition graph" `Quick test_hier_partition_graph;
          Alcotest.test_case "single partition is exhaustive" `Quick
            test_hier_single_partition_identical;
          Alcotest.test_case "multi-partition cost" `Quick
            test_hier_multi_partition_cost;
          Alcotest.test_case "pooled matches sequential" `Quick
            test_hier_pooled_identical;
          Alcotest.test_case "70-relation chain" `Quick
            test_hier_70_relation_chain;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "pool matches sequential" `Quick
            test_parallel_matches_sequential;
          Alcotest.test_case "shallow and factor" `Quick
            test_parallel_shallow_and_factor;
          Alcotest.test_case "1..8 domain sweep, deep model" `Quick
            test_parallel_domain_sweep_deep_model;
          Alcotest.test_case "shared pool, concurrent submitters" `Quick
            test_parallel_shared_pool_concurrent;
          Alcotest.test_case "pool matches sequential with feedback" `Quick
            test_parallel_matches_sequential_with_feedback;
          Alcotest.test_case "serve-pool prepare" `Quick
            test_parallel_serve_pool_prepare;
        ] );
    ]
