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

(* The DP enumerates exactly the component table: a grouping step
   generates [Granule.count] candidates per input entry, a join subset
   per ordered pair of input entries, under the requirements the mode's
   property vector grants (shallow erases density) and the cut
   [Search.max_level].  [~interesting:[]] keeps sort enforcers out, so
   every input entry carries the catalog's properties. *)
let test_dp_enumerates_component_table () =
  let module Granule = Dqo_plan.Granule in
  (* Sorted, clustered and dense on [c] when [holds]; [c] unrecorded
     unless [known]. *)
  let props ~holds ~known c =
    {
      Props.sorted_by = (if holds then Some c else None);
      clustered_by = (if holds then Some c else None);
      columns =
        (if known then [ (c, col ~dense:holds ~lo:0 ~hi:999 ~distinct:1_000) ]
         else []);
      co_ordered = [];
    }
  in
  let trace ~model mode tables query =
    let catalog =
      Catalog.create
        (List.map
           (fun (name, props) -> Catalog.table ~name ~rows:1_000 ~props)
           tables)
    in
    let _, stats =
      Search.optimize_entries ~model ~interesting:[] mode catalog query
    in
    fun name ->
      List.find
        (fun (s : Search.trace_step) -> s.Search.step = name)
        stats.Search.trace
  in
  let grouping =
    Logical.group_by (Logical.scan "T") ~key:"k" [ Logical.count_star () ]
  in
  let join =
    Logical.join (Logical.scan "R") (Logical.scan "S") ~on:("id", "r_id")
  in
  List.iter
    (fun (mode, model, name, expected) ->
      let max_level = Search.max_level mode model in
      let count available cell = Granule.count ~available ~max_level cell in
      let all =
        List.filter
          (fun r -> mode = Search.Deep || r <> Granule.Requires_dense)
          Granule.all_requirements
      in
      Alcotest.(check (list int))
        (name ^ ": searched space") [ expected; expected ]
        [ count all Granule.grouping; count all Granule.join ];
      (* Grouping: nothing holds on a key the catalog does not record. *)
      List.iter
        (fun (holds, available) ->
          let step =
            trace ~model mode [ ("T", props ~holds ~known:holds "k") ] grouping
          in
          Alcotest.(check int)
            (Printf.sprintf "%s: grouping, holds=%b" name holds)
            ((step "scan(T)").Search.kept * count available Granule.grouping)
            (step "group_by(k)").Search.generated)
        [ (true, all); (false, []) ];
      (* Join: a predicate resolves only against a recorded column, so a
         known key universe always holds on the left one. *)
      List.iter
        (fun (holds, available) ->
          let step =
            trace ~model mode
              [ ("R", props ~holds ~known:true "id");
                ("S", props ~holds ~known:true "r_id") ]
              join
          in
          let pairs = 2 * (step "scan(R)").Search.kept * (step "scan(S)").Search.kept in
          Alcotest.(check int)
            (Printf.sprintf "%s: join, holds=%b" name holds)
            (pairs * count available Granule.join)
            (step "subset{R,S}").Search.generated)
        [ (true, all); (false, [ Granule.Requires_known_universe ]) ])
    [
      (Search.Shallow, Model.table2, "shallow x table2", 4);
      (Search.Shallow, Model.deep, "shallow x deep", 4);
      (Search.Deep, Model.table2, "deep x table2", 5);
      (Search.Deep, Model.deep, "deep x deep", 13);
    ]

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

(* A star join around a hub: the hub connects to every satellite, so
   every relation subset containing the hub is connected (2^(k-1) live
   DP subproblems).  Satellites alternate sortedness so interesting
   orders differ per leaf and the Pareto frontiers stay plural. *)
let hub_star_case ~relations =
  let hub_props =
    {
      Props.sorted_by = Some "hub_k";
      clustered_by = Some "hub_k";
      columns =
        ("hub_k", col ~dense:true ~lo:0 ~hi:9_999 ~distinct:10_000)
        :: List.init (relations - 1) (fun i ->
               ( Printf.sprintf "hub_f%d" (i + 1),
                 col ~dense:true ~lo:0 ~hi:9_999 ~distinct:10_000 ));
      co_ordered = [];
    }
  in
  let sat_props i =
    let name = Printf.sprintf "sat%d_k" i in
    {
      Props.sorted_by = (if i mod 2 = 0 then Some name else None);
      clustered_by = (if i mod 2 = 0 then Some name else None);
      columns = [ (name, col ~dense:true ~lo:0 ~hi:9_999 ~distinct:10_000) ];
      co_ordered = [];
    }
  in
  let catalog =
    Catalog.create
      (Catalog.table ~name:"Hub" ~rows:10_000 ~props:hub_props
      :: List.init (relations - 1) (fun i ->
             Catalog.table
               ~name:(Printf.sprintf "Sat%d" (i + 1))
               ~rows:(20_000 + (10_000 * i))
               ~props:(sat_props (i + 1))))
  in
  let rec build acc i =
    if i >= relations then acc
    else
      build
        (Logical.join acc
           (Logical.scan (Printf.sprintf "Sat%d" i))
           ~on:(Printf.sprintf "hub_f%d" i, Printf.sprintf "sat%d_k" i))
        (i + 1)
  in
  ( catalog,
    Logical.group_by (build (Logical.scan "Hub") 1) ~key:"hub_k"
      [ Logical.count_star () ] )

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

let domain_sweep_deep_model ~label catalog query =
  let counters m =
    List.map
      (fun c -> (c, Dqo_obs.Metrics.counter m c))
      [
        "opt.dp.subproblems";
        "opt.dp.candidates_generated";
        "opt.dp.candidates_built";
        "opt.dp.pareto_kept";
      ]
  in
  let m0 = Dqo_obs.Metrics.create () in
  let ((_, base_stats) as base_result) =
    Search.optimize_entries ~model:Model.deep ~metrics:m0 Search.Deep catalog
      query
  in
  let base = fingerprint base_result in
  let base_counters = counters m0 in
  Alcotest.(check bool) (label ^ ": sequential run recorded dp counters") true
    (List.for_all (fun (_, v) -> v > 0) base_counters);
  (* The DP skips candidates it proves dominated: fewer are built than
     generated, and the saved work is the same for every pool size. *)
  Alcotest.(check bool)
    (label ^ ": built fewer join candidates than generated")
    true
    (List.assoc "opt.dp.candidates_built" base_counters
    < List.assoc "opt.dp.candidates_generated" base_counters);
  for domains = 1 to 8 do
    Pool.with_pool ~domains (fun pool ->
        let m = Dqo_obs.Metrics.create () in
        let ((_, stats) as result) =
          Search.optimize_entries ~model:Model.deep ~pool ~metrics:m
            Search.Deep catalog query
        in
        Alcotest.(check string)
          (Printf.sprintf "%s: deep model domains=%d" label domains)
          base (fingerprint result);
        Alcotest.(check int)
          (Printf.sprintf "%s: candidates built domains=%d" label domains)
          base_stats.Search.candidates_built stats.Search.candidates_built;
        Alcotest.(check (list (pair string int)))
          (Printf.sprintf "%s: dp metrics domains=%d" label domains)
          base_counters (counters m))
  done

(* Under the molecule-level model the frontier is larger and the DP does
   real work per level; sweep every pool size 1..8 and also require the
   merged [opt.dp.*] metrics to match the sequential registries.  Two
   shapes: a synthetic 6-relation star and the dense 7-relation hub
   star. *)
let test_parallel_domain_sweep_deep_model () =
  List.iter
    (fun (label, (catalog, query)) ->
      domain_sweep_deep_model ~label catalog query)
    [
      ("synthetic star-6", synthetic_case ~seed:7 ~relations:6 ~star:true);
      ("hub star-7", hub_star_case ~relations:7);
    ]

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

(* --- golden frontiers ----------------------------------------------- *)

(* The served ad hoc shapes, rebuilt from the same generators: the §4.3
   pair, a 7-relation star, a 10-relation chain and a 20-relation
   snowflake, all fk -> pk over seeded data and measured into a catalog
   exactly as the engine registers relations. *)
module Golden = struct
  module Column = Dqo_data.Column
  module Relation = Dqo_data.Relation
  module Schema = Dqo_data.Schema

  let relation names cols =
    Relation.create
      (Schema.of_names (List.map (fun n -> (n, Schema.T_int)) names))
      cols

  let dense_keys ~rng ~shuffled rows =
    let keys = Array.init rows (fun i -> i) in
    if shuffled then Rng.shuffle rng keys;
    Column.of_ints keys

  let uniform ~rng ~bound rows =
    Column.of_ints (Array.init rows (fun _ -> Rng.int rng bound))

  let catalog tables =
    Catalog.create (List.map (fun (n, r) -> Catalog.of_relation n r) tables)

  let rs () =
    let rng = Rng.create ~seed:1 in
    let pair =
      Dqo_data.Datagen.fk_pair ~rng ~r_rows:25_000 ~s_rows:90_000
        ~r_groups:20_000 ~r_sorted:false ~s_sorted:false ~dense:true
    in
    catalog [ ("R", pair.Dqo_data.Datagen.r); ("S", pair.Dqo_data.Datagen.s) ]

  let rs_sql where =
    "SELECT a, COUNT(*) AS c FROM R JOIN S ON id = r_id WHERE " ^ where
    ^ " GROUP BY a"

  let star () =
    let rng = Rng.create ~seed:2 in
    let hub =
      relation
        ("hub_k" :: List.init 6 (fun i -> Printf.sprintf "hub_f%d" (i + 1)))
        (dense_keys ~rng ~shuffled:false 4_000
        :: List.init 6 (fun _ -> uniform ~rng ~bound:5_000 4_000))
    in
    catalog
      (("Hub", hub)
      :: List.init 6 (fun i ->
             let i = i + 1 in
             ( Printf.sprintf "Sat%d" i,
               relation [ Printf.sprintf "sat%d_k" i ]
                 [ dense_keys ~rng ~shuffled:(i mod 2 = 1) 5_000 ] )))

  let star_sql =
    Printf.sprintf
      "SELECT hub_k, COUNT(*) AS c FROM Hub%s WHERE hub_k < 2000 GROUP BY hub_k"
      (String.concat ""
         (List.init 6 (fun i ->
              Printf.sprintf " JOIN Sat%d ON hub_f%d = sat%d_k" (i + 1) (i + 1)
                (i + 1))))

  (* [len] tables P1 -> ... -> P[len], each with key p<i>_k and (all but
     the last) fk p<i>_f. *)
  let chain_tables ~rng ~prefix ~rows ~shuffle_offset len =
    List.init len (fun i ->
        let i = i + 1 in
        let col suffix =
          Printf.sprintf "%s%d_%s" (String.lowercase_ascii prefix) i suffix
        in
        let k =
          dense_keys ~rng ~shuffled:((i + shuffle_offset) mod 2 = 1) rows
        in
        let rel =
          if i < len then
            relation [ col "k"; col "f" ] [ k; uniform ~rng ~bound:rows rows ]
          else relation [ col "k" ] [ k ]
        in
        (Printf.sprintf "%s%d" prefix i, rel))

  let chain_joins ~prefix len =
    let p = String.lowercase_ascii prefix in
    String.concat ""
      (List.init (len - 1) (fun i ->
           Printf.sprintf " JOIN %s%d ON %s%d_f = %s%d_k" prefix (i + 2) p
             (i + 1) p (i + 2)))

  let chain () =
    catalog
      (chain_tables ~rng:(Rng.create ~seed:3) ~prefix:"T" ~rows:2_000
         ~shuffle_offset:0 10)

  let chain_sql =
    "SELECT t1_k, COUNT(*) AS c FROM T1" ^ chain_joins ~prefix:"T" 10
    ^ " WHERE t1_k < 1000 GROUP BY t1_k"

  (* Hub Snow with three chains of 7, 6 and 6 tables: 20 relations. *)
  let snow_chains = [ ("A", 7); ("B", 6); ("C", 6) ]

  let snowflake () =
    let rng = Rng.create ~seed:4 in
    let hub =
      relation
        ("snow_k"
        :: List.map (fun (p, _) -> "snow_" ^ String.lowercase_ascii p) snow_chains)
        (dense_keys ~rng ~shuffled:false 1_000
        :: List.map (fun _ -> uniform ~rng ~bound:1_000 1_000) snow_chains)
    in
    catalog
      (("Snow", hub)
      :: List.concat
           (List.mapi
              (fun c (prefix, len) ->
                chain_tables ~rng ~prefix ~rows:1_000 ~shuffle_offset:c len)
              snow_chains))

  let snowflake_sql =
    "SELECT snow_k, COUNT(*) AS c FROM Snow"
    ^ String.concat ""
        (List.map
           (fun (prefix, len) ->
             let p = String.lowercase_ascii prefix in
             Printf.sprintf " JOIN %s1 ON snow_%s = %s1_k" prefix p p
             ^ chain_joins ~prefix len)
           snow_chains)
    ^ " WHERE snow_k < 500 GROUP BY snow_k"

  (* Every column record and co-ordering pair, in list order. *)
  let props_dump (p : Props.t) =
    let opt = Option.value ~default:"-" in
    Printf.sprintf "%s/%s/[%s]/[%s]" (opt p.Props.sorted_by)
      (opt p.Props.clustered_by)
      (String.concat ","
         (List.map
            (fun (n, (c : Props.column)) ->
              Printf.sprintf "%s:%b:%d:%d:%d" n c.Props.dense c.Props.lo
                c.Props.hi c.Props.distinct)
            p.Props.columns))
      (String.concat ","
         (List.map (fun (a, b) -> a ^ ">" ^ b) p.Props.co_ordered))

  (* [fingerprint] plus every frontier entry's plan, exact (hex) cost,
     rows and full property vector, for the query and for its GROUP BY
     input, whose entries carry the joins' whole column lists; hashed. *)
  let digest optimize query =
    let input =
      match query with Logical.Group_by (t, _, _) -> t | q -> q
    in
    let b = Buffer.create 4096 in
    List.iter
      (fun l ->
        let entries, stats = optimize l in
        Buffer.add_string b (fingerprint (entries, stats));
        List.iter
          (fun (e : Pareto.entry) ->
            Buffer.add_string b
              (Format.asprintf "\n%a|%h|%d|%s" Physical.pp e.Pareto.plan
                 e.Pareto.cost e.Pareto.rows (props_dump e.Pareto.props)))
          entries)
      [ query; input ];
    Digest.to_hex (Digest.string (Buffer.contents b))

  (* The query's frontier as a set: every entry's exact (hex) cost, rows
     and full property vector, sorted, plans left out; hashed.  Pruning
     orders nothing above the join reads may change which of two equal
     entries survives and the join frontiers, never this set. *)
  let frontier_set optimize query =
    let entries, _ = optimize query in
    List.map
      (fun (e : Pareto.entry) ->
        Printf.sprintf "%h|%d|%s" e.Pareto.cost e.Pareto.rows
          (props_dump e.Pareto.props))
      entries
    |> List.sort String.compare |> String.concat "\n" |> Digest.string
    |> Digest.to_hex

  (* The §4.3 join grouped on its own join column. *)
  let rs_id_sql = "SELECT id, COUNT(*) AS c FROM R JOIN S ON id = r_id GROUP BY id"

  (* The star joined on [hub_k] twice: with partitions of 3, [hub_k]
     joins Sat1 inside the hub's partition and Sat3 across the cut, and
     the grouping key [sat2_k] is a join column inside it. *)
  let star_split_sql =
    "SELECT sat2_k, COUNT(*) AS c FROM Hub JOIN Sat1 ON hub_k = sat1_k JOIN \
     Sat2 ON hub_f2 = sat2_k JOIN Sat3 ON hub_k = sat3_k JOIN Sat4 ON hub_f4 \
     = sat4_k JOIN Sat5 ON hub_f5 = sat5_k GROUP BY sat2_k"
end

(* Two digests per query.  The first hashes whole frontiers, plans and
   join frontiers included: recorded before the DP's property-vector
   operations were specialised and before it skipped candidates it
   proves dominated, and re-recorded when the DP stopped keeping orders
   nothing above reads (see CHANGES.md); any change to what the search
   keeps moves it.  The second hashes the query frontier as a set
   ({!Golden.frontier_set}), recorded before that pruning: it holds
   through every change that loses no plan an operator above can
   use. *)
let test_golden_frontiers () =
  let check name ~full ~set optimize query =
    Alcotest.(check string) name full (Golden.digest optimize query);
    Alcotest.(check string) (name ^ " (set)") set
      (Golden.frontier_set optimize query)
  in
  let both ?model name catalog sql ((deep, deep_set), (shallow, shallow_set)) =
    let query = Dqo_sql.Binder.plan_of_sql catalog sql in
    List.iter
      (fun (mode, label, full, set) ->
        check (name ^ label) ~full ~set
          (Search.optimize_entries ?model mode catalog)
          query)
      [
        (Search.Deep, " deep", deep, deep_set);
        (Search.Shallow, " shallow", shallow, shallow_set);
      ]
  in
  let rs = Golden.rs () in
  both "rs a<500" rs (Golden.rs_sql "a < 500")
    ( ("4e8edb5a4a7f0f39c7f4e11891c68592", "bba7f3a432102f1a96994cda930c485a"),
      ("e6c1e8a39386771e3e2cf1f3eb57aeff", "93070a77be351ade39c788b3a34e0df1") );
  both "rs b<25000" rs (Golden.rs_sql "b < 25000")
    ( ("9172b2a42fa8db15854a2e81ee3f5b34", "f0ff5ef6d66a2b8160448a833fd9e777"),
      ("66901c50f829499f38293c861fa6060e", "67239a13b8033f93f912577aef742a4c") );
  (* The grouping key is the join column. *)
  both "rs group by id" rs Golden.rs_id_sql
    ( ("6c531319c22ffeda43233bba9586fbb1", "da7fd5c2d3413fc57ebd7d20ca238d64"),
      ("83cc6de62966f4eb9ce234230b8ebfe1", "ed95daceb4c726f51e8f2327913867c0") );
  both "star-7" (Golden.star ()) Golden.star_sql
    ( ("f769336310ac4f4b2e07ae54f4b533f3", "e436b8776f707aa0e43e6bf95b357eea"),
      ("1e7a8186d2163560b676a18e3539ec6f", "71692056c62d3fae12346b154fe52b76") );
  both "chain-10" (Golden.chain ()) Golden.chain_sql
    ( ("9011d9827172fb458a45781c840e3cee", "5db552e83f373c8f2af073b5bcf10f05"),
      ("868ae8d6cea98d461b1cc3500ce749c9", "528de2631f9b7b8275c0107d4f7c4935") );
  (* Nine hash molecules per pair: the in-pair filter's heaviest case. *)
  both ~model:Model.deep "star-7 molecules" (Golden.star ()) Golden.star_sql
    ( ("7902565d2eef107ac1ebae41e76ece26", "e436b8776f707aa0e43e6bf95b357eea"),
      ("1e7a8186d2163560b676a18e3539ec6f", "71692056c62d3fae12346b154fe52b76") );
  both ~model:Model.deep "chain-10 molecules" (Golden.chain ())
    Golden.chain_sql
    ( ("4e61fb88d820256449f49febc191ed20", "5db552e83f373c8f2af073b5bcf10f05"),
      ("868ae8d6cea98d461b1cc3500ce749c9", "528de2631f9b7b8275c0107d4f7c4935") );
  let hier ~partition_max catalog query =
    let entries, stats, report =
      Hier.optimize_entries ~partition_max Search.Deep catalog query
    in
    Alcotest.(check bool) "query splits into partitions" true
      (List.length report.Hier.partitions > 1);
    (entries, stats)
  in
  let snow = Golden.snowflake () in
  let snow_query = Dqo_sql.Binder.plan_of_sql snow Golden.snowflake_sql in
  check "snowflake-20 hier" ~full:"6cce77bd8ea730eb7c4d67d9f2d21830"
    ~set:"50d50838cb01e707305a1c1c32cb0478"
    (hier ~partition_max:12 snow)
    snow_query;
  (* Small partitions: more stitch DPs, over frontiers whose lists were
     built in other searches. *)
  check "snowflake-20 hier, partitions of 4"
    ~full:"c4a9a6fc2e3f198a8e8ba3559853f9f7"
    ~set:"a2e3a79b1f5e2034645de69d5fc275d4"
    (hier ~partition_max:4 snow)
    snow_query;
  (* One column joining a relation inside its partition and one across
     the cut. *)
  let star = Golden.star () in
  check "star split hier, partitions of 3"
    ~full:"d5aae3cca37a13b7662362668f1e11f7"
    ~set:"5b3cd35048d8e549a20e6677178bb3f1"
    (hier ~partition_max:3 star)
    (Dqo_sql.Binder.plan_of_sql star Golden.star_split_sql)

(* Minor words one deep search of [sql] allocates; allocation does not
   depend on the host, so it bounds the search's work exactly. *)
let search_words catalog sql =
  let query = Dqo_sql.Binder.plan_of_sql catalog sql in
  ignore (Search.optimize_entries Search.Deep catalog query);
  let before = Gc.minor_words () in
  ignore (Search.optimize_entries Search.Deep catalog query);
  Gc.minor_words () -. before

(* The deep star-7 and chain-10 searches allocate 230,250 and 188,231
   minor words; the budgets leave 5% for small changes.  Recorded with
   OCaml 5.1.1 (no flambda) under dune's default dev profile.  The
   count is exact for one compiler, but a compiler upgrade, other
   inlining or unboxing, or a change to code the search calls (Props,
   Physical, the cost model) can move it without any change to the DP:
   re-measure (the failure prints the figure) and re-record it here,
   with the before and after figures in CHANGES.md. *)
let test_allocation_budget () =
  let check name recorded words =
    let budget = recorded *. 1.05 in
    if words > budget then
      Alcotest.failf
        "%s: %.0f minor words, budget %.0f (recorded %.0f with OCaml 5.1.1, \
         dev profile); if the compiler or a callee moved, re-record the \
         figure, else the DP allocates more"
        name words budget recorded
  in
  check "star-7" 230_250. (search_words (Golden.star ()) Golden.star_sql);
  check "chain-10" 188_231. (search_words (Golden.chain ()) Golden.chain_sql)

(* --- reference join DP ------------------------------------------------- *)

(* The sequential join DP as it stood before the search learned to skip
   candidates it can prove dominated: every pair's candidates built,
   the chunks concatenated, folded through [Pareto.add_all], sort
   enforcers added on the survivors.  No pool, feedback or learner.
   With [~live:None] it is the DP from before it kept only live orders:
   every OJ/SOJ output sorted on its join column, enforcers on every
   column of [interesting].  With [~live:(Some above)] it applies the
   live-order rule, written out again here: a subset's live columns are
   [above] and the columns a predicate joins to a leaf outside it;
   enforcers go on those, and OJ/SOJ outputs record {!sorted_output}. *)
module Reference = struct
  module Bitset = Dqo_util.Bitset
  module Subsets = Hashtbl.Make (Bitset)
  module Join = Dqo_exec.Join
  module Grouping = Dqo_exec.Grouping
  module Hash_fn = Dqo_hash.Hash_fn
  module Cardinality = Dqo_cost.Cardinality

  type ctx = {
    mode : Search.mode;
    model : Model.t;
    interesting : string list;
    live : string list option;
    mutable considered : int;
    mutable enforced : int;
    mutable pruned : int;
    mutable steps : Search.trace_step list;
    mutable levels : Search.level_stat list;
  }

  let count ctx n = ctx.considered <- ctx.considered + n

  let record_step ctx step ~generated ~enforcers kept_entries =
    let kept = List.length kept_entries in
    let pruned = max 0 (generated + enforcers - kept) in
    ctx.enforced <- ctx.enforced + enforcers;
    ctx.pruned <- ctx.pruned + pruned;
    ctx.steps <- { Search.step; generated; enforcers; kept; pruned } :: ctx.steps;
    kept_entries

  let enforcer_variants ctx columns entries =
    List.concat_map
      (fun (e : Pareto.entry) ->
        List.filter_map
          (fun col ->
            match Props.column e.Pareto.props col with
            | None -> None
            | Some _ ->
              if Props.sorted_on e.Pareto.props col then None
              else
                Some
                  {
                    Pareto.plan = Physical.Sort_enforcer (e.Pareto.plan, col);
                    cost =
                      e.Pareto.cost
                      +. Model.sort_cost ctx.model ~rows:e.Pareto.rows;
                    props = Props.with_sort e.Pareto.props col;
                    rows = e.Pareto.rows;
                  })
          columns)
      entries

  (* An OJ/SOJ output sorted on a dead [c1] keeps no order, unless [c1]
     co-orders live columns: exactly one, [x], and it is clustered on
     [x]; several, and it stays sorted on [c1]. *)
  let sorted_output ~live c1 (unordered : Props.t) =
    if List.mem c1 live then Props.with_sort unordered c1
    else
      match
        List.sort_uniq String.compare
          (List.filter_map
             (fun (a, x) -> if a = c1 && List.mem x live then Some x else None)
             unordered.Props.co_ordered)
      with
      | [] -> unordered
      | [ x ] -> { unordered with Props.clustered_by = Some x }
      | _ -> Props.with_sort unordered c1

  let hash_molecules ctx =
    match ctx.mode with
    | Search.Deep when ctx.model.Model.deep_molecules ->
      List.concat_map
        (fun table ->
          List.map
            (fun hash -> (table, hash))
            [ Hash_fn.Murmur3; Hash_fn.Fibonacci; Hash_fn.Multiply_shift ])
        [ Grouping.Chaining; Grouping.Linear_probing; Grouping.Robin_hood ]
    | Search.Deep | Search.Shallow -> [ (Grouping.Chaining, Hash_fn.Murmur3) ]

  let join_candidates ctx ~order (e1 : Pareto.entry) (e2 : Pareto.entry) c1
      c2 =
    let d1 = Search.distinct_or e1.Pareto.props c1 e1.Pareto.rows in
    let d2 = Search.distinct_or e2.Pareto.props c2 e2.Pareto.rows in
    let out_rows =
      Cardinality.equi_join ~left_rows:e1.Pareto.rows
        ~right_rows:e2.Pareto.rows ~left_distinct:d1 ~right_distinct:d2
    in
    let unordered =
      Search.scale_columns
        (Props.union_columns e1.Pareto.props e2.Pareto.props)
        out_rows
    in
    let ordered = order unordered in
    let mk impl cost props =
      {
        Pareto.plan =
          Physical.Join_op (e1.Pareto.plan, e2.Pareto.plan, c1, c2, impl);
        cost = e1.Pareto.cost +. e2.Pareto.cost +. cost;
        props;
        rows = out_rows;
      }
    in
    let jcost impl =
      let costs = [| 0.0 |] in
      Model.join_costs ctx.model ~impls:[| impl |] ~mask:1
        ~left_rows:e1.Pareto.rows ~right_rows:e2.Pareto.rows
        ~left_distinct:d1 costs;
      costs.(0)
    in
    let hash_joins =
      List.map
        (fun (table, hash) ->
          let impl =
            { (Physical.default_join Join.HJ) with
              Physical.j_table = table; j_hash = hash }
          in
          mk impl (jcost impl) unordered)
        (hash_molecules ctx)
    in
    let simple alg props =
      let impl = Physical.default_join alg in
      mk impl (jcost impl) props
    in
    let candidates =
      hash_joins
      @ (if
           Props.sorted_on e1.Pareto.props c1
           && Props.sorted_on e2.Pareto.props c2
         then [ simple Join.OJ ordered ]
         else [])
      @ [ simple Join.SOJ ordered ]
      @ (if Props.dense_on e1.Pareto.props c1 then
           [ simple Join.SPHJ unordered ]
         else [])
      @
      match Props.column e1.Pareto.props c1 with
      | Some _ -> [ simple Join.BSJ unordered ]
      | None -> []
    in
    count ctx (List.length candidates);
    candidates

  let dp_frontiers ctx ~leaf_names ~(leaf_sets : Pareto.entry list array)
      ~predicates =
    let k = Array.length leaf_sets in
    let col_leaf = Hashtbl.create 16 in
    Array.iteri
      (fun i entries ->
        match entries with
        | [] -> ()
        | (e : Pareto.entry) :: _ ->
          List.iter
            (fun (n, _) ->
              if not (Hashtbl.mem col_leaf n) then Hashtbl.add col_leaf n i)
            e.Pareto.props.Props.columns)
      leaf_sets;
    let pred_endpoints =
      Array.of_list
        (List.filter_map
           (fun (lc, rc) ->
             match
               (Hashtbl.find_opt col_leaf lc, Hashtbl.find_opt col_leaf rc)
             with
             | Some ll, Some rl -> Some (ll, rl, lc, rc)
             | None, _ | _, None -> None)
           predicates)
    in
    let connecting s1 s2 =
      let n = Array.length pred_endpoints in
      let rec go i =
        if i >= n then None
        else
          let ll, rl, lc, rc = pred_endpoints.(i) in
          if Bitset.mem ll s1 && Bitset.mem rl s2 then Some (lc, rc)
          else if Bitset.mem rl s1 && Bitset.mem ll s2 then Some (rc, lc)
          else go (i + 1)
      in
      go 0
    in
    let adj = Array.make k Bitset.empty in
    Array.iter
      (fun (ll, rl, _, _) ->
        if ll <> rl then begin
          adj.(ll) <- Bitset.add rl adj.(ll);
          adj.(rl) <- Bitset.add ll adj.(rl)
        end)
      pred_endpoints;
    let memo = Subsets.create 64 in
    for i = 0 to k - 1 do
      Subsets.replace memo (Bitset.singleton i) leaf_sets.(i)
    done;
    let subset_label s =
      "subset{"
      ^ String.concat ","
          (List.map (fun i -> leaf_names.(i)) (Bitset.to_list s))
      ^ "}"
    in
    (* Sorted, as the search lists them. *)
    let live_columns above s =
      List.sort_uniq String.compare
        (Array.fold_left
           (fun acc (ll, rl, lc, rc) ->
             match (Bitset.mem ll s, Bitset.mem rl s) with
             | true, false -> lc :: acc
             | false, true -> rc :: acc
             | _ -> acc)
           above pred_endpoints)
    in
    let solve s =
      let columns, order =
        match ctx.live with
        | None -> (ctx.interesting, fun c1 u -> Props.with_sort u c1)
        | Some above ->
          let live = live_columns above s in
          (live, fun c1 -> sorted_output ~live c1)
      in
      let chunks = ref [] in
      Bitset.iter_subsets
        (fun s1 ->
          match Subsets.find_opt memo s1 with
          | None | Some [] -> ()
          | Some p1 -> (
            let s2 = Bitset.diff s s1 in
            match Subsets.find_opt memo s2 with
            | None | Some [] -> ()
            | Some p2 -> (
              match connecting s1 s2 with
              | None -> ()
              | Some (c1, c2) ->
                List.iter
                  (fun e1 ->
                    List.iter
                      (fun e2 ->
                        chunks :=
                          join_candidates ctx ~order:(order c1) e1 e2 c1 c2
                          :: !chunks)
                      p2)
                  p1)))
        s;
      let candidates = List.concat !chunks in
      let survivors = Pareto.add_all [] candidates in
      let enforced = enforcer_variants ctx columns survivors in
      count ctx (List.length enforced);
      let merged = Pareto.add_all survivors enforced in
      record_step ctx (subset_label s)
        ~generated:(List.length candidates)
        ~enforcers:(List.length enforced) merged
    in
    let neighbours s =
      Bitset.fold (fun i acc -> Bitset.union acc adj.(i)) s Bitset.empty
    in
    let next_level prev =
      let seen = Subsets.create 16 in
      Array.iter
        (fun s ->
          Bitset.iter
            (fun v -> Subsets.replace seen (Bitset.add v s) ())
            (Bitset.diff (neighbours s) s))
        prev;
      let arr = Array.of_seq (Subsets.to_seq_keys seen) in
      Array.sort Bitset.compare arr;
      arr
    in
    let level = ref (Array.init k Bitset.singleton) in
    for card = 2 to k do
      let subs = next_level !level in
      level := subs;
      let generated = ref 0 and kept = ref 0 and pruned = ref 0 in
      Array.iter
        (fun s ->
          let entries = solve s in
          Subsets.replace memo s entries;
          kept := !kept + List.length entries;
          match ctx.steps with
          | st :: _ ->
            generated := !generated + st.Search.generated;
            pruned := !pruned + st.Search.pruned
          | [] -> ())
        subs;
      ctx.levels <-
        {
          Search.level = card;
          subproblems = Array.length subs;
          level_generated = !generated;
          level_kept = !kept;
          level_pruned = !pruned;
          level_beam_pruned = 0;
          level_wall_ms = 0.0;
        }
        :: ctx.levels
    done;
    Option.value ~default:[] (Subsets.find_opt memo (Bitset.full k))

  (* What [Search.optimize_frontiers] returns, rebuilt by the copy, with
     the frontier and its counters. *)
  let optimize_frontiers ~model ?(interesting = []) ?live ~names ~leaves
      ~predicates mode =
    let ctx =
      {
        mode;
        model;
        interesting;
        live;
        considered = 0;
        enforced = 0;
        pruned = 0;
        steps = [];
        levels = [];
      }
    in
    let entries =
      dp_frontiers ctx ~leaf_names:names ~leaf_sets:leaves ~predicates
    in
    ( entries,
      ( ctx.considered,
        List.length entries,
        ctx.enforced,
        ctx.pruned,
        List.rev ctx.steps,
        List.rev ctx.levels ) )
end

(* Frontier (plans, exact costs, rows, full property vectors in list
   order), counters, trace and level stats (wall times aside). *)
let dp_dump entries (considered, kept, enforced, pruned, trace, levels) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (e : Pareto.entry) ->
      Buffer.add_string b
        (Format.asprintf "%a|%h|%d|%s\n" Physical.pp e.Pareto.plan
           e.Pareto.cost e.Pareto.rows (Golden.props_dump e.Pareto.props)))
    entries;
  Buffer.add_string b
    (Printf.sprintf "considered=%d kept=%d enforced=%d pruned=%d\n" considered
       kept enforced pruned);
  List.iter
    (fun (t : Search.trace_step) ->
      Buffer.add_string b
        (Printf.sprintf "%s:%d:%d:%d:%d\n" t.Search.step t.Search.generated
           t.Search.enforcers t.Search.kept t.Search.pruned))
    trace;
  List.iter
    (fun (lv : Search.level_stat) ->
      Buffer.add_string b
        (Printf.sprintf "L%d:%d:%d:%d:%d:%d\n" lv.Search.level
           lv.Search.subproblems lv.Search.level_generated lv.Search.level_kept
           lv.Search.level_pruned lv.Search.level_beam_pruned))
    levels;
  Buffer.contents b

(* Random leaf frontiers built to hit every corner the join DP's
   candidate skipping and live orders depend on: sort variants that
   share their source's lists (twins) next to copies with equal but
   unshared lists, rows 1 (sorting is free, so twins tie on cost),
   costs near 2^53 (float sums tie), dense and sparse columns,
   co-ordering pairs (a column co-ordering one or several others), chain,
   star and cycle graphs of 2-7 leaves, sometimes with one more
   predicate on a column another predicate already joins, and columns
   read above the DP ([above]) that are often join columns too.

   With [~keys:false] column distinct counts are drawn freely, leaves
   may have 0 rows, and entries of one leaf, even on shared lists, may
   estimate different rows (one union, several output row counts).
   With [~keys:true] every column is a key of its leaf (as many
   distinct values as the leaf has rows) and all of a leaf's entries
   share its rows, so every join estimates the smaller input's rows
   and a subset's rows do not depend on its plan. *)
type dp_case = {
  shape : string;
  mode : Search.mode;
  deep_model : bool;
  names : string array;
  leaves : Pareto.entry list array;
  predicates : (string * string) list;
  above : string list;
}

let dp_case_gen ~keys st =
  let int n = Random.State.int st n in
  let pick l = List.nth l (int (List.length l)) in
  let chance p = Random.State.float st 1.0 < p in
  let k = 2 + int 6 in
  let shape = pick [ "chain"; "star"; "cycle" ] in
  let colname i m = Printf.sprintf "l%dc%d" i m in
  let ncols = Array.init k (fun _ -> 1 + int 3) in
  let rows () =
    match int 5 with
    | 0 -> if keys then 1 else 0
    | 1 -> 1
    | 2 -> 2 + int 20
    | _ -> 50 + int 2_000
  in
  let big = 9007199254740992.0 (* 2^53 *) in
  let cost () =
    if chance 0.3 then big +. Float.of_int (2 * int 4)
    else Float.of_int (int 5_000) +. Random.State.float st 1.0
  in
  let leaf i =
    let first_rows = rows () in
    let rows () = if keys || chance 0.5 then first_rows else rows () in
    let columns () =
      List.init ncols.(i) (fun m ->
          let lo = int 3 and d = if keys then first_rows else 1 + int 60 in
          if chance 0.5 then
            (colname i m, { Props.dense = true; lo; hi = lo + d - 1; distinct = d })
          else
            (colname i m, { Props.dense = false; lo = 0; hi = -1; distinct = d }))
    in
    let co_ordered =
      List.concat
        (List.init ncols.(i) (fun a ->
             List.filter_map
               (fun b ->
                 if a <> b && chance 0.3 then Some (colname i a, colname i b)
                 else None)
               (List.init ncols.(i) Fun.id)))
    in
    let order () =
      if chance 0.4 then Some (colname i (int ncols.(i))) else None
    in
    let props columns =
      let sorted_by = order () in
      { Props.sorted_by; clustered_by = sorted_by; columns; co_ordered }
    in
    let plan n = Physical.Table_scan (Printf.sprintf "L%d_%d" i n) in
    let serial = ref 0 in
    let entry props ~rows ~cost =
      incr serial;
      { Pareto.plan = plan !serial; cost; props; rows }
    in
    (* Sources share their column statistics or draw their own, and
       often their rows: equal rows over other distinct counts. *)
    let shared = columns () in
    let sources =
      List.init (1 + int 2) (fun _ ->
          entry
            (props (if chance 0.5 then shared else columns ()))
            ~rows:(rows ()) ~cost:(cost ()))
    in
    List.concat_map
      (fun (src : Pareto.entry) ->
        let variant () =
          let c = colname i (int ncols.(i)) in
          let delta =
            match int 4 with
            | 0 -> 0.0
            | 1 -> 2.0 (* a tie once summed near 2^53 *)
            | 2 -> Model.sort_cost Model.table2 ~rows:src.Pareto.rows
            | _ -> 1.0 +. Float.of_int (int 3_000)
          in
          match int 4 with
          | 0 ->
            (* Sort variant sharing the source's lists. *)
            entry
              (Props.with_sort src.Pareto.props c)
              ~rows:src.Pareto.rows ~cost:(src.Pareto.cost +. delta)
          | 1 ->
            (* Equal but unshared lists. *)
            let p = src.Pareto.props in
            entry
              {
                p with
                Props.columns = List.map Fun.id p.Props.columns;
                co_ordered = List.map Fun.id p.Props.co_ordered;
                sorted_by = (if chance 0.5 then Some c else p.Props.sorted_by);
              }
              ~rows:src.Pareto.rows ~cost:(src.Pareto.cost +. delta)
          | 2 ->
            (* Same lists, other cost and maybe other rows. *)
            entry src.Pareto.props ~rows:(rows ())
              ~cost:(src.Pareto.cost +. delta)
          | _ ->
            (* Cheaper, possibly unsorted: a twin of the source. *)
            entry
              (if chance 0.5 then Props.without_order src.Pareto.props
               else src.Pareto.props)
              ~rows:src.Pareto.rows
              ~cost:(Float.max 0.0 (src.Pareto.cost -. delta))
        in
        src :: List.init (int 3) (fun _ -> variant ()))
      sources
  in
  let leaves = Array.init k leaf in
  let edge a b =
    (colname a (int ncols.(a)), colname b (int ncols.(b)))
  in
  let edges =
    match shape with
    | "star" -> List.init (k - 1) (fun j -> (0, j + 1))
    | "cycle" -> List.init k (fun j -> (j, (j + 1) mod k))
    | _ -> List.init (k - 1) (fun j -> (j, j + 1))
  in
  let predicates =
    List.map (fun (a, b) -> if chance 0.5 then edge a b else edge b a) edges
  in
  (* One more predicate on the first one's left column, to another
     leaf: that column joins two relations. *)
  let predicates =
    match predicates with
    | (lc, _) :: _ when k > 2 && chance 0.5 ->
      let owner = int_of_string (String.sub lc 1 (String.index lc 'c' - 1)) in
      let other = (owner + 1 + int (k - 1)) mod k in
      predicates @ [ (lc, colname other (int ncols.(other))) ]
    | _ -> predicates
  in
  let above =
    List.concat
      (List.init k (fun i ->
           List.filter (fun _ -> chance 0.3)
             (List.init ncols.(i) (colname i))))
    @
    (* A grouping key that is also a join column. *)
    if chance 0.5 then
      let lc, rc = List.nth predicates (int (List.length predicates)) in
      [ (if chance 0.5 then lc else rc) ]
    else []
  in
  {
    shape;
    mode = (if chance 0.5 then Search.Deep else Search.Shallow);
    deep_model = chance 0.5;
    names = Array.init k (Printf.sprintf "L%d");
    leaves;
    predicates;
    above = List.sort_uniq String.compare above;
  }

let dp_case_print c =
  Printf.sprintf "%s of %d leaves, %s mode, %s model, %d leaf entries" c.shape
    (Array.length c.names)
    (match c.mode with Search.Deep -> "deep" | Search.Shallow -> "shallow")
    (if c.deep_model then "deep" else "table2")
    (Array.fold_left (fun acc l -> acc + List.length l) 0 c.leaves)

(* The cheapest cost, and for every column read above the DP the
   cheapest cost of an entry sorted on it and of one clustered on it,
   in hex; "-" where no entry qualifies. *)
let dp_summary above (entries : Pareto.entry list) =
  let cheapest ok =
    match List.filter ok entries with
    | [] -> "-"
    | es -> Printf.sprintf "%h" (Pareto.cheapest es).Pareto.cost
  in
  String.concat "\n"
    (("cheapest " ^ cheapest (fun _ -> true))
    :: List.map
         (fun c ->
           Printf.sprintf "%s: sorted %s, clustered %s" c
             (cheapest (fun e -> Props.sorted_on e.Pareto.props c))
             (cheapest (fun e -> Props.clustered_on e.Pareto.props c)))
         above)

let frontier_dump entries =
  String.concat "\n"
    (List.map
       (fun (e : Pareto.entry) ->
         Format.asprintf "%h rows=%d %a@\n%a" e.Pareto.cost e.Pareto.rows
           Props.pp e.Pareto.props Physical.pp e.Pareto.plan)
       entries)

(* Where a subset's rows do not depend on its plan (key-only leaves),
   keeping only live orders loses nothing anything above can use: the
   old DP, enforcing sorts on every join column and every column read
   above at every subset and keeping every join output's order, finds
   the same cheapest plan cost and, for each column read above, the
   same cheapest sorted and clustered entries.  With row variants it
   can find cheaper ones: Pareto pruning ignores rows, and an entry
   kept only for a dead order may carry fewer rows. *)
let prop_dp_matches_reference =
  QCheck.Test.make ~count:300
    ~name:"optimize_frontiers = reference DP (cheapest, orders read above)"
    (QCheck.make ~print:dp_case_print (dp_case_gen ~keys:true))
    (fun c ->
      let model = if c.deep_model then Model.deep else Model.table2 in
      let entries, (stats : Search.stats) =
        Search.optimize_frontiers ~model ~interesting:c.above ~names:c.names
          ~leaves:c.leaves ~predicates:c.predicates c.mode (Catalog.create [])
      in
      let interesting =
        List.sort_uniq String.compare
          (c.above @ List.concat_map (fun (l, r) -> [ l; r ]) c.predicates)
      in
      let r_entries, _ =
        Reference.optimize_frontiers ~model ~interesting ~names:c.names
          ~leaves:c.leaves ~predicates:c.predicates c.mode
      in
      let got = dp_summary c.above entries
      and want = dp_summary c.above r_entries in
      String.equal got want
      && stats.Search.candidates_built <= stats.Search.plans_considered
      || QCheck.Test.fail_reportf "above [%s]\nsearch:\n%s\n%s\nreference:\n%s\n%s"
           (String.concat "," c.above) got (frontier_dump entries) want
           (frontier_dump r_entries))

(* The candidates the search skips (twin inputs, in-pair dominance, the
   memoised unions per output row count) never change what it keeps:
   against the reference building every candidate under the same
   live-order rule, frontiers, counters, trace and level stats are
   byte-identical, also where a subset's plans estimate different
   rows. *)
let prop_dp_matches_live_reference =
  QCheck.Test.make ~count:300
    ~name:
      "optimize_frontiers = reference DP (live orders: frontier, counters, \
       trace)"
    (QCheck.make ~print:dp_case_print (dp_case_gen ~keys:false))
    (fun c ->
      let model = if c.deep_model then Model.deep else Model.table2 in
      let entries, (stats : Search.stats) =
        Search.optimize_frontiers ~model ~interesting:c.above ~names:c.names
          ~leaves:c.leaves ~predicates:c.predicates c.mode (Catalog.create [])
      in
      let r_entries, r_stats =
        Reference.optimize_frontiers ~model ~live:c.above ~names:c.names
          ~leaves:c.leaves ~predicates:c.predicates c.mode
      in
      let got =
        dp_dump entries
          ( stats.Search.plans_considered,
            stats.Search.pareto_kept,
            stats.Search.enforcers_added,
            stats.Search.candidates_pruned,
            stats.Search.trace,
            stats.Search.levels )
      in
      let want = dp_dump r_entries r_stats in
      String.equal got want
      && stats.Search.candidates_built <= stats.Search.plans_considered
      || QCheck.Test.fail_reportf "above [%s]\nsearch:\n%s\nreference:\n%s"
           (String.concat "," c.above) got want)

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
          Alcotest.test_case "DP enumerates the component table" `Quick
            test_dp_enumerates_component_table;
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
      ( "golden",
        [
          Alcotest.test_case "frontier digests" `Quick test_golden_frontiers;
          Alcotest.test_case "allocation budget" `Quick test_allocation_budget;
        ] );
      ( "reference-dp",
        [
          QCheck_alcotest.to_alcotest prop_dp_matches_reference;
          QCheck_alcotest.to_alcotest prop_dp_matches_live_reference;
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
