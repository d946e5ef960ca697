(* Tests for algorithmic views: catalog transformations, the AVSP
   solvers, and partial AVs. *)

module View = Dqo_av.View
module Avsp = Dqo_av.Avsp
module Partial = Dqo_av.Partial
module Catalog = Dqo_opt.Catalog
module Props = Dqo_plan.Props
module Logical = Dqo_plan.Logical
module Granule = Dqo_plan.Granule

let col ~dense ~lo ~hi ~distinct : Props.column = { dense; lo; hi; distinct }

(* A sparse, unsorted two-table catalog where AVs have room to help. *)
let base_catalog () =
  Catalog.create
    [
      Catalog.table ~name:"R" ~rows:25_000
        ~props:
          {
            Props.sorted_by = None;
            clustered_by = None;
            columns =
              [
                ("id", col ~dense:false ~lo:0 ~hi:900_000 ~distinct:25_000);
                ("a", col ~dense:false ~lo:0 ~hi:800_000 ~distinct:20_000);
              ];
            co_ordered = [ ("id", "a") ];
          };
      Catalog.table ~name:"S" ~rows:90_000
        ~props:
          {
            Props.sorted_by = None;
            clustered_by = None;
            columns =
              [ ("r_id", col ~dense:false ~lo:0 ~hi:900_000 ~distinct:25_000) ];
            co_ordered = [];
          };
    ]

let query =
  Logical.group_by
    (Logical.join (Logical.scan "R") (Logical.scan "S") ~on:("id", "r_id"))
    ~key:"a"
    [ Logical.count_star () ]

let workload = [ (query, 1.0) ]

(* --- view catalog transformations ----------------------------------------- *)

let test_sorted_projection_apply () =
  let catalog = base_catalog () in
  let v = View.sorted_projection catalog ~relation:"R" ~column:"id" in
  Alcotest.(check bool) "build cost = n log n" true
    (abs_float (v.View.build_cost -. (25_000.0 *. Dqo_cost.Model.log2 25_000.0))
    < 1.0);
  let catalog' = View.apply catalog v in
  let r = Catalog.find catalog' "R" in
  Alcotest.(check bool) "R sorted" true (Props.sorted_on r.Catalog.props "id");
  (* Other tables untouched. *)
  let s = Catalog.find catalog' "S" in
  Alcotest.(check bool) "S untouched" true (s.Catalog.props.Props.sorted_by = None)

let test_perfect_hash_apply () =
  let catalog = base_catalog () in
  let v = View.perfect_hash catalog ~relation:"R" ~column:"a" in
  let catalog' = View.apply catalog v in
  let r = Catalog.find catalog' "R" in
  Alcotest.(check bool) "a now dense" true (Props.dense_on r.Catalog.props "a");
  Alcotest.(check bool) "id untouched" false (Props.dense_on r.Catalog.props "id")

let test_grouping_result_apply () =
  let catalog = base_catalog () in
  let v = View.grouping_result catalog ~relation:"R" ~key:"a" in
  let catalog' = View.apply catalog v in
  let mv = Catalog.find catalog' "R__by_a" in
  Alcotest.(check int) "one row per group" 20_000 mv.Catalog.rows;
  Alcotest.(check bool) "sorted by key" true (Props.sorted_on mv.Catalog.props "a")

let test_describe () =
  let catalog = base_catalog () in
  let v = View.perfect_hash catalog ~relation:"R" ~column:"a" in
  Alcotest.(check bool) "describe mentions column" true
    (Astring.String.is_infix ~affix:"R.a" (View.describe v))

(* --- AVSP ---------------------------------------------------------------------- *)

let test_avs_reduce_workload_cost () =
  let catalog = base_catalog () in
  let base_cost = Avsp.workload_cost catalog workload in
  let avs =
    [
      View.perfect_hash catalog ~relation:"R" ~column:"id";
      View.perfect_hash catalog ~relation:"R" ~column:"a";
    ]
  in
  let s = Avsp.evaluate catalog workload avs in
  Alcotest.(check bool) "avs help" true (s.Avsp.workload_cost < base_cost);
  (* The deep optimiser under the transformed catalog reaches the full
     SPH pipeline: 4x cheaper, exactly Figure 5's dense/unsorted cell. *)
  Alcotest.(check bool) "about 4x" true
    (base_cost /. s.Avsp.workload_cost > 3.5)

let test_greedy_respects_budget () =
  let catalog = base_catalog () in
  let candidates = Avsp.default_candidates catalog in
  let budget = 120_000.0 in
  let s = Avsp.greedy ~budget catalog workload candidates in
  Alcotest.(check bool) "within budget" true (s.Avsp.build_cost <= budget);
  let base_cost = Avsp.workload_cost catalog workload in
  Alcotest.(check bool) "no regression" true (s.Avsp.workload_cost <= base_cost)

let test_exact_at_least_as_good_as_greedy () =
  let catalog = base_catalog () in
  let candidates = Avsp.default_candidates catalog in
  List.iter
    (fun budget ->
      let gr = Avsp.greedy ~budget catalog workload candidates in
      let ex = Avsp.exact ~budget catalog workload candidates in
      Alcotest.(check bool)
        (Printf.sprintf "exact <= greedy at budget %.0f" budget)
        true
        (ex.Avsp.workload_cost <= gr.Avsp.workload_cost +. 1e-6);
      Alcotest.(check bool) "exact within budget" true
        (ex.Avsp.build_cost <= budget))
    [ 0.0; 60_000.0; 150_000.0; 1_000_000.0 ]

let test_zero_budget_selects_nothing () =
  let catalog = base_catalog () in
  let candidates = Avsp.default_candidates catalog in
  let s = Avsp.greedy ~budget:0.0 catalog workload candidates in
  Alcotest.(check int) "no avs fit" 0 (List.length s.Avsp.chosen)

let test_default_candidates_shape () =
  let catalog = base_catalog () in
  let candidates = Avsp.default_candidates catalog in
  (* Two AV kinds per recorded column: R has 2 columns, S has 1. *)
  Alcotest.(check int) "2 * 3 candidates" 6 (List.length candidates)

(* Two physically distinct copies of the same view (same id) may land
   in the candidate pool — e.g. regenerated per tick by the advisor.
   Selection must remove candidates by id, not physical equality, or
   the copy would be picked a second time for zero benefit. *)
let test_greedy_removes_by_id () =
  let catalog = base_catalog () in
  let v1 = View.perfect_hash catalog ~relation:"R" ~column:"id" in
  let v2 = View.perfect_hash catalog ~relation:"R" ~column:"id" in
  Alcotest.(check bool) "distinct values, same id" false (v1 == v2);
  let s = Avsp.greedy ~budget:1_000_000.0 catalog workload [ v1; v2 ] in
  Alcotest.(check int) "the duplicate is never selected" 1
    (List.length
       (List.filter
          (fun c -> String.equal c.View.id v1.View.id)
          s.Avsp.chosen))

(* ?weight redefines the budget dimension: weighting by estimated
   resident bytes makes the same greedy pass answer "what fits in
   memory" instead of "what can we afford to build". *)
let test_greedy_custom_weight () =
  let catalog = base_catalog () in
  let candidates = Avsp.default_candidates catalog in
  let weight v = Float.of_int (View.estimated_bytes catalog v) in
  let budget = 2_000_000.0 in
  let s = Avsp.greedy ~weight ~budget catalog workload candidates in
  Alcotest.(check bool) "selected something" true (s.Avsp.chosen <> []);
  let spent =
    List.fold_left (fun acc v -> acc +. weight v) 0.0 s.Avsp.chosen
  in
  Alcotest.(check bool) "byte-weighted spend within budget" true
    (spent <= budget);
  (* A budget below the smallest weight selects nothing. *)
  let s0 = Avsp.greedy ~weight ~budget:1.0 catalog workload candidates in
  Alcotest.(check int) "no room" 0 (List.length s0.Avsp.chosen)

(* The memo cache makes a repeated pass over the same workload and
   pool cost zero optimiser calls. *)
let test_greedy_cache_reuse () =
  let catalog = base_catalog () in
  let candidates = Avsp.default_candidates catalog in
  let cache = Avsp.create_cache () in
  let budget = 1_000_000.0 in
  let s1 = Avsp.greedy ~cache ~budget catalog workload candidates in
  let misses_after_first = Avsp.cache_misses cache in
  Alcotest.(check bool) "first pass fills the cache" true
    (misses_after_first > 0);
  let s2 = Avsp.greedy ~cache ~budget catalog workload candidates in
  Alcotest.(check int) "second pass is all hits" misses_after_first
    (Avsp.cache_misses cache);
  Alcotest.(check bool) "hits recorded" true (Avsp.cache_hits cache > 0);
  Alcotest.(check bool) "same selection" true
    (List.map (fun v -> v.View.id) s1.Avsp.chosen
    = List.map (fun v -> v.View.id) s2.Avsp.chosen)

(* Grouping views rewrite servable GROUP BYs onto the view relation;
   everything else passes through untouched. *)
let test_rewrite_through () =
  let catalog = base_catalog () in
  let v = View.grouping_result catalog ~relation:"R" ~key:"a" in
  let count_q =
    Logical.group_by (Logical.scan "R") ~key:"a"
      [ Logical.count_star ~alias:"c" () ]
  in
  Alcotest.(check bool) "COUNT becomes SUM(cnt)" true
    (View.rewrite_through [ v ] count_q
    = Logical.group_by (Logical.scan "R__by_a") ~key:"a"
        [ Logical.sum ~alias:"c" "cnt" ]);
  let sum_key_q =
    Logical.group_by (Logical.scan "R") ~key:"a"
      [ Logical.sum ~alias:"t" "a" ]
  in
  Alcotest.(check bool) "SUM(key) becomes SUM(total)" true
    (View.rewrite_through [ v ] sum_key_q
    = Logical.group_by (Logical.scan "R__by_a") ~key:"a"
        [ Logical.sum ~alias:"t" "total" ]);
  (* SUM over a non-key column is not servable. *)
  let sum_other_q =
    Logical.group_by (Logical.scan "R") ~key:"a"
      [ Logical.sum ~alias:"t" "id" ]
  in
  Alcotest.(check bool) "non-servable aggregate passes through" true
    (View.rewrite_through [ v ] sum_other_q = sum_other_q);
  (* A join under the group-by is not a bare scan: no rewrite. *)
  Alcotest.(check bool) "join shape passes through" true
    (View.rewrite_through [ v ] query = query);
  (* Non-grouping views never rewrite. *)
  let sp = View.sorted_projection catalog ~relation:"R" ~column:"a" in
  Alcotest.(check bool) "sorted projection never rewrites" true
    (View.rewrite_through [ sp ] count_q = count_q)

let test_exact_candidate_cap () =
  let catalog = base_catalog () in
  let many =
    List.init 17 (fun i ->
        ignore i;
        View.perfect_hash catalog ~relation:"R" ~column:"a")
  in
  Alcotest.check_raises "cap" (Invalid_argument "Avsp.exact: too many candidates")
    (fun () -> ignore (Avsp.exact ~budget:1.0 catalog workload many))

(* --- materialisation ------------------------------------------------------------ *)

let test_materialize_kinds () =
  let schema =
    Dqo_data.Schema.of_names
      [ ("id", Dqo_data.Schema.T_int); ("a", Dqo_data.Schema.T_int) ]
  in
  let rel =
    Dqo_data.Relation.of_int_rows schema
      [ [ 900_000; 3 ]; [ 5; 1 ]; [ 70_000; 3 ]; [ 5_000; 2 ] ]
  in
  let catalog = Catalog.create [ Catalog.of_relation "R" rel ] in
  let info = Catalog.find catalog "R" in
  (* Sorted projection physically sorts. *)
  (match
     View.materialize ~info rel (View.sorted_projection catalog ~relation:"R" ~column:"id")
   with
  | View.M_sorted sorted ->
    Alcotest.(check bool) "sorted" true
      (Dqo_data.Int_col.is_sorted (Dqo_data.Relation.int_col sorted "id"))
  | _ -> Alcotest.fail "expected M_sorted");
  (* Perfect hash over a sparse column builds an FKS structure. *)
  (match
     View.materialize ~info rel (View.perfect_hash catalog ~relation:"R" ~column:"id")
   with
  | View.M_fks fks ->
    Alcotest.(check int) "fks keys" 4 (Dqo_hash.Perfect.Fks.length fks)
  | _ -> Alcotest.fail "expected M_fks");
  (* Perfect hash over a dense column needs only the bounds. *)
  (match
     View.materialize ~info rel (View.perfect_hash catalog ~relation:"R" ~column:"a")
   with
  | View.M_dense_bounds { lo; hi } ->
    Alcotest.(check (pair int int)) "bounds" (1, 3) (lo, hi)
  | _ -> Alcotest.fail "expected M_dense_bounds");
  (* Grouping result counts per key. *)
  match
    View.materialize ~info rel (View.grouping_result catalog ~relation:"R" ~key:"a")
  with
  | View.M_grouping g ->
    Alcotest.(check int) "groups" 3 (Dqo_exec.Group_result.groups g)
  | _ -> Alcotest.fail "expected M_grouping"

(* --- partial AVs ------------------------------------------------------------------- *)

let all_reqs = Granule.all_requirements

let test_partial_specialisation_shrinks_space () =
  let p = Partial.create Granule.grouping in
  let total = Partial.residual_count ~available:all_reqs p in
  Alcotest.(check int) "starts with the searched space" 13 total;
  Alcotest.(check (float 1e-9)) "nothing offline" 0.0
    (Partial.offline_fraction ~available:all_reqs p);
  let p = Partial.specialize p ~path:"grouping.algorithm" ~choice:"HG" in
  let after = Partial.residual_count ~available:all_reqs p in
  Alcotest.(check bool) "algorithm fixed shrinks space" true (after < total);
  Alcotest.(check bool) "still choices left" true (after > 1);
  let p = Partial.specialize p ~path:"grouping.layout" ~choice:"robin-hood" in
  let p = Partial.specialize p ~path:"grouping.mixer" ~choice:"murmur3" in
  Alcotest.(check int) "fully specialised" 1
    (Partial.residual_count ~available:all_reqs p);
  Alcotest.(check (float 1e-9)) "full AV" 1.0
    (Partial.offline_fraction ~available:all_reqs p)

let test_partial_residual_consistency () =
  let p =
    Partial.specialize
      (Partial.create Granule.grouping)
      ~path:"grouping.algorithm" ~choice:"SPHG"
  in
  let residual = Partial.residual ~available:all_reqs p in
  Alcotest.(check bool) "SPHG reachable" true (residual <> []);
  List.iter
    (fun b ->
      Alcotest.(check bool) "all residuals keep the fixed choice" true
        (List.assoc_opt "grouping.algorithm" b = Some "SPHG"))
    residual;
  (* Without the density requirement the fixed choice is unsatisfiable. *)
  Alcotest.(check int) "unsatisfiable without dense" 0
    (Partial.residual_count ~available:[] p)

let test_partial_unknown_path_rejected () =
  let p = Partial.create Granule.grouping in
  Alcotest.check_raises "unknown path"
    (Invalid_argument "Partial.specialize: unknown decision nope") (fun () ->
      ignore (Partial.specialize p ~path:"nope" ~choice:"x"));
  Alcotest.check_raises "unknown choice"
    (Invalid_argument "Partial.specialize: unknown choice warp") (fun () ->
      ignore (Partial.specialize p ~path:"grouping.algorithm" ~choice:"warp"))

let () =
  Alcotest.run "dqo_av"
    [
      ( "views",
        [
          Alcotest.test_case "sorted projection" `Quick
            test_sorted_projection_apply;
          Alcotest.test_case "perfect hash" `Quick test_perfect_hash_apply;
          Alcotest.test_case "grouping result" `Quick
            test_grouping_result_apply;
          Alcotest.test_case "describe" `Quick test_describe;
        ] );
      ( "avsp",
        [
          Alcotest.test_case "avs reduce cost" `Quick
            test_avs_reduce_workload_cost;
          Alcotest.test_case "greedy budget" `Quick test_greedy_respects_budget;
          Alcotest.test_case "exact >= greedy" `Quick
            test_exact_at_least_as_good_as_greedy;
          Alcotest.test_case "zero budget" `Quick
            test_zero_budget_selects_nothing;
          Alcotest.test_case "default candidates" `Quick
            test_default_candidates_shape;
          Alcotest.test_case "exact cap" `Quick test_exact_candidate_cap;
          Alcotest.test_case "greedy removes by id" `Quick
            test_greedy_removes_by_id;
          Alcotest.test_case "greedy custom weight" `Quick
            test_greedy_custom_weight;
          Alcotest.test_case "greedy cache reuse" `Quick
            test_greedy_cache_reuse;
          Alcotest.test_case "rewrite through" `Quick test_rewrite_through;
        ] );
      ( "materialise",
        [ Alcotest.test_case "all kinds" `Quick test_materialize_kinds ] );
      ( "partial",
        [
          Alcotest.test_case "specialisation shrinks space" `Quick
            test_partial_specialisation_shrinks_space;
          Alcotest.test_case "residual consistency" `Quick
            test_partial_residual_consistency;
          Alcotest.test_case "unknown path/choice" `Quick
            test_partial_unknown_path_rejected;
        ] );
    ]
