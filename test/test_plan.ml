(* Tests for the plan layer: the property lattice, the logical algebra,
   the granule (physiological) algebra, and physical plan helpers. *)

module Props = Dqo_plan.Props
module Logical = Dqo_plan.Logical
module Granule = Dqo_plan.Granule
module Physical = Dqo_plan.Physical
module Col_stats = Dqo_data.Col_stats

let qtest = QCheck_alcotest.to_alcotest

(* --- props ------------------------------------------------------------- *)

let dense_col : Props.column = { dense = true; lo = 0; hi = 9; distinct = 10 }
let sparse_col : Props.column =
  { dense = false; lo = 0; hi = 1_000_000; distinct = 10 }

let props ?sorted_by ?clustered_by ?(co_ordered = []) columns =
  { Props.sorted_by; clustered_by; columns; co_ordered }

let test_props_queries () =
  let p = props ~sorted_by:"k" [ ("k", dense_col); ("v", sparse_col) ] in
  Alcotest.(check bool) "sorted_on k" true (Props.sorted_on p "k");
  Alcotest.(check bool) "sorted_on v" false (Props.sorted_on p "v");
  Alcotest.(check bool) "clustered via sorted" true (Props.clustered_on p "k");
  Alcotest.(check bool) "dense_on" true (Props.dense_on p "k");
  Alcotest.(check bool) "dense_on sparse" false (Props.dense_on p "v");
  Alcotest.(check bool) "distinct" true (Props.distinct_of p "k" = Some 10);
  Alcotest.(check bool) "unknown column" true (Props.column p "zz" = None)

let test_props_co_ordering () =
  let p =
    props ~sorted_by:"id" ~co_ordered:[ ("id", "a") ]
      [ ("id", dense_col); ("a", dense_col) ]
  in
  Alcotest.(check bool) "clustered on co-ordered column" true
    (Props.clustered_on p "a");
  (* Without the sort the co-ordering grants nothing. *)
  let q = Props.without_order p in
  Alcotest.(check bool) "no order, no clustering" false (Props.clustered_on q "a")

let test_props_shallow_erases_density () =
  let p = props [ ("k", dense_col) ] in
  let s = Props.shallow p in
  Alcotest.(check bool) "density erased" false (Props.dense_on s "k");
  Alcotest.(check bool) "distinct kept" true (Props.distinct_of s "k" = Some 10)

let test_props_dominance () =
  let base = props [ ("k", dense_col) ] in
  let sorted = Props.with_sort base "k" in
  Alcotest.(check bool) "sorted dominates unsorted" true
    (Props.dominates sorted base);
  Alcotest.(check bool) "unsorted does not dominate sorted" false
    (Props.dominates base sorted);
  Alcotest.(check bool) "reflexive" true (Props.dominates base base);
  let shallow = Props.shallow base in
  Alcotest.(check bool) "dense dominates shallow" true
    (Props.dominates base shallow);
  Alcotest.(check bool) "shallow lacks density" false
    (Props.dominates shallow base)

let test_props_rename_restrict_union () =
  let p =
    props ~sorted_by:"x" ~co_ordered:[ ("x", "y") ]
      [ ("x", dense_col); ("y", sparse_col) ]
  in
  let r = Props.rename_columns p [ ("x", "xx") ] in
  Alcotest.(check bool) "rename order" true (Props.sorted_on r "xx");
  Alcotest.(check bool) "rename co_ordered" true
    (List.mem ("xx", "y") r.Props.co_ordered);
  let q = Props.restrict p [ "y" ] in
  Alcotest.(check bool) "restricted drops order" false (Props.sorted_on q "x");
  Alcotest.(check bool) "restricted keeps y" true (Props.column q "y" <> None);
  Alcotest.(check bool) "restricted drops x" true (Props.column q "x" = None);
  let u = Props.union_columns p (props [ ("z", dense_col) ]) in
  Alcotest.(check bool) "union has all columns" true
    (Props.column u "x" <> None && Props.column u "z" <> None);
  Alcotest.(check bool) "union resets order" true (u.Props.sorted_by = None)

(* Dominance must be transitive on arbitrary property triples. *)
let props_gen =
  let open QCheck.Gen in
  let col_gen =
    let* dense = bool in
    return
      (if dense then dense_col else sparse_col)
  in
  let* c1 = col_gen in
  let* c2 = col_gen in
  let* sorted = int_bound 2 in
  let* co = bool in
  let sorted_by =
    match sorted with 0 -> None | 1 -> Some "k" | _ -> Some "v"
  in
  return
    {
      Props.sorted_by;
      clustered_by = sorted_by;
      columns = [ ("k", c1); ("v", c2) ];
      co_ordered = (if co then [ ("k", "v") ] else []);
    }

let prop_dominance_transitive =
  QCheck.Test.make ~name:"dominance is transitive" ~count:300
    (QCheck.make QCheck.Gen.(triple props_gen props_gen props_gen))
    (fun (a, b, c) ->
      (not (Props.dominates a b && Props.dominates b c))
      || Props.dominates a c)

let prop_dominance_reflexive =
  QCheck.Test.make ~name:"dominance is reflexive" ~count:100
    (QCheck.make props_gen) (fun p -> Props.dominates p p)

(* The property vector's list operations against a by-name reference
   built on the generic [List] lookups.  Pairs are drawn so that the
   second vector is often derived from the first (same columns in the
   same order, shuffled, partly dropped or extended, sometimes sharing
   whole lists), which exercises the lockstep walk and its fallback;
   names are freshly copied strings half the time, so matching never
   relies on physical equality. *)
module Reference = struct
  let opt_sub a b =
    match (b, a) with
    | None, _ -> true
    | Some bn, Some an -> bn = an
    | Some _, None -> false

  let column (t : Props.t) n = List.assoc_opt n t.Props.columns

  let dominates (a : Props.t) (b : Props.t) =
    opt_sub a.Props.sorted_by b.Props.sorted_by
    && opt_sub a.Props.clustered_by b.Props.clustered_by
    && List.for_all (fun p -> List.mem p a.Props.co_ordered) b.Props.co_ordered
    && List.for_all
         (fun (n, (bc : Props.column)) ->
           match List.assoc_opt n a.Props.columns with
           | Some (ac : Props.column) ->
             bc.dense <= ac.dense
             && ((not bc.dense) || (ac.lo = bc.lo && ac.hi = bc.hi))
           | None -> not bc.dense)
         b.Props.columns

  let union_columns (a : Props.t) (b : Props.t) =
    {
      Props.sorted_by = None;
      clustered_by = None;
      columns =
        a.Props.columns
        @ List.filter
            (fun (n, _) -> not (List.mem_assoc n a.Props.columns))
            b.Props.columns;
      co_ordered =
        a.Props.co_ordered
        @ List.filter
            (fun p -> not (List.mem p a.Props.co_ordered))
            b.Props.co_ordered;
    }

  let restrict (t : Props.t) names =
    let keep = function Some n when List.mem n names -> Some n | _ -> None in
    {
      Props.sorted_by = keep t.Props.sorted_by;
      clustered_by = keep t.Props.clustered_by;
      columns = List.filter (fun (n, _) -> List.mem n names) t.Props.columns;
      co_ordered =
        List.filter
          (fun (x, y) -> List.mem x names && List.mem y names)
          t.Props.co_ordered;
    }
end

let name_pool = [ "a"; "b"; "c"; "d"; "e"; "f" ]

let props_pair_gen =
  let open QCheck.Gen in
  let name n =
    map (fun fresh -> if fresh then Bytes.to_string (Bytes.of_string n) else n) bool
  in
  let col_gen =
    let* dense = bool in
    let* lo = int_bound 2 in
    let* hi = int_range 2 4 in
    let* distinct = int_range 1 5 in
    return { Props.dense; lo; hi; distinct }
  in
  let columns_of names =
    flatten_l (List.map (fun n -> pair (name n) col_gen) names)
  in
  let pick_names = shuffle_l name_pool in
  let subset l = map (fun keep -> List.filteri (fun i _ -> i < keep) l) (int_bound (List.length l)) in
  let order_gen cols =
    oneofl
      (None :: Some "z" :: List.map (fun (n, _) -> Some n) cols)
  in
  let pairs_of cols =
    let names = List.map fst cols in
    let* candidates =
      flatten_l
        (List.concat_map
           (fun x -> List.map (fun y -> map (fun k -> (k, (x, y))) bool) names)
           names)
    in
    shuffle_l (List.filter_map (fun (k, p) -> if k then Some p else None) candidates)
  in
  let vector cols =
    let* sorted_by = order_gen cols in
    let* clustered_by = oneofl [ sorted_by; None ] in
    let* co_ordered = pairs_of cols in
    return { Props.sorted_by; clustered_by; columns = cols; co_ordered }
  in
  let* names = pick_names in
  let* names = subset names in
  let* a_cols = columns_of names in
  let* a = vector a_cols in
  let* derive = int_bound 4 in
  let* b =
    match derive with
    | 0 ->
      (* Independent: other names, other order. *)
      let* names = pick_names >>= subset in
      columns_of names >>= vector
    | 1 ->
      (* Same columns, same order, some records changed. *)
      let* cols =
        flatten_l
          (List.map
             (fun (n, c) ->
               let* change = bool in
               if change then map (fun c' -> (n, c')) col_gen else return (n, c))
             a.Props.columns)
      in
      vector cols
    | 2 ->
      (* Same columns shuffled, shared records. *)
      let* cols = shuffle_l a.Props.columns in
      let* co = shuffle_l a.Props.co_ordered in
      return { a with Props.columns = cols; co_ordered = co }
    | 3 ->
      (* A prefix of the columns plus a suffix of new ones. *)
      let* keep = subset a.Props.columns in
      let* extra = columns_of (List.filter (fun n -> not (List.mem_assoc n keep)) name_pool) in
      let* extra = subset extra in
      vector (keep @ extra)
    | _ ->
      (* Shared lists, different order fields. *)
      let* sorted_by = order_gen a.Props.columns in
      return { a with Props.sorted_by; clustered_by = sorted_by }
  in
  let* swap = bool in
  let* names = pick_names >>= subset in
  return (if swap then (b, a, names) else (a, b, names))

let print_props (p : Props.t) =
  let opt = Option.value ~default:"-" in
  Printf.sprintf "{sorted=%s; clustered=%s; cols=[%s]; co=[%s]}"
    (opt p.Props.sorted_by) (opt p.Props.clustered_by)
    (String.concat "; "
       (List.map
          (fun (n, (c : Props.column)) ->
            Printf.sprintf "%s:%b:%d:%d:%d" n c.dense c.lo c.hi c.distinct)
          p.Props.columns))
    (String.concat "; " (List.map (fun (x, y) -> x ^ ">" ^ y) p.Props.co_ordered))

let prop_list_ops_match_reference =
  QCheck.Test.make ~name:"list operations match by-name reference" ~count:1000
    (QCheck.make
       ~print:(fun (a, b, names) ->
         Printf.sprintf "a=%s\nb=%s\nnames=[%s]" (print_props a) (print_props b)
           (String.concat ";" names))
       props_pair_gen)
    (fun (a, b, names) ->
      Props.dominates a b = Reference.dominates a b
      && Props.dominates b a = Reference.dominates b a
      && Props.union_columns a b = Reference.union_columns a b
      && Props.restrict a names = Reference.restrict a names
      && List.for_all
           (fun n -> Props.column a n = Reference.column a n)
           ("z" :: name_pool))

(* [Props.Layout] against the list operations it stands for: vectors
   converted over one layout export back unchanged, and dominate,
   union, sort and answer column queries exactly as their lists do. *)
let prop_layout_matches_lists =
  QCheck.Test.make ~name:"layout vectors = property lists" ~count:1000
    (QCheck.make
       ~print:(fun (a, b, _) ->
         Printf.sprintf "a=%s\nb=%s" (print_props a) (print_props b))
       props_pair_gen)
    (fun (a, b, _) ->
      let module L = Props.Layout in
      let names = L.names () in
      let l, v = L.of_props names [| a; b |] in
      let export = L.exporter names l in
      let la, va = L.of_props names [| a |] in
      let lb, vb = L.of_props names [| b |] in
      let lu = L.union_layout names la lb in
      let rows = 3 in
      let u =
        L.union lu (L.slots_into la ~into:lu) va.(0).L.cls
          (L.slots_into lb ~into:lu) vb.(0).L.cls ~rows
      in
      let capped (p : Props.t) =
        {
          p with
          Props.columns =
            List.map
              (fun (n, (c : Props.column)) ->
                (n, { c with Props.distinct = min c.Props.distinct rows }))
              p.Props.columns;
        }
      in
      let column_queries n =
        let id = L.name_id names n in
        L.has l v.(0) id = Option.is_some (Props.column a n)
        && L.dense_on l v.(0) id = Props.dense_on a n
        && L.distinct_or l v.(0) id (-1)
           = Option.value ~default:(-1) (Props.distinct_of a n)
      in
      export v.(0) = a
      && export v.(1) = b
      && L.dominates v.(0) v.(1) = Props.dominates a b
      && L.dominates v.(1) v.(0) = Props.dominates b a
      && L.exporter names lu { L.cls = u; sorted = -1; clustered = -1 }
         = capped (Props.union_columns a b)
      && List.for_all
           (fun (n, _) ->
             export (L.with_sort v.(0) (L.name_id names n)) = Props.with_sort a n)
           a.Props.columns
      && List.for_all column_queries ("z" :: name_pool))

(* --- logical ------------------------------------------------------------ *)

let test_logical_constructors_and_relations () =
  let q =
    Logical.group_by
      (Logical.join
         (Logical.select (Logical.scan "R") "a" (Dqo_exec.Filter.Lt 10))
         (Logical.scan "S") ~on:("id", "r_id"))
      ~key:"a"
      [ Logical.count_star (); Logical.sum "b" ]
  in
  Alcotest.(check (list string)) "relations" [ "R"; "S" ] (Logical.relations q);
  let catalog = function
    | "R" -> [ "id"; "a" ]
    | "S" -> [ "r_id"; "b" ]
    | _ -> []
  in
  Alcotest.(check (list string)) "grouping output"
    [ "a"; "count"; "sum_b" ]
    (Logical.output_columns ~catalog q)

let test_logical_join_output_renames () =
  let q = Logical.join (Logical.scan "R") (Logical.scan "S") ~on:("x", "x") in
  let catalog = function "R" -> [ "x"; "y" ] | "S" -> [ "x" ] | _ -> [] in
  Alcotest.(check (list string)) "clash renamed" [ "x"; "y"; "x'" ]
    (Logical.output_columns ~catalog q)

let test_logical_pp () =
  let q = Logical.group_by (Logical.scan "R") ~key:"a" [ Logical.count_star () ] in
  let s = Format.asprintf "%a" Logical.pp q in
  Alcotest.(check bool) "mentions GroupBy" true
    (Astring.String.is_infix ~affix:"GroupBy" s)

(* --- granule ------------------------------------------------------------- *)

let test_granule_levels () =
  Alcotest.(check string) "organelle" "organelle"
    (Granule.biology_analogue Granule.Organelle);
  Alcotest.(check string) "molecule" "node type, hash function, probing"
    (Granule.level_name Granule.Molecule);
  (* The molecule cut keeps every organelle-cut candidate, in order. *)
  let names max_level =
    List.map
      (fun ((o : _ Granule.organelle), _) -> o.Granule.name)
      (Granule.candidates ~max_level Granule.grouping)
  in
  Alcotest.(check (list string)) "organelle cut"
    [ "HG"; "OG"; "SOG"; "SPHG"; "BSG" ] (names Granule.Organelle);
  Alcotest.(check (list string)) "molecule cut"
    (List.init 9 (fun _ -> "HG") @ [ "OG"; "SOG"; "SPHG"; "BSG" ])
    (names Granule.Molecule)

let all_requirements = Granule.all_requirements

let test_granule_shallow_vs_deep_space () =
  (* Shallow (organelle-level) enumeration sees exactly the five
     algorithms; deep unnesting adds the hash molecules. *)
  let space max_level =
    Granule.count ~available:all_requirements ~max_level Granule.grouping
  in
  Alcotest.(check int) "five shallow grouping plans" 5 (space Granule.Organelle);
  Alcotest.(check int) "nine molecules refine HG" 13 (space Granule.Molecule)

let test_granule_requirements_gate_options () =
  (* With no properties available, SPH / OG / BSG are unreachable. *)
  let algorithms available =
    List.sort_uniq compare
      (List.filter_map
         (List.assoc_opt "grouping.algorithm")
         (Granule.enumerate ~available ~max_level:Granule.Molecule
            Granule.grouping))
  in
  Alcotest.(check (list string)) "only unconditional algorithms"
    [ "HG"; "SOG" ] (algorithms []);
  (* Adding density unlocks SPHG. *)
  Alcotest.(check bool) "sph unlocked" true
    (List.mem "SPHG" (algorithms [ Granule.Requires_dense ]))

let test_granule_bindings_are_complete () =
  let bindings max_level =
    Granule.enumerate ~available:all_requirements ~max_level Granule.grouping
  in
  List.iter
    (fun b ->
      match List.assoc_opt "grouping.algorithm" b with
      | Some "HG" ->
        Alcotest.(check bool) "HG binds table layout" true
          (List.mem_assoc "grouping.layout" b);
        Alcotest.(check bool) "HG binds mixer" true
          (List.mem_assoc "grouping.mixer" b)
      | Some _ ->
        Alcotest.(check int) "other organelles bind nothing more" 1
          (List.length b)
      | None -> Alcotest.fail "binding without algorithm")
    (bindings Granule.Molecule);
  List.iter
    (fun b ->
      Alcotest.(check int) "organelle cut binds the algorithm only" 1
        (List.length b))
    (bindings Granule.Organelle)

let test_granule_depth_and_pp () =
  (* Unnesting one level reveals the molecules below the hash organelle. *)
  let cut max_level = List.length (Granule.candidates ~max_level Granule.grouping) in
  Alcotest.(check bool) "molecule level grows the space" true
    (cut Granule.Molecule > cut Granule.Organelle);
  let s = Format.asprintf "%a" Granule.pp Granule.grouping in
  List.iter
    (fun affix ->
      Alcotest.(check bool) ("pp shows " ^ affix) true
        (Astring.String.is_infix ~affix s))
    [ "dense key domain"; "SPHG"; "robin-hood"; "multiply-shift" ]

let test_join_cell_space () =
  let space ?(available = all_requirements) max_level =
    Granule.count ~available ~max_level Granule.join
  in
  Alcotest.(check int) "five shallow join plans" 5 (space Granule.Organelle);
  Alcotest.(check int) "thirteen deep join plans" 13 (space Granule.Molecule);
  (* OJ needs both inputs sorted. *)
  Alcotest.(check int) "no merge join unsorted" 4
    (space
       ~available:[ Granule.Requires_dense; Granule.Requires_known_universe ]
       Granule.Organelle)

(* --- physical ------------------------------------------------------------- *)

let test_physical_names_and_operators () =
  let g = Physical.default_grouping Dqo_exec.Grouping.HG in
  Alcotest.(check string) "HG shows molecules" "HG(chaining, murmur3)"
    (Physical.grouping_name g);
  let og = Physical.default_grouping Dqo_exec.Grouping.OG in
  Alcotest.(check string) "OG plain" "OG" (Physical.grouping_name og);
  let plan =
    Physical.Group_op
      ( Physical.Join_op
          ( Physical.Sort_enforcer (Physical.Table_scan "R", "id"),
            Physical.Table_scan "S",
            "id", "r_id",
            Physical.default_join Dqo_exec.Join.OJ ),
        "a", [],
        og )
  in
  Alcotest.(check (list string)) "pre-order operators"
    [ "OG"; "OJ"; "Sort(id)"; "TableScan(R)"; "TableScan(S)" ]
    (Physical.operators plan);
  Alcotest.(check bool) "no sph" false (Physical.uses_sph plan);
  let sph_plan =
    Physical.Group_op
      (Physical.Table_scan "R", "a", [],
       Physical.default_grouping Dqo_exec.Grouping.SPHG)
  in
  Alcotest.(check bool) "sph detected" true (Physical.uses_sph sph_plan)

let test_props_of_stats () =
  let sorted = Col_stats.analyze (Dqo_data.Int_col.of_array [| 1; 2; 3 |]) in
  let unsorted = Col_stats.analyze (Dqo_data.Int_col.of_array [| 3; 1; 2 |]) in
  let p = Props.of_stats [ ("u", unsorted); ("s", sorted) ] in
  Alcotest.(check bool) "first sorted column wins" true (Props.sorted_on p "s");
  let p2 = Props.of_stats ~name:"s" [ ("s", sorted); ("u", unsorted) ] in
  Alcotest.(check bool) "explicit name respected" true (Props.sorted_on p2 "s")

let () =
  Alcotest.run "dqo_plan"
    [
      ( "props",
        [
          Alcotest.test_case "queries" `Quick test_props_queries;
          Alcotest.test_case "co-ordering" `Quick test_props_co_ordering;
          Alcotest.test_case "shallow projection" `Quick
            test_props_shallow_erases_density;
          Alcotest.test_case "dominance" `Quick test_props_dominance;
          Alcotest.test_case "rename/restrict/union" `Quick
            test_props_rename_restrict_union;
          qtest prop_dominance_transitive;
          qtest prop_dominance_reflexive;
          qtest prop_list_ops_match_reference;
          qtest prop_layout_matches_lists;
          Alcotest.test_case "of_stats" `Quick test_props_of_stats;
        ] );
      ( "logical",
        [
          Alcotest.test_case "constructors & relations" `Quick
            test_logical_constructors_and_relations;
          Alcotest.test_case "join renames" `Quick
            test_logical_join_output_renames;
          Alcotest.test_case "pp" `Quick test_logical_pp;
        ] );
      ( "granule",
        [
          Alcotest.test_case "levels (Table 1)" `Quick test_granule_levels;
          Alcotest.test_case "shallow vs deep space" `Quick
            test_granule_shallow_vs_deep_space;
          Alcotest.test_case "requirements gate options" `Quick
            test_granule_requirements_gate_options;
          Alcotest.test_case "bindings complete" `Quick
            test_granule_bindings_are_complete;
          Alcotest.test_case "depth & pp" `Quick test_granule_depth_and_pp;
          Alcotest.test_case "join cell" `Quick test_join_cell_space;
        ] );
      ( "physical",
        [
          Alcotest.test_case "names & operators" `Quick
            test_physical_names_and_operators;
        ] );
    ]
