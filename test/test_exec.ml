(* Tests for the execution engine: the five grouping implementations, the
   five joins, sort/filter/partition operators, and the Figure 2
   producer/consumer pipeline algebra. *)

module Grouping = Dqo_exec.Grouping
module Group_result = Dqo_exec.Group_result
module Join = Dqo_exec.Join
module Sort_op = Dqo_exec.Sort_op
module Filter = Dqo_exec.Filter
module Partition = Dqo_exec.Partition
module Pipeline = Dqo_exec.Pipeline
module Aggregate = Dqo_exec.Aggregate
module Datagen = Dqo_data.Datagen
module Int_col = Dqo_data.Int_col
module Int_array = Dqo_util.Int_array

(* Shorthand: most tests are written against literal arrays; the
   operators are storage-agnostic, so wrap in the flat backend. *)
let ic = Int_col.of_array

let qtest = QCheck_alcotest.to_alcotest

(* --- grouping: reference model ------------------------------------------ *)

let reference_grouping keys values =
  let h = Hashtbl.create 64 in
  Array.iteri
    (fun i k ->
      let c, s = Option.value ~default:(0, 0) (Hashtbl.find_opt h k) in
      Hashtbl.replace h k (c + 1, s + values.(i)))
    keys;
  List.sort compare (Hashtbl.fold (fun k cs acc -> (k, cs) :: acc) h [])

let check_against_reference name result keys values =
  Alcotest.(check bool)
    (name ^ " matches reference model")
    true
    (Group_result.to_sorted_alist result = reference_grouping keys values)

(* Generated dataset exercising every algorithm through [Grouping.run]. *)
let dataset_gen =
  QCheck.Gen.(
    let* groups = int_range 1 40 in
    let* extra = int_bound 400 in
    let* sorted = bool in
    let* dense = bool in
    let* seed = int_bound 10_000 in
    return (groups, groups + extra, sorted, dense, seed))

let make_dataset (groups, n, sorted, dense, seed) =
  let rng = Dqo_util.Rng.create ~seed in
  let d = Datagen.grouping ~rng ~n ~groups ~sorted ~dense () in
  let values = Array.init n (fun i -> (i * 37) mod 101) in
  (d, values)

(* Whether the component table lets [alg] group measured keys. *)
let applicable alg ~clustered ~dense =
  Dqo_plan.Granule.applicable Dqo_plan.Granule.grouping alg
    ~available:(Dqo_plan.Granule.measured ~clustered ~dense)

let prop_all_groupings_agree =
  QCheck.Test.make ~name:"all applicable groupings = reference" ~count:120
    (QCheck.make dataset_gen) (fun params ->
      let d, values = make_dataset params in
      let reference =
        reference_grouping (Int_col.to_array d.Datagen.keys) values
      in
      List.for_all
        (fun alg ->
          (not
             (applicable alg ~clustered:d.Datagen.sorted ~dense:d.Datagen.dense))
          || Group_result.to_sorted_alist
               (Grouping.run alg ~dataset:d ~values:(ic values))
             = reference)
        Grouping.all)

let prop_hash_molecules_agree =
  (* All table layouts and hash functions compute the same grouping. *)
  QCheck.Test.make ~name:"HG molecule choices are semantics-preserving"
    ~count:60 (QCheck.make dataset_gen) (fun params ->
      let d, values = make_dataset params in
      let reference =
        reference_grouping (Int_col.to_array d.Datagen.keys) values
      in
      List.for_all
        (fun table ->
          List.for_all
            (fun hash ->
              Group_result.to_sorted_alist
                (Grouping.hash_based ~hash ~table ~keys:d.Datagen.keys
                   ~values:(ic values) ())
              = reference)
            Dqo_hash.Hash_fn.all)
        [ Grouping.Chaining; Grouping.Linear_probing; Grouping.Robin_hood ])

let prop_boxed_hg_agrees =
  QCheck.Test.make ~name:"boxed HG = flat HG" ~count:80
    (QCheck.make dataset_gen) (fun params ->
      let d, values = make_dataset params in
      Group_result.to_sorted_alist
        (Grouping.hash_based_boxed ~keys:d.Datagen.keys ~values:(ic values))
      = reference_grouping (Int_col.to_array d.Datagen.keys) values)

let test_grouping_edge_cases () =
  (* Empty input. *)
  let empty = Grouping.hash_based ~keys:(ic [||]) ~values:(ic [||]) () in
  Alcotest.(check int) "empty groups" 0 (Group_result.groups empty);
  (* Single key repeated. *)
  let r =
    Grouping.sort_order_based ~keys:(ic [| 7; 7; 7 |])
      ~values:(ic [| 1; 2; 3 |])
  in
  Alcotest.(check bool) "one group" true
    (Group_result.to_sorted_alist r = [ (7, (3, 6)) ]);
  (* Negative keys work in the general algorithms. *)
  let keys = [| -5; 3; -5 |] and values = [| 1; 1; 1 |] in
  check_against_reference "HG negatives"
    (Grouping.hash_based ~keys:(ic keys) ~values:(ic values) ())
    keys values;
  check_against_reference "SOG negatives"
    (Grouping.sort_order_based ~keys:(ic keys) ~values:(ic values))
    keys values

let test_grouping_preconditions () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Grouping: keys/values length mismatch") (fun () ->
      ignore (Grouping.hash_based ~keys:(ic [| 1 |]) ~values:(ic [||]) ()));
  Alcotest.check_raises "sph key out of domain"
    (Invalid_argument "Grouping.sph_based: key outside dense domain")
    (fun () ->
      ignore
        (Grouping.sph_based ~lo:0 ~hi:3 ~keys:(ic [| 5 |])
           ~values:(ic [| 1 |])));
  Alcotest.check_raises "bsg key missing"
    (Invalid_argument "Grouping.binary_search_based: key not in universe")
    (fun () ->
      ignore
        (Grouping.binary_search_based ~universe:[| 1; 2 |] ~keys:(ic [| 3 |])
           ~values:(ic [| 1 |])))

let test_sph_output_sorted_by_key () =
  let keys = [| 3; 1; 2; 1 |] and values = [| 1; 1; 1; 1 |] in
  let r = Grouping.sph_based ~lo:1 ~hi:3 ~keys:(ic keys) ~values:(ic values) in
  Alcotest.(check bool) "slot order = key order" true
    (r.Group_result.keys = [| 1; 2; 3 |])

let test_og_on_clustered_unsorted_input () =
  (* OG needs clustering, not full sortedness. *)
  let keys = [| 9; 9; 2; 2; 2; 5 |] and values = [| 1; 1; 1; 1; 1; 1 |] in
  let r = Grouping.order_based ~keys:(ic keys) ~values:(ic values) () in
  check_against_reference "OG clustered" r keys values

(* [Group_result.of_slots] against a filter: every slot array shape,
   runs of empty slots at either end or throughout included. *)
let prop_of_slots_compacts =
  QCheck.Test.make ~name:"of_slots = filtered slots" ~count:300
    QCheck.(
      triple (int_range (-50) 50)
        (array_of_size Gen.(int_bound 60) (oneofl [ 0; 0; 1; 3 ]))
        bool)
    (fun (lo, counts, with_sums) ->
      let sums =
        if with_sums then Some (Array.mapi (fun s c -> (s * 7) + c) counts)
        else None
      in
      let r = Group_result.of_slots ~lo ~counts:(Array.copy counts) ~sums in
      let want =
        List.filter_map
          (fun s ->
            if counts.(s) > 0 then
              Some
                ( lo + s,
                  counts.(s),
                  match sums with Some a -> a.(s) | None -> 0 )
            else None)
          (List.init (Array.length counts) Fun.id)
      in
      List.init (Group_result.groups r) (fun g ->
          (r.Group_result.keys.(g), r.Group_result.counts.(g), r.Group_result.sums.(g)))
      = want)

let test_applicability_matrix () =
  let dense_sorted = Dqo_data.Col_stats.analyze (ic [| 0; 0; 1; 2 |]) in
  (* Note the repeated non-adjacent 9_999: all-distinct data would be
     trivially clustered and OG-compatible. *)
  let sparse_unsorted =
    Dqo_data.Col_stats.analyze (ic [| 9_999; 0; 123_456; 9_999 |])
  in
  let on alg (s : Dqo_data.Col_stats.t) =
    applicable alg ~clustered:s.Dqo_data.Col_stats.clustered
      ~dense:s.Dqo_data.Col_stats.dense
  in
  Alcotest.(check bool) "SPHG on dense" true (on Grouping.SPHG dense_sorted);
  Alcotest.(check bool) "SPHG on sparse" false
    (on Grouping.SPHG sparse_unsorted);
  Alcotest.(check bool) "OG on sorted" true (on Grouping.OG dense_sorted);
  Alcotest.(check bool) "OG on unsorted" false (on Grouping.OG sparse_unsorted);
  List.iter
    (fun alg ->
      Alcotest.(check bool) "always applicable" true (on alg sparse_unsorted))
    [ Grouping.HG; Grouping.SOG; Grouping.BSG ]

(* --- joins ----------------------------------------------------------------- *)

let normalize (r : Join.result) =
  List.sort compare
    (Array.to_list (Array.map2 (fun l rr -> (l, rr)) r.Join.left r.Join.right))

let join_input_gen =
  QCheck.Gen.(
    pair
      (array_size (int_bound 120) (int_bound 40))
      (array_size (int_bound 120) (int_bound 40)))

let prop_joins_match_nested_loop =
  QCheck.Test.make ~name:"HJ/SPHJ/SOJ/BSJ = nested loop" ~count:150
    (QCheck.make join_input_gen) (fun (left, right) ->
      let left = ic left and right = ic right in
      let expected = normalize (Join.nested_loop_reference ~left ~right) in
      List.for_all
        (fun alg ->
          match alg with
          | Join.OJ -> true (* needs sorted inputs; tested separately *)
          | Join.HJ | Join.SPHJ | Join.SOJ | Join.BSJ ->
            normalize (Join.run alg ~left ~right) = expected)
        Join.all)

let prop_merge_join_on_sorted =
  QCheck.Test.make ~name:"OJ = nested loop on sorted inputs" ~count:150
    (QCheck.make join_input_gen) (fun (left, right) ->
      let left = ic (Int_array.sorted_copy left) in
      let right = ic (Int_array.sorted_copy right) in
      normalize (Join.merge_join ~left ~right)
      = normalize (Join.nested_loop_reference ~left ~right))

let test_merge_join_requires_sorted () =
  Alcotest.check_raises "left unsorted"
    (Invalid_argument "Join.merge_join: left input not sorted") (fun () ->
      ignore (Join.merge_join ~left:(ic [| 2; 1 |]) ~right:(ic [| 1 |])))

let test_join_duplicates_cross_product () =
  let r = Join.hash_join ~left:(ic [| 7; 7 |]) ~right:(ic [| 7; 7; 7 |]) () in
  Alcotest.(check int) "2x3 pairs" 6 (Join.cardinality r)

let test_sph_join_domain () =
  Alcotest.check_raises "build key outside domain"
    (Invalid_argument "Join.sph_join: build key outside dense domain")
    (fun () ->
      ignore (Join.sph_join ~lo:0 ~hi:3 ~left:(ic [| 9 |]) ~right:(ic [||])));
  (* Probe keys outside the domain simply do not match. *)
  let r =
    Join.sph_join ~lo:0 ~hi:3 ~left:(ic [| 1; 2 |]) ~right:(ic [| 2; 99 |])
  in
  Alcotest.(check bool) "one match" true (normalize r = [ (1, 0) ])

let test_join_materialize () =
  let schema_l =
    Dqo_data.Schema.of_names [ ("id", Dqo_data.Schema.T_int); ("a", Dqo_data.Schema.T_int) ]
  in
  let schema_r =
    Dqo_data.Schema.of_names [ ("r_id", Dqo_data.Schema.T_int); ("b", Dqo_data.Schema.T_int) ]
  in
  let l = Dqo_data.Relation.of_int_rows schema_l [ [ 1; 10 ]; [ 2; 20 ] ] in
  let r = Dqo_data.Relation.of_int_rows schema_r [ [ 2; 7 ]; [ 1; 8 ]; [ 2; 9 ] ] in
  let pairs =
    Join.hash_join
      ~left:(Dqo_data.Relation.int_col l "id")
      ~right:(Dqo_data.Relation.int_col r "r_id")
      ()
  in
  let out = Join.materialize l r pairs in
  Alcotest.(check int) "3 rows" 3 (Dqo_data.Relation.cardinality out);
  (* Every output row satisfies the join predicate. *)
  let ids = Int_col.to_array (Dqo_data.Relation.int_col out "id") in
  let r_ids = Int_col.to_array (Dqo_data.Relation.int_col out "r_id") in
  Array.iteri
    (fun i id -> Alcotest.(check int) "join predicate" id r_ids.(i))
    ids

(* --- join pair order ------------------------------------------------------ *)

(* The chained joins the exact-size emit replaced, kept as references:
   a multimap of bucket heads indexed by slot, with [next] chaining the
   left rows of a slot most recent first, probed row by row. *)
let chained_probe ~head_of ~next ~right =
  let l = ref [] and r = ref [] in
  Int_col.iteri right ~f:(fun j key ->
      let e = ref (head_of key) in
      while !e >= 0 do
        l := !e :: !l;
        r := j :: !r;
        e := next.(!e)
      done);
  {
    Join.left = Array.of_list (List.rev !l);
    right = Array.of_list (List.rev !r);
  }

let chained_hash_join ~table ~left ~right =
  let n = Int_col.length left in
  let next = Array.make (max 1 n) (-1) in
  let build (type t) (module T : Dqo_hash.Table_intf.TABLE with type t = t)
      (tbl : t) =
    let head = ref (Array.make (max 16 n) (-1)) in
    Int_col.iteri left ~f:(fun i key ->
        let slot = T.find_or_add tbl key in
        if slot >= Array.length !head then begin
          let grown = Array.make (2 * Array.length !head) (-1) in
          Array.blit !head 0 grown 0 (Array.length !head);
          head := grown
        end;
        next.(i) <- !head.(slot);
        !head.(slot) <- i);
    let head = !head in
    let head_of key =
      match T.find tbl key with Some slot -> head.(slot) | None -> -1
    in
    chained_probe ~head_of ~next ~right
  in
  match table with
  | Grouping.Chaining ->
    build (module Dqo_hash.Chain_table)
      (Dqo_hash.Chain_table.create ~expected:n ())
  | Grouping.Linear_probing ->
    build (module Dqo_hash.Linear_probe)
      (Dqo_hash.Linear_probe.create ~expected:n ())
  | Grouping.Robin_hood ->
    build (module Dqo_hash.Robin_hood)
      (Dqo_hash.Robin_hood.create ~expected:n ())

let chained_sph_join ~lo ~hi ~left ~right =
  let n = Int_col.length left in
  let head = Array.make (hi - lo + 1) (-1) in
  let next = Array.make (max 1 n) (-1) in
  Int_col.iteri left ~f:(fun i key ->
      next.(i) <- head.(key - lo);
      head.(key - lo) <- i);
  let head_of key = if key < lo || key > hi then -1 else head.(key - lo) in
  chained_probe ~head_of ~next ~right

(* Small chunks so that short columns still span several of them. *)
let column_of backend keys =
  Int_col.init ~backend ~chunk_rows:16 (Array.length keys) (fun i -> keys.(i))

let backends =
  [ Int_col.Flat; Int_col.Chunked Int_col.W32; Int_col.Chunked Int_col.W64 ]

(* Sides of 0..150 rows; a key spread of 1 gives heavy duplicates on
   both sides; keys straddle zero; probe keys reach past the build
   side's [lo, hi] on both ends. *)
let pair_order_gen =
  QCheck.Gen.(
    let side_len = oneof [ return 0; int_range 1 150 ] in
    let* spread = oneofl [ 0; 2; 40 ] in
    let* base = int_range (-30) 30 in
    let* n = side_len in
    let* m = side_len in
    let* left = array_size (return n) (int_range base (base + spread)) in
    let* right =
      array_size (return m) (int_range (base - 5) (base + spread + 5))
    in
    let* lb = oneofl backends in
    let* rb = oneofl backends in
    return (left, right, lb, rb))

let print_pair_order (left, right, _, _) =
  let arr a = String.concat ";" (Array.to_list (Array.map string_of_int a)) in
  Printf.sprintf "left=[%s] right=[%s]" (arr left) (arr right)

let same_pairs (a : Join.result) (b : Join.result) =
  a.Join.left = b.Join.left && a.Join.right = b.Join.right

let prop_pair_order_matches_chained =
  QCheck.Test.make ~name:"SPHJ/HJ pair order = chained reference" ~count:300
    (QCheck.make ~print:print_pair_order pair_order_gen)
    (fun (left, right, lb, rb) ->
      let left = column_of lb left and right = column_of rb right in
      let lo, hi =
        if Int_col.length left = 0 then (0, 0) else Int_col.min_max left
      in
      let sph (lo, hi) =
        same_pairs
          (Join.sph_join ~lo ~hi ~left ~right)
          (chained_sph_join ~lo ~hi ~left ~right)
      in
      sph (lo, hi)
      && sph (lo - 3, hi + 2)
      && List.for_all
           (fun table ->
             same_pairs
               (Join.hash_join ~table ~left ~right ())
               (chained_hash_join ~table ~left ~right))
           [ Grouping.Chaining; Grouping.Linear_probing; Grouping.Robin_hood ])

(* --- sort / filter ----------------------------------------------------------- *)

let test_sort_op_stable () =
  let keys = [| 2; 1; 2; 1 |] in
  let perm = Sort_op.permutation (ic keys) in
  Alcotest.(check bool) "stable" true (perm = [| 1; 3; 0; 2 |])

(* The comparison sort the radix permutation replaced, kept as the
   reference. *)
let reference_permutation keys =
  let perm = Array.init (Array.length keys) (fun i -> i) in
  let cmp i j =
    let c = Int.compare keys.(i) keys.(j) in
    if c <> 0 then c else Int.compare i j
  in
  Array.sort cmp perm;
  perm

type key_backend = Flat_keys | W32_keys | W64_keys | Const_keys

(* 16-row chunks so even small columns span several chunks. *)
let chunked w a =
  Int_col.init ~backend:(Int_col.Chunked w) ~chunk_rows:16 (Array.length a)
    (fun i -> a.(i))

let column_of backend a =
  match backend with
  | Flat_keys -> Int_col.of_array a
  | W32_keys -> chunked Int_col.W32 a
  | W64_keys -> chunked Int_col.W64 a
  | Const_keys ->
    Int_col.const (Array.length a) (if Array.length a = 0 then 0 else a.(0))

let prop_permutation_matches_reference =
  let gen =
    QCheck.Gen.(
      let* backend = oneofl [ Flat_keys; W32_keys; W64_keys; Const_keys ] in
      let* n = oneof [ int_range 0 2; int_range 3 300 ] in
      let* spread = oneofl [ 0; 3; 1000; 1 lsl 30 ] in
      let+ a = array_repeat n (int_range (-spread) spread) in
      (backend, a))
  in
  QCheck.Test.make ~name:"Sort_op.permutation = (key, index) Array.sort"
    ~count:500 (QCheck.make gen) (fun (backend, a) ->
      let col = column_of backend a in
      Sort_op.permutation col = reference_permutation (Int_col.to_array col))

(* --- measurement: Catalog.of_relation ------------------------------------ *)

module Catalog = Dqo_opt.Catalog
module Props = Dqo_plan.Props
module Relation = Dqo_data.Relation
module Schema = Dqo_data.Schema
module Column = Dqo_data.Column
module Col_stats = Dqo_data.Col_stats

(* Every recorded field of a measurement, one line. *)
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

let int_relation names cols =
  Relation.create
    (Schema.of_names (List.map (fun n -> (n, Schema.T_int)) names))
    cols

(* The §4.3 pair (as generated for the served-query benchmark), S with a
   Zipf [b], a sorted pair whose [a] is co-ordered with [id], a sparse
   key domain, and the 7-column star hub. *)
let golden_relations () =
  let rng = Dqo_util.Rng.create ~seed:7 in
  let fk ~sorted ~dense =
    Datagen.fk_pair ~rng ~r_rows:25_000 ~s_rows:90_000 ~r_groups:20_000
      ~r_sorted:sorted ~s_sorted:sorted ~dense
  in
  let p = fk ~sorted:false ~dense:true in
  let zipf_b = Datagen.zipf_keys ~rng ~n:90_000 ~groups:1_000 ~theta:1.0 () in
  let s_zipf =
    Relation.create (Relation.schema p.Datagen.s)
      [ Relation.column p.Datagen.s "r_id"; Column.of_int_col zipf_b ]
  in
  let sp = fk ~sorted:true ~dense:true in
  let sparse = fk ~sorted:false ~dense:false in
  let hub =
    int_relation
      ("hub_k" :: List.init 6 (fun i -> Printf.sprintf "hub_f%d" (i + 1)))
      (Column.of_ints (Array.init 4000 (fun i -> i))
      :: List.init 6 (fun _ ->
             Column.of_ints
               (Array.init 4000 (fun _ -> Dqo_util.Rng.int rng 5000))))
  in
  [
    ("R", p.Datagen.r); ("S", p.Datagen.s); ("S_zipf", s_zipf);
    ("R_sorted", sp.Datagen.r); ("S_sorted", sp.Datagen.s);
    ("R_sparse", sparse.Datagen.r); ("S_sparse", sparse.Datagen.s);
    ("Hub", hub);
  ]

(* Printed by the comparison-sort measurement this kernel replaced. *)
let golden_dumps =
  [
    "R rows=25000 sorted=- clustered=id cols=[id:true,0,24999,25000; \
     a:true,0,19999,20000] co=[id>a; a>id]";
    "S rows=90000 sorted=- clustered=- cols=[r_id:true,0,24999,24277; \
     b:false,1,999978,86087] co=[]";
    "S_zipf rows=90000 sorted=- clustered=- cols=[r_id:true,0,24999,24277; \
     b:true,0,999,1000] co=[]";
    "R_sorted rows=25000 sorted=id clustered=id cols=[id:true,0,24999,25000; \
     a:true,0,19999,20000] co=[id>a; a>id]";
    "S_sorted rows=90000 sorted=r_id clustered=r_id \
     cols=[r_id:true,0,24999,24299; b:false,5,999980,85977] co=[]";
    "R_sparse rows=25000 sorted=- clustered=id \
     cols=[id:false,23899,1073702780,25000; a:false,84212,1073731811,20000] \
     co=[id>a; a>id]";
    "S_sparse rows=90000 sorted=- clustered=- \
     cols=[r_id:false,23899,1073702780,24306; b:false,17,999993,85972] co=[]";
    "Hub rows=4000 sorted=hub_k clustered=hub_k cols=[hub_k:true,0,3999,4000; \
     hub_f1:true,2,4999,2749; hub_f2:true,0,4999,2762; \
     hub_f3:true,3,4997,2735; hub_f4:true,4,4999,2768; \
     hub_f5:true,0,4999,2760; hub_f6:true,2,4999,2708] co=[hub_f1>hub_k; \
     hub_f2>hub_k; hub_f3>hub_k; hub_f4>hub_k; hub_f5>hub_k; hub_f6>hub_k]";
  ]

let test_of_relation_golden () =
  List.iter2
    (fun (name, rel) expected ->
      Alcotest.(check string) name expected
        (dump_info (Catalog.of_relation name rel)))
    (golden_relations ()) golden_dumps

(* The measurement the kernel replaced: clustering by a hash set of
   run starts, co-ordering by one comparison sort per ordered pair. *)
let reference_clustered_along perm col =
  let seen = Hashtbl.create 64 in
  let ok = ref true in
  Array.iteri
    (fun i r ->
      let v = col.(r) in
      if i = 0 || col.(perm.(i - 1)) <> v then begin
        if Hashtbl.mem seen v then ok := false else Hashtbl.add seen v ()
      end)
    perm;
  !ok

let reference_info name cols =
  let n = match cols with [] -> 0 | (_, a) :: _ -> Array.length a in
  let identity = Array.init n (fun i -> i) in
  let stats =
    List.map
      (fun (c, a) ->
        let distinct =
          List.length (List.sort_uniq Int.compare (Array.to_list a))
        in
        let lo, hi =
          if n = 0 then (0, -1)
          else (Array.fold_left min max_int a, Array.fold_left max min_int a)
        in
        ( c,
          {
            Col_stats.sorted = Int_array.is_sorted a;
            distinct;
            lo;
            hi;
            dense = n > 0 && hi - lo + 1 <= 2 * distinct;
            clustered = reference_clustered_along identity a;
          } ))
      cols
  in
  let co_ordered =
    List.concat_map
      (fun (c1, a1) ->
        List.filter_map
          (fun (c2, a2) ->
            if String.equal c1 c2 then None
            else if reference_clustered_along (reference_permutation a1) a2
            then Some (c1, c2)
            else None)
          cols)
      cols
  in
  Catalog.table ~name ~rows:n ~props:(Props.of_stats ~co_ordered stats)

(* Small relations of 1-4 columns: keys sorted or shuffled, dense or
   sparse, columns that are monotone (co-ordered) or clustered functions
   of the key, and flat, chunked and constant storage. *)
let prop_of_relation_matches_reference =
  let gen =
    QCheck.Gen.(
      let* n = oneof [ int_range 0 2; int_range 3 200 ] in
      let* k = int_range 1 4 in
      let* key = array_repeat n (int_range (-50) 50) in
      let* sort_key = bool in
      if sort_key then Array.sort compare key;
      let+ cols =
        list_repeat k
          (let* shape = int_range 0 4 in
           let* backend = oneofl [ Flat_keys; W32_keys; W64_keys; Const_keys ] in
           let+ a =
             match shape with
             | 0 -> return (Array.copy key)
             | 1 -> return (Array.map (fun v -> (v * 7) - 3) key)
             | 2 -> return (Array.map (fun v -> v / 10) key)
             | 3 -> array_repeat n (int_range 0 (1 lsl 30))
             | _ -> array_repeat n (int_range (-3) 3)
           in
           (backend, a))
      in
      cols)
  in
  let print cols =
    String.concat "\n"
      (List.map
         (fun (_, a) ->
           String.concat " " (Array.to_list (Array.map string_of_int a)))
         cols)
  in
  QCheck.Test.make ~name:"of_relation = comparison-sort measurement"
    ~count:400 (QCheck.make ~print gen) (fun cols ->
      let names = List.mapi (fun i _ -> Printf.sprintf "c%d" i) cols in
      let columns = List.map (fun (b, a) -> column_of b a) cols in
      let rel = int_relation names (List.map Column.of_int_col columns) in
      let actual = dump_info (Catalog.of_relation "T" rel) in
      let expected =
        dump_info
          (reference_info "T"
             (List.map2 (fun n c -> (n, Int_col.to_array c)) names columns))
      in
      if String.equal actual expected then true
      else QCheck.Test.fail_reportf "got %s\nwant %s" actual expected)

(* Every predicate, on every column kind the executor filters: flat,
   chunked (segments of 16 rows, so a scan crosses chunk boundaries)
   and constant, checked against [Filter.eval] row by row: [select],
   the closed-range form [Filter.range] (on every value and on the ends
   of the int range), and [Filter.iter_where] with the predicate alone
   and under a second one (its selected rows and per-predicate counts).
   Literals include the ends of the int range and their neighbours. *)
let prop_filter_matches_spec =
  let open QCheck in
  let values =
    Gen.(
      frequency
        [
          (8, int_range (-20) 20);
          (2, oneofl [ min_int; min_int + 1; max_int - 1; max_int; 0 ]);
        ])
  in
  let gen =
    Gen.(
      let* column = array_size (int_bound 70) values in
      let* kind = int_bound 3 in
      let* x = values and* y = values in
      return (column, kind, x, y))
  in
  Test.make ~name:"Filter.select = predicate scan" ~count:300
    (make
       ~print:(fun (c, kind, x, y) ->
         Printf.sprintf "kind=%d x=%d y=%d [%s]" kind x y
           (String.concat ";" (Array.to_list (Array.map string_of_int c))))
       gen)
    (fun (column, kind, x, y) ->
      let n = Array.length column in
      let col, column =
        match kind with
        | 0 -> (ic column, column)
        | 1 ->
          ( Int_col.init ~backend:(Int_col.Chunked Int_col.W64) ~chunk_rows:16 n
              (fun i -> column.(i)),
            column )
        | 2 ->
          let small = Array.map (fun v -> max (-20) (min 20 v)) column in
          ( Int_col.init ~backend:(Int_col.Chunked Int_col.W32) ~chunk_rows:16 n
              (fun i -> small.(i)),
            small )
        | _ -> (Int_col.const n x, Array.make n x)
      in
      let rows keep =
        List.rev
          (snd
             (Array.fold_left
                (fun (i, acc) v -> (i + 1, if keep v then i :: acc else acc))
                (0, []) column))
      in
      let iterated where =
        let got = ref [] in
        let passed =
          Filter.iter_where where [| col |] ~f:(fun pos sel k bufs offs ->
              for j = 0 to k - 1 do
                let i = sel.(j) in
                if bufs.(0).(offs.(0) + i) <> column.(pos + i) then
                  Test.fail_report "iter_where: column row misread";
                got := (pos + i) :: !got
              done)
        in
        (List.rev !got, Array.to_list passed)
      in
      let preds =
        [
          Filter.Eq x; Filter.Ne x; Filter.Lt x; Filter.Le x; Filter.Gt x;
          Filter.Ge x; Filter.Between (x, y); Filter.Between (min x y, max x y);
        ]
      in
      List.for_all
        (fun p ->
          let lo, hi, neg = Filter.range p in
          let in_range v = (lo <= v && v <= hi) <> neg in
          let q = Filter.Ge y in
          List.for_all
            (fun v -> in_range v = Filter.eval p v)
            (Array.to_list column @ [ x; y; min_int; min_int + 1; max_int - 1; max_int ])
          && Array.to_list (Filter.select col p) = rows (Filter.eval p)
          && iterated [ (col, p) ]
             = (rows (Filter.eval p), [ List.length (rows (Filter.eval p)) ])
          && iterated [ (col, p); (col, q) ]
             = ( rows (fun v -> Filter.eval p v && Filter.eval q v),
                 [
                   List.length (rows (Filter.eval p));
                   List.length (rows (fun v -> Filter.eval p v && Filter.eval q v));
                 ] ))
        preds)

let test_selectivity_bounds () =
  List.iter
    (fun p ->
      let s = Filter.selectivity p ~lo:0 ~hi:99 in
      Alcotest.(check bool) "in [0,1]" true (s >= 0.0 && s <= 1.0))
    [
      Filter.Eq 5; Filter.Ne 5; Filter.Lt 0; Filter.Le 99; Filter.Gt 99;
      Filter.Ge 0; Filter.Between (10, 20); Filter.Between (30, 10);
    ];
  Alcotest.(check (float 1e-9)) "eq uniform" 0.01
    (Filter.selectivity (Filter.Eq 5) ~lo:0 ~hi:99);
  Alcotest.(check (float 1e-9)) "between" 0.11
    (Filter.selectivity (Filter.Between (10, 20)) ~lo:0 ~hi:99)

(* --- partition / pipeline ------------------------------------------------------ *)

let prop_hash_partition_covers =
  QCheck.Test.make ~name:"hash partitioning is a disjoint cover" ~count:100
    QCheck.(
      pair
        (array_of_size (QCheck.Gen.int_bound 200) (int_bound 1_000))
        (QCheck.int_range 1 16))
    (fun (keys, partitions) ->
      let values = Array.map (fun k -> k * 2) keys in
      let parts =
        Partition.by_hash ~partitions ~keys:(ic keys) ~values:(ic values) ()
      in
      Partition.partition_count parts = partitions
      && Partition.total_rows parts = Array.length keys
      &&
      (* Every key's rows land in exactly one partition. *)
      let owner = Hashtbl.create 64 in
      Array.for_all
        (fun p ->
          Array.for_all
            (fun k ->
              match Hashtbl.find_opt owner k with
              | Some o -> o = p
              | None ->
                Hashtbl.add owner k p;
                true)
            parts.Partition.keys.(p))
        (Array.init partitions (fun p -> p)))

let test_dense_key_partition_is_figure2 () =
  (* "If the input produces 42 different groups, partitionBy creates 42
     different producers." *)
  let keys = [| 2; 0; 2; 1; 0; 2 |] in
  let values = [| 1; 1; 1; 1; 1; 1 |] in
  let parts =
    Partition.by_dense_key ~lo:0 ~hi:2 ~keys:(ic keys) ~values:(ic values)
  in
  Alcotest.(check int) "one producer per domain value" 3
    (Partition.partition_count parts);
  Alcotest.(check bool) "partition 2 holds the three 2s" true
    (parts.Partition.keys.(2) = [| 2; 2; 2 |]);
  Alcotest.(check bool) "partition 1 holds the single 1" true
    (parts.Partition.keys.(1) = [| 1 |])

let test_pipeline_collect_roundtrip () =
  let keys = Array.init 10_000 (fun i -> i mod 97) in
  let values = Array.init 10_000 (fun i -> i) in
  let p = Pipeline.of_arrays ~chunk_size:333 ~keys ~values () in
  let k2, v2 = Pipeline.collect p in
  Alcotest.(check bool) "keys roundtrip" true (k2 = keys);
  Alcotest.(check bool) "values roundtrip" true (v2 = values);
  Alcotest.(check int) "row_count" 10_000 (Pipeline.row_count p)

let test_pipeline_filter_map () =
  let keys = [| 1; 2; 3; 4 |] and values = [| 10; 20; 30; 40 |] in
  let p = Pipeline.of_arrays ~chunk_size:2 ~keys ~values () in
  let filtered = Pipeline.filter (fun k _ -> k mod 2 = 0) p in
  let doubled = Pipeline.map_values (fun v -> v * 2) filtered in
  let k2, v2 = Pipeline.collect doubled in
  Alcotest.(check bool) "filtered keys" true (k2 = [| 2; 4 |]);
  Alcotest.(check bool) "mapped values" true (v2 = [| 40; 80 |])

let prop_partition_based_grouping_equals_hg =
  (* The paper's claim made executable: hash grouping is one instantiation
     of partition-based grouping. *)
  QCheck.Test.make ~name:"partitionBy + aggregate = HG" ~count:80
    QCheck.(
      pair
        (array_of_size (QCheck.Gen.int_bound 300) (int_bound 60))
        (QCheck.int_range 1 8))
    (fun (keys, partitions) ->
      let values = Array.map (fun k -> k + 1) keys in
      let via_bundle =
        Pipeline.partition_based_grouping ~partitions
          (Pipeline.of_arrays ~keys ~values ())
      in
      let direct = Grouping.hash_based ~keys:(ic keys) ~values:(ic values) () in
      Group_result.equal via_bundle direct)

let test_bundle_aggregation_per_producer () =
  let keys = [| 0; 1; 0; 2 |] and values = [| 5; 6; 7; 8 |] in
  let bundle =
    Pipeline.partition_by_dense_key ~lo:0 ~hi:2
      (Pipeline.of_arrays ~keys ~values ())
  in
  Alcotest.(check int) "three producers" 3 (Array.length bundle);
  let results = Pipeline.aggregate_bundle bundle in
  (* Each member aggregates independently: member 0 sees only key 0. *)
  Alcotest.(check bool) "member 0" true
    (Group_result.to_sorted_alist results.(0) = [ (0, (2, 12)) ]);
  Alcotest.(check bool) "member 2" true
    (Group_result.to_sorted_alist results.(2) = [ (2, (1, 8)) ])

(* --- online aggregation ------------------------------------------------------------ *)

module Online_agg = Dqo_exec.Online_agg

let prop_online_finalize_is_exact =
  QCheck.Test.make ~name:"online aggregation finalises to the exact result"
    ~count:100
    QCheck.(
      pair
        (array_of_size (QCheck.Gen.int_range 1 300) (int_bound 40))
        (QCheck.int_range 1 64))
    (fun (keys, chunk) ->
      let values = Array.map (fun k -> k + 1) keys in
      let result =
        Online_agg.run_progressive ~keys:(ic keys) ~values:(ic values)
          ~report_every:chunk
          (fun _ -> ())
      in
      Group_result.to_sorted_alist result = reference_grouping keys values)

let test_online_snapshots_converge () =
  let rng = Dqo_util.Rng.create ~seed:12 in
  let n = 50_000 in
  let keys = Array.init n (fun _ -> Dqo_util.Rng.int rng 10) in
  let values = Array.make n 1 in
  let snapshots = ref [] in
  let result =
    Online_agg.run_progressive ~keys:(ic keys) ~values:(ic values)
      ~report_every:5_000 (fun s -> snapshots := s :: !snapshots)
  in
  Alcotest.(check int) "10 snapshots" 10 (List.length !snapshots);
  (* Early estimate: on a shuffled uniform stream, after 10% the scaled
     count estimate of each group is within 25% of its final value. *)
  let final = Group_result.to_sorted_alist result in
  let early = List.nth (List.rev !snapshots) 0 in
  List.iter
    (fun (e : Online_agg.estimate) ->
      let _, (exact, _) = List.find (fun (k, _) -> k = e.Online_agg.key) final in
      let err =
        Float.abs (e.Online_agg.est_count -. Float.of_int exact)
        /. Float.of_int exact
      in
      Alcotest.(check bool) "early estimate within 25%" true (err < 0.25))
    early;
  (* Last snapshot's estimates are exact (progress = 1). *)
  let last = List.hd !snapshots in
  List.iter
    (fun (e : Online_agg.estimate) ->
      Alcotest.(check (float 1e-6))
        "final estimate exact"
        (Float.of_int e.Online_agg.seen_count)
        e.Online_agg.est_count)
    last

let test_online_preconditions () =
  let t = Online_agg.create ~total_rows:2 in
  Alcotest.(check int) "rows_seen" 0 (Online_agg.rows_seen t);
  Alcotest.(check bool) "empty snapshot" true (Online_agg.snapshot t = []);
  Alcotest.check_raises "finalize too early"
    (Invalid_argument "Online_agg.finalize: input not fully consumed")
    (fun () -> ignore (Online_agg.finalize t));
  Online_agg.feed t { Pipeline.keys = [| 1; 1 |]; values = [| 2; 3 |] };
  Alcotest.check_raises "overfeed"
    (Invalid_argument "Online_agg.feed: more tuples than total_rows")
    (fun () -> Online_agg.feed t { Pipeline.keys = [| 9 |]; values = [| 9 |] });
  let r = Online_agg.finalize t in
  Alcotest.(check bool) "result" true
    (Group_result.to_sorted_alist r = [ (1, (2, 5)) ])

(* --- aggregates ------------------------------------------------------------------ *)

let test_aggregate_classification () =
  Alcotest.(check bool) "count distributive" true
    (Aggregate.classify Aggregate.Count = Aggregate.Distributive);
  Alcotest.(check bool) "avg algebraic" true
    (Aggregate.classify Aggregate.Avg = Aggregate.Algebraic)

let prop_aggregate_merge_is_sound =
  (* Splitting a stream anywhere and merging partial states must equal
     aggregating the whole stream. *)
  QCheck.Test.make ~name:"merge(fold xs, fold ys) = fold (xs @ ys)" ~count:200
    QCheck.(
      pair (list_of_size (QCheck.Gen.int_bound 30) (int_bound 100))
        (list_of_size (QCheck.Gen.int_bound 30) (int_bound 100)))
    (fun (xs, ys) ->
      List.for_all
        (fun spec ->
          let fold l =
            List.fold_left (Aggregate.step spec) (Aggregate.init spec) l
          in
          Aggregate.finalize spec
            (Aggregate.merge spec (fold xs) (fold ys))
          = Aggregate.finalize spec (fold (xs @ ys)))
        [ Aggregate.Count; Aggregate.Sum; Aggregate.Min; Aggregate.Max;
          Aggregate.Avg ])

let test_aggregate_empty_groups () =
  Alcotest.(check bool) "min of empty is null" true
    (Aggregate.finalize Aggregate.Min (Aggregate.init Aggregate.Min)
    = Dqo_data.Value.Null);
  Alcotest.(check bool) "count of empty is 0" true
    (Aggregate.finalize Aggregate.Count (Aggregate.init Aggregate.Count)
    = Dqo_data.Value.Int 0)

let () =
  Alcotest.run "dqo_exec"
    [
      ( "grouping",
        [
          qtest prop_all_groupings_agree;
          qtest prop_hash_molecules_agree;
          qtest prop_boxed_hg_agrees;
          Alcotest.test_case "edge cases" `Quick test_grouping_edge_cases;
          Alcotest.test_case "preconditions" `Quick
            test_grouping_preconditions;
          Alcotest.test_case "sph output sorted" `Quick
            test_sph_output_sorted_by_key;
          Alcotest.test_case "og on clustered" `Quick
            test_og_on_clustered_unsorted_input;
          Alcotest.test_case "applicability" `Quick test_applicability_matrix;
          qtest prop_of_slots_compacts;
        ] );
      ( "join",
        [
          qtest prop_joins_match_nested_loop;
          qtest prop_merge_join_on_sorted;
          Alcotest.test_case "merge requires sorted" `Quick
            test_merge_join_requires_sorted;
          Alcotest.test_case "duplicate cross product" `Quick
            test_join_duplicates_cross_product;
          Alcotest.test_case "sph domain" `Quick test_sph_join_domain;
          Alcotest.test_case "materialize" `Quick test_join_materialize;
          qtest prop_pair_order_matches_chained;
        ] );
      ( "sort-filter",
        [
          Alcotest.test_case "stable sort" `Quick test_sort_op_stable;
          qtest prop_filter_matches_spec;
          Alcotest.test_case "selectivity" `Quick test_selectivity_bounds;
          qtest prop_permutation_matches_reference;
        ] );
      ( "measure",
        [
          Alcotest.test_case "of_relation golden" `Quick
            test_of_relation_golden;
          qtest prop_of_relation_matches_reference;
        ] );
      ( "pipeline",
        [
          qtest prop_hash_partition_covers;
          Alcotest.test_case "figure 2 semantics" `Quick
            test_dense_key_partition_is_figure2;
          Alcotest.test_case "collect roundtrip" `Quick
            test_pipeline_collect_roundtrip;
          Alcotest.test_case "filter & map" `Quick test_pipeline_filter_map;
          qtest prop_partition_based_grouping_equals_hg;
          Alcotest.test_case "bundle aggregation" `Quick
            test_bundle_aggregation_per_producer;
        ] );
      ( "online-aggregation",
        [
          qtest prop_online_finalize_is_exact;
          Alcotest.test_case "snapshots converge" `Quick
            test_online_snapshots_converge;
          Alcotest.test_case "preconditions" `Quick test_online_preconditions;
        ] );
      ( "aggregate",
        [
          Alcotest.test_case "classification" `Quick
            test_aggregate_classification;
          qtest prop_aggregate_merge_is_sound;
          Alcotest.test_case "empty groups" `Quick test_aggregate_empty_groups;
        ] );
    ]
