(* Unit and property tests for the dqo_util substrate. *)

module Rng = Dqo_util.Rng
module Int_array = Dqo_util.Int_array
module Bitset = Dqo_util.Bitset
module Stats = Dqo_util.Stats
module Table_printer = Dqo_util.Table_printer

let qtest = QCheck_alcotest.to_alcotest

(* --- rng ------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:123 and b = Rng.create ~seed:123 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Rng.next a = Rng.next b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 5)

let test_rng_bounds () =
  let rng = Rng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 10 in
    Alcotest.(check bool) "in [0,10)" true (v >= 0 && v < 10)
  done;
  for _ = 1 to 1000 do
    let v = Rng.int_in_range rng ~lo:(-5) ~hi:5 in
    Alcotest.(check bool) "in [-5,5]" true (v >= -5 && v <= 5)
  done

let test_rng_invalid_args () =
  let rng = Rng.create ~seed:1 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0));
  Alcotest.check_raises "hi < lo" (Invalid_argument "Rng.int_in_range: hi < lo")
    (fun () -> ignore (Rng.int_in_range rng ~lo:3 ~hi:2))

let test_rng_shuffle_is_permutation () =
  let rng = Rng.create ~seed:11 in
  let a = Array.init 100 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Int_array.sort sorted;
  Alcotest.(check bool) "permutation" true (sorted = Array.init 100 (fun i -> i))

let test_sample_distinct () =
  let rng = Rng.create ~seed:13 in
  (* Hash-set path (k small relative to bound). *)
  let s = Rng.sample_distinct rng ~k:100 ~bound:1_000_000 in
  Alcotest.(check int) "k values" 100 (Array.length s);
  Alcotest.(check int) "distinct" 100 (Int_array.count_distinct s);
  Array.iter
    (fun v -> Alcotest.(check bool) "in range" true (v >= 0 && v < 1_000_000))
    s;
  (* Fisher-Yates path (k close to bound). *)
  let s = Rng.sample_distinct rng ~k:90 ~bound:100 in
  Alcotest.(check int) "distinct dense" 90 (Int_array.count_distinct s);
  (* k = bound: the whole domain. *)
  let s = Rng.sample_distinct rng ~k:16 ~bound:16 in
  let sorted = Array.copy s in
  Int_array.sort sorted;
  Alcotest.(check bool) "whole domain" true
    (sorted = Array.init 16 (fun i -> i))

let test_split_independent () =
  let rng = Rng.create ~seed:17 in
  let child = Rng.split rng in
  let v1 = Rng.next child in
  (* Same construction must reproduce the child stream. *)
  let rng' = Rng.create ~seed:17 in
  let child' = Rng.split rng' in
  Alcotest.(check int) "reproducible split" v1 (Rng.next child')

(* --- int_array ------------------------------------------------------ *)

let int_array_gen =
  QCheck.Gen.(array_size (int_bound 200) (int_bound 10_000))

let prop_merge_sort_sorts =
  QCheck.Test.make ~name:"merge_sort sorts and permutes" ~count:200
    (QCheck.make int_array_gen) (fun a ->
      let b = Array.copy a in
      Int_array.merge_sort b;
      Int_array.is_sorted b
      && List.sort compare (Array.to_list a) = Array.to_list b)

let prop_radix_sort_matches_merge =
  QCheck.Test.make ~name:"radix_sort = merge_sort on non-negatives" ~count:200
    (QCheck.make int_array_gen) (fun a ->
      let b = Array.copy a and c = Array.copy a in
      Int_array.radix_sort b;
      Int_array.merge_sort c;
      b = c)

let test_radix_large_values () =
  (* Regression: values with bits at or above 2^56 once made the LSD loop
     shift by >= 63, which is unspecified and looped forever. *)
  let a = [| 1 lsl 60; 3; (1 lsl 60) + 1; 1 lsl 57; 0 |] in
  let expected = Array.copy a in
  Array.sort compare expected;
  Int_array.radix_sort a;
  Alcotest.(check bool) "sorted" true (a = expected)

let test_radix_rejects_negative () =
  Alcotest.check_raises "negative input"
    (Invalid_argument "Int_array.radix_sort: negative element") (fun () ->
      Int_array.radix_sort [| 3; -1; 2 |])

let prop_binary_search_matches_linear =
  QCheck.Test.make ~name:"binary_search = linear scan" ~count:300
    QCheck.(pair (make int_array_gen) (int_bound 10_000))
    (fun (a, key) ->
      let b = Int_array.sorted_copy a in
      let found = Int_array.binary_search b key in
      let linear = Array.exists (fun v -> v = key) b in
      match found with
      | Some i -> b.(i) = key
      | None -> not linear)

let prop_bounds_bracket_key =
  QCheck.Test.make ~name:"lower/upper bound bracket equal run" ~count:300
    QCheck.(pair (make int_array_gen) (int_bound 10_000))
    (fun (a, key) ->
      let b = Int_array.sorted_copy a in
      let lo = Int_array.lower_bound b key in
      let hi = Int_array.upper_bound b key in
      let count = Array.fold_left (fun acc v -> if v = key then acc + 1 else acc) 0 b in
      hi - lo = count
      && (lo = 0 || b.(lo - 1) < key)
      && (hi >= Array.length b || b.(hi) > key))

let test_sort_pairs_co_sorts () =
  let keys = [| 5; 1; 3; 1 |] and payload = [| 50; 10; 30; 11 |] in
  Int_array.sort_pairs keys payload;
  Alcotest.(check bool) "keys sorted" true (Int_array.is_sorted keys);
  (* Each payload must still travel with its key. *)
  let pairs = Array.to_list (Array.map2 (fun k v -> (k, v)) keys payload) in
  Alcotest.(check bool) "pairs preserved" true
    (List.sort compare pairs = [ (1, 10); (1, 11); (3, 30); (5, 50) ])

(* The comparison sort the radix permutation replaced, kept as the
   reference: [Array.sort] over row ids under the (key, index) order. *)
let reference_permutation keys =
  let perm = Array.init (Array.length keys) (fun i -> i) in
  let cmp i j =
    let c = Int.compare keys.(i) keys.(j) in
    if c <> 0 then c else Int.compare i j
  in
  Array.sort cmp perm;
  perm

(* Keys for the permutation kernel: empty, one and two rows, all-equal,
   already sorted, heavy duplicates, negatives, wide ranges that still
   pack with a row id (several radix passes), and values up to
   [min_int]/[max_int] (where [max - min] overflows or no longer packs
   with a row id, so the comparison fallback runs). *)
let permutation_keys_gen =
  QCheck.Gen.(
    let* n = oneof [ int_range 0 2; int_range 3 40; int_range 41 3000 ] in
    let* shape = int_range 0 6 in
    let edge =
      oneofl
        [ min_int; min_int + 1; max_int; max_int - 1; 0; -1; 1 lsl 50;
          (1 lsl 52) + 1; -(1 lsl 55) ]
    in
    let+ keys =
      match shape with
      | 0 -> map (fun v -> Array.make n v) (int_range (-5) 5)
      | 1 -> array_repeat n (int_range (-20) 20)
      | 2 -> array_repeat n (int_range (-1_000_000) 1_000_000)
      | 3 -> array_repeat n (oneof [ edge; int_range (-3) 3 ])
      | 4 -> array_repeat n (oneof [ int; int_range 0 100 ])
      | 5 -> array_repeat n (oneof [ int_range 0 (1 lsl 45); int_range (-3) 3 ])
      | _ ->
        map
          (fun a ->
            Array.sort compare a;
            a)
          (array_repeat n (int_range 0 50))
    in
    keys)

let show_keys a =
  "[|" ^ String.concat "; " (Array.to_list (Array.map string_of_int a)) ^ "|]"

let prop_stable_permutation_matches_reference =
  QCheck.Test.make ~name:"stable_permutation = (key, index) Array.sort"
    ~count:1000
    (QCheck.make ~print:show_keys permutation_keys_gen)
    (fun keys ->
      let before = Array.copy keys in
      Int_array.stable_permutation keys = reference_permutation keys
      && keys = before)

let prop_sort_pairs_is_stable =
  QCheck.Test.make ~name:"sort_pairs = stable co-sort" ~count:500
    (QCheck.make ~print:show_keys permutation_keys_gen)
    (fun keys ->
      let perm = reference_permutation keys in
      let payload = Array.init (Array.length keys) (fun i -> (7 * i) + 1) in
      let ks = Array.copy keys and ps = Array.copy payload in
      Int_array.sort_pairs ks ps;
      ks = Array.map (fun i -> keys.(i)) perm
      && ps = Array.map (fun i -> payload.(i)) perm)

let prop_count_distinct_matches_reference =
  QCheck.Test.make ~name:"count_distinct = sort_uniq length" ~count:500
    (QCheck.make ~print:show_keys permutation_keys_gen)
    (fun keys ->
      Int_array.count_distinct keys
      = List.length (List.sort_uniq Int.compare (Array.to_list keys)))

let test_distinct_sorted () =
  Alcotest.(check bool) "dedup" true
    (Int_array.distinct_sorted [| 3; 1; 3; 2; 1 |] = [| 1; 2; 3 |]);
  Alcotest.(check bool) "empty" true (Int_array.distinct_sorted [||] = [||]);
  Alcotest.(check int) "count" 3 (Int_array.count_distinct [| 3; 1; 3; 2; 1 |])

let test_prefix_sums () =
  Alcotest.(check bool) "sums" true
    (Int_array.prefix_sums [| 1; 2; 3 |] = [| 0; 1; 3; 6 |]);
  Alcotest.(check bool) "empty" true (Int_array.prefix_sums [||] = [| 0 |])

let test_min_max_and_misc () =
  Alcotest.(check bool) "min_max" true
    (Int_array.min_max [| 3; -1; 7 |] = Some (-1, 7));
  Alcotest.(check bool) "empty" true (Int_array.min_max [||] = None);
  let a = [| 1; 2; 3 |] in
  Int_array.reverse a;
  Alcotest.(check bool) "reverse" true (a = [| 3; 2; 1 |]);
  Alcotest.(check int) "sum" 6 (Int_array.sum a)

(* --- bitset ---------------------------------------------------------- *)

let test_bitset_algebra () =
  let s = Bitset.of_list [ 1; 3; 5 ] in
  Alcotest.(check bool) "mem 3" true (Bitset.mem 3 s);
  Alcotest.(check bool) "mem 2" false (Bitset.mem 2 s);
  Alcotest.(check int) "cardinal" 3 (Bitset.cardinal s);
  Alcotest.(check (list int)) "to_list sorted" [ 1; 3; 5 ] (Bitset.to_list s);
  let t = Bitset.of_list [ 3; 4 ] in
  Alcotest.(check (list int)) "union" [ 1; 3; 4; 5 ]
    (Bitset.to_list (Bitset.union s t));
  Alcotest.(check (list int)) "inter" [ 3 ] (Bitset.to_list (Bitset.inter s t));
  Alcotest.(check (list int)) "diff" [ 1; 5 ] (Bitset.to_list (Bitset.diff s t));
  Alcotest.(check bool) "subset" true (Bitset.subset (Bitset.singleton 3) s);
  Alcotest.(check bool) "disjoint" true
    (Bitset.disjoint s (Bitset.of_list [ 0; 2 ]))

let test_bitset_subsets () =
  let s = Bitset.of_list [ 0; 1; 2 ] in
  let subs = Bitset.subsets s in
  (* Non-empty proper subsets of a 3-set: 2^3 - 2 = 6. *)
  Alcotest.(check int) "count" 6 (List.length subs);
  List.iter
    (fun sub ->
      Alcotest.(check bool) "proper subset" true
        (Bitset.subset sub s && (not (Bitset.equal sub s))
        && not (Bitset.is_empty sub)))
    subs

(* The streaming per-cardinality enumerator must agree with [subsets]
   (union over cardinalities = all non-empty proper subsets) and emit
   each level in ascending integer order — the order the DP's level
   barrier merges in. *)
let test_bitset_sized_subsets () =
  let binomial n k =
    let rec go acc i =
      if i > k then acc else go (acc * (n - i + 1) / i) (i + 1)
    in
    if k < 0 || k > n then 0 else go 1 1
  in
  List.iter
    (fun members ->
      let s = Bitset.of_list members in
      let n = Bitset.cardinal s in
      let ints l = List.map Bitset.to_list l in
      (* Each level: right count, right cardinality, ascending order. *)
      for c = 1 to n do
        let level = Bitset.sized_subsets s c in
        Alcotest.(check int)
          (Printf.sprintf "C(%d,%d)" n c)
          (binomial n c) (List.length level);
        List.iter
          (fun sub ->
            Alcotest.(check bool) "subset" true (Bitset.subset sub s);
            Alcotest.(check int) "cardinality" c (Bitset.cardinal sub))
          level;
        (* Order contract: each level appears exactly as it does inside
           [subsets] — what a cardinality-stable sort would give the DP. *)
        if c < n then
          Alcotest.(check (list (list int)))
            "subsets order preserved" (ints level)
            (ints
               (List.filter
                  (fun sub -> Bitset.cardinal sub = c)
                  (Bitset.subsets s)))
      done;
      (* All levels below [n] together = [subsets s]. *)
      let streamed =
        List.concat (List.init (max 0 (n - 1)) (fun i ->
            Bitset.sized_subsets s (i + 1)))
      in
      Alcotest.(check (list (list int)))
        "union of levels = subsets"
        (ints (List.sort Bitset.compare (Bitset.subsets s)))
        (ints (List.sort Bitset.compare streamed)))
    [ [ 0 ]; [ 0; 1; 2 ]; [ 0; 1; 2; 3; 4 ]; [ 1; 3; 4; 7; 10; 62 ] ];
  (* Edges. *)
  let s = Bitset.of_list [ 2; 5 ] in
  Alcotest.(check (list (list int)))
    "c = 0" [ [] ]
    (List.map Bitset.to_list (Bitset.sized_subsets s 0));
  Alcotest.(check (list (list int)))
    "c = n" [ [ 2; 5 ] ]
    (List.map Bitset.to_list (Bitset.sized_subsets s 2));
  Alcotest.(check (list (list int)))
    "c > n" []
    (List.map Bitset.to_list (Bitset.sized_subsets s 3))

let test_bitset_full_and_bounds () =
  Alcotest.(check int) "full 5" 5 (Bitset.cardinal (Bitset.full 5));
  Alcotest.(check int) "full 0" 0 (Bitset.cardinal (Bitset.full 0));
  Alcotest.check_raises "negative element"
    (Invalid_argument "Bitset: negative element") (fun () ->
      ignore (Bitset.singleton (-1)))

(* The width boundary: elements 62 (top bit of the one-word path), 63
   and 64 (first elements of the wide path).  Operations, equality,
   ordering and hashing must agree across the two representations. *)
let test_bitset_wide () =
  (* Basic algebra across the boundary. *)
  let s = Bitset.of_list [ 2; 62; 63; 64; 100 ] in
  Alcotest.(check int) "cardinal" 5 (Bitset.cardinal s);
  List.iter
    (fun i ->
      Alcotest.(check bool) (Printf.sprintf "mem %d" i) true (Bitset.mem i s))
    [ 2; 62; 63; 64; 100 ];
  Alcotest.(check bool) "mem 65" false (Bitset.mem 65 s);
  Alcotest.(check (list int)) "to_list" [ 2; 62; 63; 64; 100 ]
    (Bitset.to_list s);
  let t = Bitset.of_list [ 62; 63; 200 ] in
  Alcotest.(check (list int)) "union" [ 2; 62; 63; 64; 100; 200 ]
    (Bitset.to_list (Bitset.union s t));
  Alcotest.(check (list int)) "inter" [ 62; 63 ]
    (Bitset.to_list (Bitset.inter s t));
  Alcotest.(check (list int)) "diff" [ 2; 64; 100 ]
    (Bitset.to_list (Bitset.diff s t));
  Alcotest.(check bool) "subset" true
    (Bitset.subset (Bitset.of_list [ 63; 100 ]) s);
  Alcotest.(check bool) "not subset (wide vs word)" false
    (Bitset.subset (Bitset.singleton 63) (Bitset.full 63));
  Alcotest.(check bool) "disjoint" true
    (Bitset.disjoint (Bitset.of_list [ 0; 70 ]) (Bitset.of_list [ 1; 71 ]));
  (* [full] past one word. *)
  Alcotest.(check int) "full 64" 64 (Bitset.cardinal (Bitset.full 64));
  Alcotest.(check bool) "63 in full 64" true (Bitset.mem 63 (Bitset.full 64));
  Alcotest.(check int) "full 126" 126 (Bitset.cardinal (Bitset.full 126));
  Alcotest.(check int) "full 127" 127 (Bitset.cardinal (Bitset.full 127));
  Alcotest.(check bool) "full 126 subset of full 127" true
    (Bitset.subset (Bitset.full 126) (Bitset.full 127));
  (* Cross-width agreement: a set built wide that shrinks back under 63
     must be indistinguishable from one built narrow. *)
  let narrow = Bitset.of_list [ 1; 2; 62 ] in
  let wide = Bitset.remove 70 (Bitset.of_list [ 1; 2; 62; 70 ]) in
  Alcotest.(check bool) "cross-width equal" true (Bitset.equal narrow wide);
  Alcotest.(check int) "cross-width compare" 0 (Bitset.compare narrow wide);
  Alcotest.(check int) "cross-width hash" (Bitset.hash narrow)
    (Bitset.hash wide);
  Alcotest.(check bool) "generic hashtbl agreement" true
    (Hashtbl.hash narrow = Hashtbl.hash wide);
  (* Compare is the ascending-unsigned (colex) order across widths:
     {62} < {0..62} is the unsigned rule the sign bit used to break,
     and any wide set sorts after any one-word set. *)
  Alcotest.(check bool) "compare colex at sign bit" true
    (Bitset.compare (Bitset.singleton 62) (Bitset.full 63) < 0);
  Alcotest.(check bool) "wide sorts after word" true
    (Bitset.compare (Bitset.full 63) (Bitset.singleton 63) < 0);
  Alcotest.(check bool) "colex: highest member decides" true
    (Bitset.compare (Bitset.of_list [ 0; 63 ]) (Bitset.of_list [ 62; 64 ]) < 0)

(* [iter_subsets] must visit exactly the [subsets] list, in the same
   order, on both representations; [sized_subsets] keeps colex order
   above the word boundary too. *)
let test_bitset_wide_subsets () =
  let check_iter members =
    let s = Bitset.of_list members in
    let seen = ref [] in
    Bitset.iter_subsets (fun sub -> seen := sub :: !seen) s;
    Alcotest.(check (list (list int)))
      (Printf.sprintf "iter = list (%d members)" (List.length members))
      (List.map Bitset.to_list (Bitset.subsets s))
      (List.map Bitset.to_list (List.rev !seen))
  in
  List.iter check_iter
    [ []; [ 5 ]; [ 0; 1; 2 ]; [ 1; 3; 62 ]; [ 0; 62; 63 ]; [ 2; 63; 64; 130 ] ];
  let s = Bitset.of_list [ 60; 61; 62; 63; 64; 65 ] in
  Alcotest.(check int) "wide subsets count" (64 - 2)
    (List.length (Bitset.subsets s));
  (* Ascending order straddling the boundary. *)
  let sorted l = List.sort Bitset.compare l in
  Alcotest.(check (list (list int)))
    "subsets ascending under compare"
    (List.map Bitset.to_list (sorted (Bitset.subsets s)))
    (List.map Bitset.to_list (Bitset.subsets s));
  for c = 1 to 5 do
    let level = Bitset.sized_subsets s c in
    Alcotest.(check (list (list int)))
      (Printf.sprintf "sized_subsets colex (c=%d)" c)
      (List.map Bitset.to_list
         (List.filter (fun sub -> Bitset.cardinal sub = c) (Bitset.subsets s)))
      (List.map Bitset.to_list level)
  done

(* Element 62 lives in the sign bit of the 63-bit OCaml int; [full 63]
   used to drop it. *)
let test_bitset_sign_bit_boundary () =
  let top = Bitset.full 63 in
  Alcotest.(check int) "full 63 has 63 elements" 63 (Bitset.cardinal top);
  Alcotest.(check bool) "62 in full 63" true (Bitset.mem 62 top);
  Alcotest.(check bool) "62 not in full 62" false
    (Bitset.mem 62 (Bitset.full 62));
  Alcotest.(check int) "full 62 has 62 elements" 62
    (Bitset.cardinal (Bitset.full 62));
  let s = Bitset.singleton 62 in
  Alcotest.(check bool) "mem singleton 62" true (Bitset.mem 62 s);
  Alcotest.(check (list int)) "to_list keeps 62" [ 0; 62 ]
    (Bitset.to_list (Bitset.add 0 s));
  Alcotest.(check bool) "subset of full" true (Bitset.subset s top);
  Alcotest.(check int) "remove 62" 62
    (Bitset.cardinal (Bitset.remove 62 top))

(* --- stats ----------------------------------------------------------- *)

let test_stats_basics () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean [| 1.0; 2.0; 3.0 |]);
  Alcotest.(check (float 1e-9)) "variance" 1.0 (Stats.variance [| 1.0; 2.0; 3.0 |]);
  Alcotest.(check (float 1e-9)) "median odd" 2.0 (Stats.median [| 3.0; 1.0; 2.0 |]);
  Alcotest.(check (float 1e-9)) "median even" 1.5
    (Stats.median [| 2.0; 1.0 |]);
  Alcotest.(check bool) "mean empty nan" true (Float.is_nan (Stats.mean [||]))

let test_stats_linear_fit () =
  let slope, intercept =
    Stats.linear_fit [| (0.0, 1.0); (1.0, 3.0); (2.0, 5.0) |]
  in
  Alcotest.(check (float 1e-9)) "slope" 2.0 slope;
  Alcotest.(check (float 1e-9)) "intercept" 1.0 intercept

let test_stats_linear_fit_constant_x () =
  (* A vertical point cloud has no least-squares line; returning
     nan/inf silently used to poison calibration downstream. *)
  Alcotest.check_raises "constant x"
    (Invalid_argument "Stats.linear_fit: x values are constant") (fun () ->
      ignore (Stats.linear_fit [| (2.0, 1.0); (2.0, 3.0); (2.0, 5.0) |]))

let test_stats_percentile_and_geomean () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check (float 1e-9)) "p50" 2.0 (Stats.percentile xs 50.0);
  Alcotest.(check (float 1e-9)) "p100" 4.0 (Stats.percentile xs 100.0);
  Alcotest.(check (float 1e-9)) "geomean" 2.0
    (Stats.geometric_mean [| 1.0; 2.0; 4.0 |])

(* --- table printer ---------------------------------------------------- *)

let test_table_printer () =
  let t = Table_printer.create ~header:[ "algo"; "ms" ] in
  Table_printer.add_row t [ "HG"; "123.40" ];
  Table_printer.add_float_row t "OG" [ 45.6 ];
  let s = Table_printer.render t in
  Alcotest.(check bool) "has header" true (Astring.String.is_infix ~affix:"algo" s);
  Alcotest.(check bool) "has row" true (Astring.String.is_infix ~affix:"45.60" s);
  Alcotest.check_raises "too many cells"
    (Invalid_argument "Table_printer.add_row: too many cells") (fun () ->
      Table_printer.add_row t [ "a"; "b"; "c" ])

(* --- timer ------------------------------------------------------------ *)

let test_timer () =
  let r, ms = Dqo_util.Timer.time_ms (fun () -> 42) in
  Alcotest.(check int) "result" 42 r;
  Alcotest.(check bool) "non-negative" true (ms >= 0.0);
  let r, _ = Dqo_util.Timer.best_of ~repeats:3 (fun () -> "x") in
  Alcotest.(check string) "best_of result" "x" r;
  let r, _ = Dqo_util.Timer.median_of ~repeats:4 (fun () -> 1) in
  Alcotest.(check int) "median_of result" 1 r

let () =
  Alcotest.run "dqo_util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "invalid args" `Quick test_rng_invalid_args;
          Alcotest.test_case "shuffle permutes" `Quick
            test_rng_shuffle_is_permutation;
          Alcotest.test_case "sample distinct" `Quick test_sample_distinct;
          Alcotest.test_case "split" `Quick test_split_independent;
        ] );
      ( "int_array",
        [
          qtest prop_merge_sort_sorts;
          qtest prop_radix_sort_matches_merge;
          Alcotest.test_case "radix large values" `Quick
            test_radix_large_values;
          Alcotest.test_case "radix rejects negatives" `Quick
            test_radix_rejects_negative;
          qtest prop_binary_search_matches_linear;
          qtest prop_bounds_bracket_key;
          Alcotest.test_case "sort_pairs" `Quick test_sort_pairs_co_sorts;
          Alcotest.test_case "distinct_sorted" `Quick test_distinct_sorted;
          Alcotest.test_case "prefix_sums" `Quick test_prefix_sums;
          Alcotest.test_case "min_max & misc" `Quick test_min_max_and_misc;
          qtest prop_stable_permutation_matches_reference;
          qtest prop_sort_pairs_is_stable;
          qtest prop_count_distinct_matches_reference;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "algebra" `Quick test_bitset_algebra;
          Alcotest.test_case "subsets" `Quick test_bitset_subsets;
          Alcotest.test_case "sized subsets" `Quick test_bitset_sized_subsets;
          Alcotest.test_case "full & bounds" `Quick test_bitset_full_and_bounds;
          Alcotest.test_case "sign-bit boundary" `Quick
            test_bitset_sign_bit_boundary;
          Alcotest.test_case "wide width boundary" `Quick test_bitset_wide;
          Alcotest.test_case "wide subsets & iter" `Quick
            test_bitset_wide_subsets;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basics" `Quick test_stats_basics;
          Alcotest.test_case "linear fit" `Quick test_stats_linear_fit;
          Alcotest.test_case "linear fit constant x" `Quick
            test_stats_linear_fit_constant_x;
          Alcotest.test_case "percentile & geomean" `Quick
            test_stats_percentile_and_geomean;
        ] );
      ( "output",
        [
          Alcotest.test_case "table printer" `Quick test_table_printer;
          Alcotest.test_case "timer" `Quick test_timer;
        ] );
    ]
