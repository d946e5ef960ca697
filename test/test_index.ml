(* Tests for database cracking, the adaptive index: range queries agree
   with a full scan, the cracker index refines and converges. *)

module Cracking = Dqo_index.Cracking

let qtest = QCheck_alcotest.to_alcotest

let reference_range column ~lo ~hi =
  let acc = ref [] in
  Array.iteri (fun i v -> if v >= lo && v <= hi then acc := i :: !acc) column;
  List.sort compare !acc

let prop_cracking_matches_reference =
  let gen =
    QCheck.Gen.(
      pair
        (array_size (int_range 1 300) (int_bound 1_000))
        (list_size (int_bound 12) (pair (int_bound 1_000) (int_bound 1_000))))
  in
  QCheck.Test.make ~name:"cracking query = full scan" ~count:80
    (QCheck.make gen) (fun (column, queries) ->
      let c = Cracking.create column in
      List.for_all
        (fun (a, b) ->
          let lo = min a b and hi = max a b in
          let got = List.sort compare (Array.to_list (Cracking.query_range c ~lo ~hi)) in
          Cracking.check_invariants c;
          got = reference_range column ~lo ~hi)
        queries)

let test_cracking_refines () =
  let rng = Dqo_util.Rng.create ~seed:3 in
  let column = Array.init 10_000 (fun _ -> Dqo_util.Rng.int rng 1_000) in
  let c = Cracking.create column in
  Alcotest.(check int) "starts as one piece" 1 (Cracking.piece_count c);
  ignore (Cracking.query_range c ~lo:100 ~hi:200);
  let p1 = Cracking.piece_count c in
  Alcotest.(check bool) "first query cracks" true (p1 > 1);
  ignore (Cracking.query_range c ~lo:500 ~hi:600);
  Alcotest.(check bool) "more queries refine further" true
    (Cracking.piece_count c > p1);
  (* Repeating a query adds no pieces. *)
  let p2 = Cracking.piece_count c in
  ignore (Cracking.query_range c ~lo:500 ~hi:600);
  Alcotest.(check int) "idempotent" p2 (Cracking.piece_count c)

let test_cracking_counts () =
  let column = [| 5; 3; 8; 3; 1 |] in
  let c = Cracking.create column in
  Alcotest.(check int) "count" 2 (Cracking.count_range c ~lo:3 ~hi:4);
  Alcotest.(check int) "count all" 5 (Cracking.count_range c ~lo:0 ~hi:10);
  Alcotest.(check int) "count none" 0 (Cracking.count_range c ~lo:20 ~hi:30)

let test_cracking_convergence () =
  let column = [| 4; 2; 1; 3 |] in
  let c = Cracking.create column in
  Alcotest.(check bool) "not converged initially" false (Cracking.is_converged c);
  for v = 0 to 4 do
    ignore (Cracking.query_range c ~lo:v ~hi:v)
  done;
  Alcotest.(check bool) "converged after point queries" true
    (Cracking.is_converged c)

let () =
  Alcotest.run "dqo_index"
    [
      ( "cracking",
        [
          qtest prop_cracking_matches_reference;
          Alcotest.test_case "refines" `Quick test_cracking_refines;
          Alcotest.test_case "counts" `Quick test_cracking_counts;
          Alcotest.test_case "convergence" `Quick test_cracking_convergence;
        ] );
    ]
