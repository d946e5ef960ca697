(* Runtime adaptivity: database cracking as a partial algorithmic view
   (paper §6, "Runtime-Adaptivity and Reoptimisation of AVs").

   A cracker index delegates all indexing decisions to query time: every
   range query physically reorganises just enough of the column to
   answer itself.  In AV terms it is a partial AV whose offline fraction
   is zero and whose residual decisions are bound incrementally by the
   workload itself.

   The example fires a stream of random range queries at a 5M-row
   column and reports, in phases: cracking time vs a full scan, how the
   piece count grows, and when the index converges.  It closes by
   showing the same offline/online spectrum on the component table
   (Partial AVs of the grouping operator).

   Run with: dune exec examples/adaptive_index.exe *)

module Cracking = Dqo_index.Cracking
module Partial = Dqo_av.Partial
module Granule = Dqo_plan.Granule
module Table_printer = Dqo_util.Table_printer

let rows = 5_000_000
let domain = 100_000
let queries_per_phase = 25
let phases = 6

let () =
  let rng = Dqo_util.Rng.create ~seed:99 in
  let column = Array.init rows (fun _ -> Dqo_util.Rng.int rng domain) in
  let cracker = Cracking.create column in

  Printf.printf
    "Cracking a %d-row column (domain %d): %d phases of %d range queries.\n\n"
    rows domain phases queries_per_phase;
  let table =
    Table_printer.create
      ~header:
        [ "phase"; "crack ms/q"; "scan ms/q"; "pieces"; "converged" ]
  in
  for phase = 1 to phases do
    let crack_total = ref 0.0 and scan_total = ref 0.0 in
    for _ = 1 to queries_per_phase do
      let a = Dqo_util.Rng.int rng domain in
      let b = min (domain - 1) (a + Dqo_util.Rng.int rng 1_000) in
      let crack_count, crack_ms =
        Dqo_util.Timer.time_ms (fun () -> Cracking.count_range cracker ~lo:a ~hi:b)
      in
      let scan_count, scan_ms =
        Dqo_util.Timer.time_ms (fun () ->
            Array.fold_left
              (fun acc v -> if v >= a && v <= b then acc + 1 else acc)
              0 column)
      in
      assert (crack_count = scan_count);
      crack_total := !crack_total +. crack_ms;
      scan_total := !scan_total +. scan_ms
    done;
    Table_printer.add_row table
      [
        string_of_int phase;
        Printf.sprintf "%.2f" (!crack_total /. Float.of_int queries_per_phase);
        Printf.sprintf "%.2f" (!scan_total /. Float.of_int queries_per_phase);
        string_of_int (Cracking.piece_count cracker);
        string_of_bool (Cracking.is_converged cracker);
      ]
  done;
  Table_printer.print table;
  print_endline
    "Per-query cracking cost collapses after the first phases while the\n\
     full scan stays flat: the index pays for itself query by query.\n";

  (* The same offline/online spectrum, stated on the component table the
     optimiser searches. *)
  let available = Granule.all_requirements in
  let show label p =
    Printf.printf "%-48s residual plans: %3d   offline fraction: %.2f\n" label
      (Partial.residual_count ~available p)
      (Partial.offline_fraction ~available p)
  in
  print_endline "Partial AVs of the grouping operator (paper §6):";
  let p0 = Partial.create Granule.grouping in
  show "nothing fixed (pure query-time DQO)" p0;
  let p1 = Partial.specialize p0 ~path:"grouping.algorithm" ~choice:"HG" in
  show "algorithm fixed offline" p1;
  let p2 = Partial.specialize p1 ~path:"grouping.layout" ~choice:"robin-hood" in
  show "+ hash-table layout fixed offline" p2;
  let p3 = Partial.specialize p2 ~path:"grouping.mixer" ~choice:"murmur3" in
  show "fully materialised (a classic AV)" p3
