(* Grouping lab: a hands-on tour of the five grouping implementations of
   the paper's Section 4.1 on all four dataset shapes
   (sorted/unsorted x dense/sparse).

   For each dataset the applicable algorithms are timed and the winner is
   reported — a miniature of the paper's Figure 4 at laptop-friendly
   scale (the full sweep lives in bench/main.exe).

   Run with: dune exec examples/grouping_lab.exe [-- rows] *)

module Grouping = Dqo_exec.Grouping
module Granule = Dqo_plan.Granule
module Group_result = Dqo_exec.Group_result
module Datagen = Dqo_data.Datagen
module Table_printer = Dqo_util.Table_printer

let rows =
  if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 2_000_000

let groups = 10_000

let () =
  Printf.printf
    "Grouping %d rows into %d groups; COUNT and SUM computed on the fly.\n\n"
    rows groups;
  let table =
    Table_printer.create
      ~header:[ "dataset"; "HG"; "SPHG"; "OG"; "SOG"; "BSG"; "winner" ]
  in
  List.iter
    (fun (sorted, dense) ->
      let rng = Dqo_util.Rng.create ~seed:7 in
      let dataset = Datagen.grouping ~rng ~n:rows ~groups ~sorted ~dense () in
      let values = Dqo_data.Int_col.const rows 1 in
      let expected = ref None in
      let cells, best =
        List.fold_left
          (fun (cells, best) alg ->
            let applicable =
              Granule.applicable Granule.grouping alg
                ~available:(Granule.measured ~clustered:sorted ~dense)
            in
            if not applicable then (cells @ [ "n/a" ], best)
            else begin
              let result, ms =
                Dqo_util.Timer.best_of ~repeats:2 (fun () ->
                    Grouping.run alg ~dataset ~values)
              in
              (* All algorithms must agree on the result. *)
              (match !expected with
              | None -> expected := Some (Group_result.to_sorted_alist result)
              | Some e -> assert (e = Group_result.to_sorted_alist result));
              let best =
                match best with
                | Some (_, bms) when bms <= ms -> best
                | _ -> Some (Grouping.name alg, ms)
              in
              (cells @ [ Printf.sprintf "%.0f" ms ], best)
            end)
          ([], None) Grouping.all
      in
      let name =
        Printf.sprintf "%s/%s"
          (if sorted then "sorted" else "unsorted")
          (if dense then "dense" else "sparse")
      in
      let winner = match best with Some (n, _) -> n | None -> "-" in
      Table_printer.add_row table ((name :: cells) @ [ winner ]))
    [ (true, true); (true, false); (false, true); (false, false) ];
  print_endline "Runtime in milliseconds (best of 2):\n";
  Table_printer.print table;
  print_endline
    "Expected shape (cf. Figure 4 of the paper): OG wins when sorted,\n\
     SPHG wins when unsorted+dense, HG wins when unsorted+sparse;\n\
     SOG pays the extra sort; all five agree on the result."
