(* dqo — command-line interface to the Deep Query Optimisation library.

   Subcommands:
     run        generate the paper's R/S database and run a SQL query
     explain    show the SQO-vs-DQO plan comparison for a query
     granules   print the component table the optimiser searches
     calibrate  measure the cost model's constants on this machine
     avsp       solve the Algorithmic View Selection Problem
     serve      line-oriented prepared-statement server on stdin/stdout

   Try:  dune exec bin/dqo.exe -- run \
           "SELECT a, COUNT(*) AS c FROM R JOIN S ON id = r_id GROUP BY a" *)

open Cmdliner

let default_sql =
  "SELECT a, COUNT(*) AS c FROM R JOIN S ON id = r_id GROUP BY a"

(* ------------------------------------------------------------------ *)
(* Shared flags describing the generated database.                     *)

let r_rows =
  Arg.(value & opt int 25_000 & info [ "r-rows" ] ~docv:"N" ~doc:"Rows in R.")

let s_rows =
  Arg.(value & opt int 90_000 & info [ "s-rows" ] ~docv:"N" ~doc:"Rows in S.")

let groups =
  Arg.(
    value & opt int 20_000
    & info [ "groups" ] ~docv:"N" ~doc:"Distinct values of R.a.")

let sorted =
  Arg.(
    value & flag
    & info [ "sorted" ] ~doc:"Generate both relations physically sorted.")

let sparse =
  Arg.(
    value & flag
    & info [ "sparse" ] ~doc:"Draw keys from a sparse (wide) domain.")

let seed =
  Arg.(value & opt int 2020 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.")

let skew =
  Arg.(
    value & opt float 0.0
    & info [ "skew" ] ~docv:"THETA"
        ~doc:
          "Draw S.b from a Zipf($(docv)) distribution over [0, 1000) \
           instead of uniformly over [0, 1M).  The optimiser's uniform \
           assumption then badly misestimates range filters on b — the \
           workload the $(b,--feedback) loop is built to correct.")

let feedback_arg =
  Arg.(
    value & flag
    & info [ "feedback" ]
        ~doc:
          "Close the cardinality-feedback loop: run queries analysed, \
           diff per-node estimates against actuals, and plan subsequent \
           queries with the learned correction factors.")

let qerror_threshold_arg =
  Arg.(
    value & opt float 2.0
    & info [ "qerror-threshold" ] ~docv:"Q"
        ~doc:
          "With $(b,--feedback): re-plan a cached prepared statement \
           once its worst observed per-node q-error reaches $(docv) \
           (must be >= 1.0).  With $(b,--learned), also the guardrail: \
           a beam-gated execution crossing $(docv) doubles the beam.")

let learned_arg =
  Arg.(
    value & flag
    & info [ "learned" ]
        ~doc:
          "Gate the join-DP search with the online-learned value model: \
           queries run analysed to train the model per plan node, and \
           once it is warm each join subset keeps only the $(b,--beam) \
           best-scored entries instead of the full Pareto frontier.")

let beam_arg =
  Arg.(
    value & opt int 4
    & info [ "beam" ] ~docv:"K"
        ~doc:
          "With $(b,--learned): Pareto entries kept per join subset \
           (must be >= 1; the q-error guardrail doubles it on \
           regressions, falling back to exhaustive past 32).")

let make_db ~r_rows ~s_rows ~groups ~sorted ~sparse ~skew ~seed =
  let rng = Dqo_util.Rng.create ~seed in
  let pair =
    Dqo_data.Datagen.fk_pair ~rng ~r_rows ~s_rows ~r_groups:groups
      ~r_sorted:sorted ~s_sorted:sorted ~dense:(not sparse)
  in
  let s =
    if skew <= 0.0 then pair.Dqo_data.Datagen.s
    else
      (* Replace S.b with a skewed column: same schema and row count,
         but heavy mass on the small values. *)
      let r_id = Dqo_data.Relation.int_col pair.Dqo_data.Datagen.s "r_id" in
      let b =
        Dqo_data.Datagen.zipf_keys ~rng
          ~n:(Dqo_data.Int_col.length r_id)
          ~groups:1_000 ~theta:skew ()
      in
      Dqo_data.Relation.create
        (Dqo_data.Relation.schema pair.Dqo_data.Datagen.s)
        [
          Dqo_data.Column.of_ints (Dqo_data.Int_col.to_array r_id);
          Dqo_data.Column.of_int_col b;
        ]
  in
  let db = Dqo_engine.Engine.create () in
  Dqo_engine.Engine.register db ~name:"R" pair.Dqo_data.Datagen.r;
  Dqo_engine.Engine.register db ~name:"S" s;
  db

let sql_arg =
  Arg.(
    value & pos 0 string default_sql
    & info [] ~docv:"SQL" ~doc:"Query over the generated tables R and S.")

let mode_arg =
  Arg.(
    value
    & opt (enum [ ("sqo", Dqo_engine.Engine.SQO); ("dqo", Dqo_engine.Engine.DQO) ])
        Dqo_engine.Engine.DQO
    & info [ "mode" ] ~docv:"MODE" ~doc:"Optimiser: $(b,sqo) or $(b,dqo).")

let threads_arg =
  Arg.(
    value & opt int 1
    & info [ "threads" ] ~docv:"N"
        ~doc:
          "Execute hot operators (hash join, hash / SPH grouping) on $(docv) \
           domains.  Results are identical to $(docv)=1; speedup needs \
           multicore hardware.")

let partition_max_arg =
  Arg.(
    value & opt int 12
    & info [ "partition-max" ] ~docv:"K"
        ~doc:
          "Largest partition the hierarchical planner's greedy partitioner \
           may grow (bounds per-partition DP cost).")

let hier_threshold_arg =
  Arg.(
    value & opt int 16
    & info [ "hier-threshold" ] ~docv:"N"
        ~doc:
          "Queries joining more than $(docv) relations plan joins \
           hierarchically: partition the join graph (partitions of at most \
           $(b,--partition-max) relations), solve each partition with the \
           exact DP, and stitch the partition plans over the quotient \
           graph.  0 routes every query hierarchically.")

(* ------------------------------------------------------------------ *)

let run_cmd =
  let action sql mode threads feedback learned beam partition_max
      hier_threshold r_rows s_rows groups sorted sparse skew seed =
    let db = make_db ~r_rows ~s_rows ~groups ~sorted ~sparse ~skew ~seed in
    Dqo_engine.Engine.set_opts db
      {
        Dqo_engine.Engine.default_opts with
        mode;
        threads;
        feedback;
        learner = learned;
        beam_width = beam;
        partition_max;
        hier_threshold;
      };
    let result, ms =
      Dqo_util.Timer.time_ms (fun () ->
          Dqo_engine.Engine.run_sql db ~mode ~threads sql)
    in
    Format.printf "%a@." Dqo_data.Relation.pp result;
    Printf.printf "(%d rows in %.1f ms%s)\n"
      (Dqo_data.Relation.cardinality result)
      ms
      (if threads > 1 then Printf.sprintf ", %d domains" threads else "");
    if feedback then begin
      let fb = Dqo_engine.Engine.corrections db in
      Printf.printf
        "(feedback: %d corrections learned, max q-error this run %.2f)\n"
        (Dqo_cost.Feedback.size fb)
        (Dqo_cost.Feedback.last_max_q fb)
    end;
    if learned then
      let lrn = Dqo_engine.Engine.learner db in
      Printf.printf "(learner: %d observations, beam %s)\n"
        (Dqo_learn.Learner.observations lrn)
        (match Dqo_engine.Engine.effective_beam db with
        | Some k when Dqo_learn.Learner.ready lrn -> string_of_int k
        | Some _ -> "cold"
        | None -> "exhaustive")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Optimise and execute a SQL query.")
    Term.(
      const action $ sql_arg $ mode_arg $ threads_arg $ feedback_arg
      $ learned_arg $ beam_arg $ partition_max_arg
      $ hier_threshold_arg $ r_rows $ s_rows $ groups $ sorted $ sparse
      $ skew $ seed)

let explain_cmd =
  let action sql analyze mode threads feedback learned beam
      partition_max hier_threshold json r_rows s_rows groups sorted sparse
      skew seed =
    let db = make_db ~r_rows ~s_rows ~groups ~sorted ~sparse ~skew ~seed in
    (* [--threads n] also parallelises the plan search itself: the
       SQO-vs-DQO comparison below picks the option up from the engine
       handle.  The report is byte-identical for any thread count. *)
    Dqo_engine.Engine.set_opts db
      {
        Dqo_engine.Engine.default_opts with
        mode;
        threads;
        feedback;
        learner = learned;
        beam_width = beam;
        partition_max;
        hier_threshold;
      };
    if analyze then begin
      let plan =
        Dqo_sql.Binder.plan_of_sql (Dqo_engine.Engine.catalog db) sql
      in
      let analyze_once () = Dqo_engine.Engine.explain_analyze db plan in
      let render a =
        print_string
          (Dqo_opt.Explain.render_analysis
             ~cost:a.Dqo_engine.Engine.entry.Dqo_opt.Pareto.cost
             ~stats:a.Dqo_engine.Engine.search_stats
             ?hier:a.Dqo_engine.Engine.hier a.Dqo_engine.Engine.root)
      in
      let a = analyze_once () in
      render a;
      let final =
        if not (feedback || learned) then a
        else begin
          (* Round 2 replans with what round 1 just learned —
             corrections and/or a now-warm value model; the side-by-side
             shows the estimates converging (and, with --learned, the
             beam gate kicking in). *)
          let q1 = Dqo_opt.Explain.max_q_error a.Dqo_engine.Engine.root in
          let a2 = analyze_once () in
          let q2 = Dqo_opt.Explain.max_q_error a2.Dqo_engine.Engine.root in
          (if feedback then
             Printf.printf
               "\nafter feedback (%d corrections, max q-error %.2f -> \
                %.2f):\n"
               (Dqo_cost.Feedback.size (Dqo_engine.Engine.corrections db))
               q1 q2
           else
             Printf.printf
               "\nafter training (%d observations, max q-error %.2f -> \
                %.2f):\n"
               (Dqo_learn.Learner.observations (Dqo_engine.Engine.learner db))
               q1 q2);
          render a2;
          a2
        end
      in
      match json with
      | Some path ->
        Dqo_obs.Json.to_file path (Dqo_engine.Engine.analysis_to_json final);
        Printf.printf "analysis written to %s\n" path
      | None -> ()
    end
    else print_endline (Dqo_engine.Engine.explain_sql db sql)
  in
  let analyze =
    Arg.(
      value & flag
      & info [ "analyze" ]
          ~doc:
            "Execute the chosen plan and annotate every node with actual \
             rows, q-error, and time (EXPLAIN ANALYZE).")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:"With $(b,--analyze): also write the full analysis as JSON.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Show the shallow and deep plans side by side for a query, or — \
          with $(b,--analyze) — execute it and compare estimated against \
          actual per-node cardinalities.")
    Term.(
      const action $ sql_arg $ analyze $ mode_arg $ threads_arg $ feedback_arg
      $ learned_arg $ beam_arg $ partition_max_arg
      $ hier_threshold_arg $ json $ r_rows $ s_rows $ groups $ sorted
      $ sparse $ skew $ seed)

let granules_cmd =
  let module Granule = Dqo_plan.Granule in
  let action operator =
    let show cell =
      let count max_level =
        Granule.count ~available:Granule.all_requirements ~max_level cell
      in
      Format.printf "%a@." Granule.pp cell;
      Printf.printf
        "plan space: %d shallow (organelle-level) / %d deep (molecule-level)\n"
        (count Granule.Organelle) (count Granule.Molecule)
    in
    match operator with
    | "grouping" -> show Granule.grouping
    | "join" -> show Granule.join
    | other ->
      Printf.eprintf "unknown operator %s (have: grouping, join)\n" other;
      exit 1
  in
  let operator =
    Arg.(
      value & pos 0 string "grouping"
      & info [] ~docv:"OPERATOR" ~doc:"$(b,grouping) or $(b,join).")
  in
  Cmd.v
    (Cmd.info "granules"
       ~doc:
         "Print the component table the optimiser searches for an operator \
          (paper Fig. 3, Table 1).")
    Term.(const action $ operator)

let calibrate_cmd =
  let action rows groups =
    Printf.printf "Measuring per-tuple costs (n = %d, %d groups)...\n%!" rows
      groups;
    let ms = Dqo_cost.Calibrate.measure ~rows ~groups () in
    List.iter
      (fun m ->
        Printf.printf "  %-5s %8.2f ns/tuple\n" m.Dqo_cost.Calibrate.algorithm
          m.Dqo_cost.Calibrate.per_tuple_ns)
      ms;
    Printf.printf "hash factor (HG/OG, Table 2 says 4): %.2f\n"
      (Dqo_cost.Calibrate.hash_factor ~rows ~groups ())
  in
  let rows =
    Arg.(
      value & opt int 1_000_000
      & info [ "rows" ] ~docv:"N" ~doc:"Measurement input size.")
  in
  let groups_c =
    Arg.(
      value & opt int 1_024
      & info [ "groups" ] ~docv:"N" ~doc:"Distinct keys in the measurement.")
  in
  Cmd.v
    (Cmd.info "calibrate"
       ~doc:"Re-measure Table 2's cost constants on this machine.")
    Term.(const action $ rows $ groups_c)

let avsp_cmd =
  let action budget r_rows s_rows groups sorted sparse seed =
    let db = make_db ~r_rows ~s_rows ~groups ~sorted ~sparse ~skew:0.0 ~seed in
    let catalog = Dqo_engine.Engine.catalog db in
    let workload =
      [ (Dqo_sql.Binder.plan_of_sql catalog default_sql, 1.0) ]
    in
    let candidates = Dqo_av.Avsp.default_candidates catalog in
    let base = Dqo_av.Avsp.workload_cost catalog workload in
    let s = Dqo_av.Avsp.greedy ~budget catalog workload candidates in
    Printf.printf "workload cost without AVs: %.0f\n" base;
    Printf.printf "selected %d AVs (build cost %.0f):\n"
      (List.length s.Dqo_av.Avsp.chosen)
      s.Dqo_av.Avsp.build_cost;
    List.iter
      (fun v -> Printf.printf "  + %s\n" (Dqo_av.View.describe v))
      s.Dqo_av.Avsp.chosen;
    Printf.printf "workload cost with AVs:   %.0f (%.1f%% saved)\n"
      s.Dqo_av.Avsp.workload_cost
      (100.0 *. (base -. s.Dqo_av.Avsp.workload_cost) /. Float.max 1.0 base)
  in
  let budget =
    Arg.(
      value & opt float 500_000.0
      & info [ "budget" ] ~docv:"COST" ~doc:"Build-cost budget.")
  in
  Cmd.v
    (Cmd.info "avsp"
       ~doc:"Solve the Algorithmic View Selection Problem for the demo \
             workload.")
    Term.(
      const action $ budget $ r_rows $ s_rows $ groups $ sorted $ sparse
      $ seed)

let serve_cmd =
  let action mode threads feedback qerror_threshold learned beam
      partition_max hier_threshold workers max_inflight advisor av_budget
      advisor_interval r_rows s_rows groups sorted sparse skew seed =
    let db = make_db ~r_rows ~s_rows ~groups ~sorted ~sparse ~skew ~seed in
    Dqo_engine.Engine.set_opts db
      {
        Dqo_engine.Engine.mode;
        threads;
        feedback;
        qerror_threshold;
        learner = learned;
        beam_width = beam;
        partition_max;
        hier_threshold;
      };
    let advisor_cfg =
      if advisor then
        Some
          {
            Dqo_advisor.Advisor.default_config with
            Dqo_advisor.Advisor.budget_bytes = av_budget;
          }
      else None
    in
    let srv =
      Dqo_serve.Server.create ~max_inflight ~workers ?advisor:advisor_cfg
        ~advisor_interval db
    in
    Printf.printf "ready pool=%d workers=%d max_inflight=%d%s\n%!"
      (Dqo_serve.Server.pool_size srv)
      workers max_inflight
      (if advisor then
         Printf.sprintf " advisor=on budget=%d interval=%.1f" av_budget
           advisor_interval
       else "");
    Fun.protect
      ~finally:(fun () -> Dqo_serve.Server.shutdown srv)
      (fun () -> Dqo_serve.Wire.serve srv stdin stdout)
  in
  let advisor =
    Arg.(
      value & flag
      & info [ "advisor" ]
          ~doc:
            "Enable the online AV advisor: every successful execution \
             feeds a sliding-window workload log, and each advisor tick \
             materialises (and evicts) algorithmic views under the \
             $(b,--av-budget) memory budget.  Tick with the wire \
             $(b,advise) command, or periodically via \
             $(b,--advisor-interval).")
  in
  let av_budget =
    Arg.(
      value
      & opt int Dqo_advisor.Advisor.default_config.Dqo_advisor.Advisor.budget_bytes
      & info [ "av-budget" ] ~docv:"BYTES"
          ~doc:
            "Memory budget for materialised AVs (measured resident \
             bytes, engine-wide).")
  in
  let advisor_interval =
    Arg.(
      value & opt float 0.0
      & info [ "advisor-interval" ] ~docv:"SECONDS"
          ~doc:
            "Background advisor tick period; 0 (the default) disables \
             the background thread, leaving ticks to the wire \
             $(b,advise) command.")
  in
  let workers =
    Arg.(
      value & opt int 4
      & info [ "workers" ] ~docv:"N"
          ~doc:"Executor threads draining the request queue.")
  in
  let max_inflight =
    Arg.(
      value & opt int 64
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:
            "Admission bound: requests in flight beyond $(docv) are \
             rejected with an $(b,error overloaded) response.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve prepared-statement executions over a line protocol on \
          stdin/stdout.  One long-lived pool of $(b,--threads) domains is \
          shared by every request; sessions, a server-wide statement \
          cache, and bounded admission ride on top.  With $(b,--advisor) \
          the server self-tunes its physical design from the observed \
          workload.  Commands: open, close, prepare, exec, submit, wait, \
          advise, stats, quit.")
    Term.(
      const action $ mode_arg $ threads_arg $ feedback_arg
      $ qerror_threshold_arg $ learned_arg $ beam_arg
      $ partition_max_arg $ hier_threshold_arg $ workers $ max_inflight
      $ advisor $ av_budget $ advisor_interval $ r_rows $ s_rows $ groups
      $ sorted $ sparse $ skew $ seed)

let () =
  let doc = "Deep Query Optimisation (CIDR 2020) — reproduction toolkit" in
  let info = Cmd.info "dqo" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd; explain_cmd; granules_cmd; calibrate_cmd; avsp_cmd;
            serve_cmd;
          ]))
