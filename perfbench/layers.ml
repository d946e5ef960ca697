(* The traced run: the workload's traffic once through the server
   untraced, then once more with every request issued as a pair, one
   copy split into layer spans and one not; then a few off-clock probes
   through public functions, reduced to the per-layer metrics.  Every
   metric is emitted for every workload (the result line carries all of
   them); where a workload's traffic does not reach a layer, the value
   comes from a small seeded probe (NOTES.md lists which). *)

module Engine = Dqo_engine.Engine
module Server = Dqo_serve.Server
module Metrics = Dqo_obs.Metrics
module Explain = Dqo_opt.Explain
module Search = Dqo_opt.Search
module Pareto = Dqo_opt.Pareto
module Pool = Dqo_par.Pool
module Int_col = Dqo_data.Int_col
module Clock = Dqo_util.Clock
module Rng = Dqo_util.Rng
open Workload
open Client

let time_ms = Dqo_util.Timer.time_ms
let median_ms ~repeats f = snd (Dqo_util.Timer.median_of ~repeats f)

let sum = List.fold_left ( +. ) 0.0

(* The schedule's classes that are served (not known to fail), with
   their weights. *)
let served_weights env = List.filter (fun (c, _) -> not (List.mem c env.known_failing)) env.weights

(* Schedule-weighted mean of a per-class value over the served classes. *)
let weighted env f =
  let ws = served_weights env in
  let total = List.fold_left (fun acc (_, w) -> acc + w) 0 ws in
  sum (List.map (fun (c, w) -> Float.of_int w *. f c) ws) /. Float.of_int total

let engine_of ?(opts = Engine.default_opts) tables =
  let e = Engine.create ~opts () in
  List.iter (fun (n, r) -> Engine.register e ~name:n r) (List.rev tables);
  e

let bind engine sql = Dqo_sql.Binder.plan_of_sql (Engine.catalog engine) sql

(* --- operator costs from EXPLAIN ANALYZE trees ------------------------ *)

type kind = Join | Group | Filter | Other

let kind_of (p : Dqo_plan.Physical.t) =
  match p with
  | Join_op _ -> Join
  | Group_op _ -> Group
  | Filter_op _ -> Filter
  | Table_scan _ | Project_op _ | Sort_enforcer _ -> Other

let children (p : Dqo_plan.Physical.t) =
  match p with
  | Table_scan _ -> []
  | Filter_op (c, _, _) | Project_op (c, _) | Sort_enforcer (c, _) | Group_op (c, _, _, _) -> [ c ]
  | Join_op (l, r, _, _, _) -> [ l; r ]

(* Accumulate (self ns, input rows) per operator kind; a node's self
   time is its cumulative time minus its children's. *)
let rec operator_costs acc plan (a : Explain.analyzed) =
  let kids = children plan in
  let child_ns = List.fold_left (fun s (c : Explain.analyzed) -> s + c.Explain.wall_ns) 0 a.Explain.children in
  let rows_in = List.fold_left (fun s (c : Explain.analyzed) -> s + c.Explain.actual_rows) 0 a.Explain.children in
  let k = kind_of plan in
  let ns, rows = Option.value ~default:(0.0, 0.0) (List.assoc_opt k acc) in
  let acc =
    (k, (ns +. Float.of_int (a.Explain.wall_ns - child_ns), rows +. Float.of_int rows_in))
    :: List.remove_assoc k acc
  in
  if List.length kids = List.length a.Explain.children then
    List.fold_left2 operator_costs acc kids a.Explain.children
  else acc

let rec q_errors (a : Explain.analyzed) =
  Explain.q_error ~est:a.Explain.est_rows ~actual:a.Explain.actual_rows
  :: List.concat_map q_errors a.Explain.children

(* --- probes on fixed small schemas ------------------------------------ *)

(* Hierarchical planning of the 20-relation snowflake. *)
let hier_probe rng =
  let engine = engine_of (Dbs.snowflake ~rng) in
  let logical = bind engine (Dbs.snowflake_sql ~snow_lt:500) in
  let (_, _, report), ms =
    time_ms (fun () ->
        Dqo_opt.Hier.optimize_entries ~model:Dqo_cost.Model.table2
          ~partition_max:Engine.default_opts.Engine.partition_max Search.Deep
          (Engine.catalog engine) logical)
  in
  (ms, List.length report.Dqo_opt.Hier.partitions)

(* Candidates of the star-7 search gated by a warm learner (two
   analysed runs of training) over the exhaustive search's. *)
let beam_probe rng =
  let opts = { Engine.default_opts with learner = true } in
  let engine = engine_of ~opts (Dbs.star ~rng) in
  let logical = bind engine (Dbs.star_sql ~hub_lt:2_000) in
  for _ = 1 to 2 do
    ignore (Engine.explain_analyze engine logical)
  done;
  let candidates learner =
    (snd
       (Search.optimize_entries ~model:Dqo_cost.Model.table2 ?learner
          ~beam:opts.Engine.beam_width Search.Deep (Engine.catalog engine) logical))
      .Search.plans_considered
  in
  Float.of_int (candidates (Some (Engine.learner engine))) /. Float.of_int (candidates None)

(* The known defect: a selective S-side filter planned into SPHJ on
   the sparse filtered r_id fails at execution.  Counts failing texts. *)
let defect_texts = [ Dbs.rs_join ~where:"b < 500" (); Dbs.rs_join ~where:"b < 50000" () ]

let defect_probe engine =
  List.length
    (List.filter
       (fun sql ->
         match Engine.run_sql engine ~mode:Engine.DQO ~threads:1 sql with
         | _ -> false
         | exception Invalid_argument _ -> true)
       defect_texts)

(* ns per row summing a column through Int_col.iter_seg. *)
let scan_ns_per_row col =
  let n = Int_col.length col in
  let ms =
    median_ms ~repeats:5 (fun () ->
        let s = ref 0 in
        Int_col.iter_seg col ~f:(fun _ buf off len ->
            for i = off to off + len - 1 do
              s := !s + Array.unsafe_get buf i
            done);
        ignore (Sys.opaque_identity !s))
  in
  ms *. 1e6 /. Float.of_int n

(* --- the traced run ---------------------------------------------------- *)

let counter env name = Metrics.counter (Server.metrics env.server) name

let traced env ~seed ~cycles =
  let m = Server.metrics env.server in
  let counter_names = [ "serve.cache_hits"; "serve.cache_misses"; "serve.replans"; "feedback.replans" ] in
  let c0 = List.map (fun n -> (n, counter env n)) counter_names in
  let hist_from name =
    let skip = match Metrics.find_hist m name with Some h -> Metrics.hist_count h | None -> 0 in
    fun () ->
      match Metrics.find_hist m name with
      | Some h -> Array.to_list (Array.sub (Metrics.hist_values h) skip (Metrics.hist_count h - skip))
      | None -> []
  in
  let queue_waits = hist_from "serve.queue_wait_ms" and qerrors = hist_from "feedback.qerror" in
  (* The workload's traffic through the server, untraced, then every
     request again as a traced/untraced pair on one path. *)
  let untraced = run_phase env ~cycles in
  Gc.compact ();
  let spans = Span.create () in
  let pool = Pool.create ~domains:env.pool_domains () in
  let first_req = !served in
  let paired = run_phase ~trace:(spans, pool) env ~cycles in
  (* Counters over the two phases, read before the probes below add
     traffic of their own. *)
  let delta n = Float.of_int (counter env n - List.assoc n c0) in
  let cache_hit_ratio =
    delta "serve.cache_hits" /. Float.max 1.0 (delta "serve.cache_hits" +. delta "serve.cache_misses")
  in
  let serve_replans = delta "serve.replans" and feedback_replans = delta "feedback.replans" in
  let queue_wait = median (queue_waits ()) and run_qerrors = qerrors () in
  let overhead_ratio =
    median
      (List.filter_map
         (fun ((u : outcome), (t : outcome)) ->
           if Result.is_ok u.digest && Result.is_ok t.digest then Some (t.ms /. u.ms) else None)
         (List.combine (Array.to_list paired.outcomes) (Array.to_list paired.traced)))
  in
  let cls_of_req = Hashtbl.create 256 in
  Array.iteri (fun i o -> Hashtbl.replace cls_of_req (first_req + i) o.o_cls) paired.traced;
  (try Sys.mkdir "perfbench/traces" 0o755 with Sys_error _ -> ());
  Span.write spans (Printf.sprintf "perfbench/traces/%s.jsonl" env.name);
  let ticks = untraced.ticks @ paired.ticks in
  let av_bytes =
    List.fold_left
      (fun acc t -> match t.report with Some r -> max acc r.Dqo_advisor.Advisor.av_bytes | None -> acc)
      0 ticks
  in
  let count_views f =
    Float.of_int
      (List.fold_left (fun acc t -> match t.report with Some r -> acc + List.length (f r) | None -> acc) 0 ticks)
  in
  (* Per-class span statistics (ad hoc requests carry the layer split). *)
  let span_by_class name cls =
    List.filter_map
      (fun (s : Span.span) ->
        if String.equal s.Span.name name && Hashtbl.find_opt cls_of_req s.Span.req = Some cls then
          Some (Float.of_int (Span.duration_ns s) /. 1e6)
        else None)
      (Span.spans spans)
  in
  (* One representative text per served class, analysed off the clock. *)
  let reps =
    List.map
      (fun (c, _) ->
        let sql =
          match List.assoc_opt c env.statements with
          | Some sql -> sql
          | None ->
            (Array.to_list paired.traced
            |> List.find (fun o -> String.equal o.o_cls c && Result.is_ok o.digest))
              .o_sql
        in
        (c, sql, Engine.explain_analyze env.engine (bind env.engine sql)))
      (served_weights env)
  in
  let rep c = List.find (fun (c', _, _) -> String.equal c c') reps in
  let plain_exec_ms c =
    let _, _, a = rep c in
    median_ms ~repeats:3 (fun () -> Engine.execute_on env.engine ~pool a.Engine.entry.Pareto.plan)
  in
  let exec_by_class = List.map (fun (c, _) -> (c, plain_exec_ms c)) (served_weights env) in
  let plain_exec_ms c = List.assoc c exec_by_class in
  let plan_ms c =
    if env.adhoc then median (span_by_class "opt.plan" c)
    else
      let _, sql, _ = rep c in
      let logical = bind env.engine sql in
      median_ms ~repeats:3 (fun () -> Engine.plan env.engine Engine.DQO logical)
  in
  let exec_ms c = if env.adhoc then median (span_by_class "exec.execute" c) else plain_exec_ms c in
  let candidates c =
    let _, _, a = rep c in
    Float.of_int a.Engine.search_stats.Search.plans_considered
  in
  let parse_us, bind_us =
    if env.adhoc then
      (1e3 *. median (Span.durations_ms spans "sql.parse"), 1e3 *. median (Span.durations_ms spans "sql.bind"))
    else
      let per_statement f =
        1e3 *. median (List.map (fun (_, sql) -> f (Dqo_sql.Parser.parse sql) sql) env.statements)
      in
      ( per_statement (fun _ sql -> median_ms ~repeats:21 (fun () -> Dqo_sql.Parser.parse sql)),
        per_statement (fun ast _ ->
            median_ms ~repeats:21 (fun () -> Dqo_sql.Binder.bind (Engine.catalog env.engine) ast)) )
  in
  let plan_mean = weighted env plan_ms in
  let cand_mean = weighted env candidates in
  (* Operator costs: the workload's own plans, with the §4.3 R/S pair
     filling in operator kinds the workload never runs. *)
  let rng = Rng.create ~seed in
  let rs_engine = engine_of (Dbs.rs ~rng ()) in
  let costs =
    List.fold_left
      (fun acc (c, w) ->
        let _, _, a = rep c in
        List.fold_left
          (fun acc (k, (ns, rows)) ->
            let ns0, rows0 = Option.value ~default:(0.0, 0.0) (List.assoc_opt k acc) in
            (k, (ns0 +. (Float.of_int w *. ns), rows0 +. (Float.of_int w *. rows))) :: List.remove_assoc k acc)
          acc
          (operator_costs [] a.Engine.entry.Pareto.plan a.Engine.root))
      [] (served_weights env)
  in
  let fallback =
    List.fold_left
      (fun acc sql ->
        let a = Engine.explain_analyze rs_engine (bind rs_engine sql) in
        operator_costs acc a.Engine.entry.Pareto.plan a.Engine.root)
      [] [ Dbs.rs_join ~where:"a < 5000" () ]
  in
  let ns_per_row k =
    let ns, rows =
      match List.assoc_opt k costs with
      | Some (ns, rows) when rows > 0.0 -> (ns, rows)
      | _ -> List.assoc k fallback
    in
    ns /. Float.max 1.0 rows
  in
  let analyzed_ms c =
    let _, _, a = rep c in
    Float.of_int a.Engine.root.Explain.wall_ns /. 1e6
  in
  let qerror_p50 =
    match run_qerrors with
    | [] -> median (List.concat_map (fun (_, _, a) -> q_errors a.Engine.root) reps)
    | qs -> median qs
  in
  (* Parallel and storage costs on the scan-large data (1M rows on
     chunked 32-bit storage, 4x the L2), whatever the workload: its
     group-by plan on 1- and 2-domain pools, and a scan of its key
     column on each backend. *)
  let large_tables = Dbs.large ~rng in
  let large = engine_of large_tables in
  let speedup, cpu_per_wall =
    let plan = (Engine.plan large Engine.DQO (bind large Dbs.large_group_sql)).Pareto.plan in
    let on domains =
      Pool.with_pool ~domains (fun p ->
          let c0 = cpu_now () in
          let t0 = Clock.now_ns () in
          let ms = median_ms ~repeats:5 (fun () -> Engine.execute_on large ~pool:p plan) in
          (ms, (cpu_now () -. c0) /. (Float.of_int (Clock.now_ns () - t0) /. 1e9)))
    in
    let t1, _ = on 1 in
    let t2, cpw = on (domains 2) in
    (t1 /. t2, cpw)
  in
  let chunked = Dqo_data.Column.int_col (Dqo_data.Relation.column (List.assoc "L" large_tables) "k") in
  (* Server.execute against the engine call it wraps, same statement:
     a 16-row table registered for the probe (after the measured
     phases), so the difference is not lost in execution noise. *)
  let overhead_us =
    Engine.register env.engine ~name:"Probe16"
      (Dbs.relation [ "probe_k" ] [ Dqo_data.Column.of_ints (Array.init 16 (fun i -> i)) ]);
    let stmt = Server.prepare env.session "SELECT probe_k, COUNT(*) AS c FROM Probe16 GROUP BY probe_k" in
    let prepared = Server.stmt_prepared stmt in
    1e3
    *. median
         (List.init 41 (fun _ ->
              let _, srv = time_ms (fun () -> Server.execute env.session stmt) in
              let _, eng = time_ms (fun () -> Engine.execute_prepared_on env.engine ~pool prepared) in
              srv -. eng))
  in
  let flat = Int_col.of_array (Int_col.to_array chunked) in
  let hier_ms, hier_partitions = hier_probe rng in
  let beam_ratio = beam_probe rng in
  let defects = defect_probe rs_engine in
  let prepare_ms =
    if env.adhoc then
      median
        (List.map
           (fun (s : Span.span) ->
             let kids name =
               List.filter (fun (k : Span.span) -> k.Span.req = s.Span.req && String.equal k.Span.name name) (Span.spans spans)
             in
             sum
               (List.map
                  (fun (k : Span.span) -> Float.of_int (Span.duration_ns k) /. 1e6)
                  (kids "sql.parse" @ kids "sql.bind" @ kids "opt.plan")))
           (List.filter (fun (s : Span.span) -> String.equal s.Span.name "request") (Span.spans spans)))
    else env.times.prepare_ms
  in
  let metrics =
    [
      ("sql.parse_us", parse_us, "us");
      ("sql.bind_us", bind_us, "us");
      ("opt.plan_ms", plan_mean, "ms");
      ("opt.candidates", cand_mean, "count");
      ("opt.ns_per_candidate", plan_mean *. 1e6 /. Float.max 1.0 cand_mean, "ns");
      ("opt.hier_plan_ms", hier_ms, "ms");
      ("opt.hier_partitions", Float.of_int hier_partitions, "count");
      ("learn.beam_candidate_ratio", beam_ratio, "ratio");
      ("exec.execute_ms", weighted env exec_ms, "ms");
      ("exec.join_ns_per_row", ns_per_row Join, "ns/row");
      ("exec.group_ns_per_row", ns_per_row Group, "ns/row");
      ("exec.filter_ns_per_row", ns_per_row Filter, "ns/row");
      ("exec.analyze_overhead_ratio", weighted env analyzed_ms /. weighted env plain_exec_ms, "ratio");
      ("exec.sphj_defect_failures", Float.of_int defects, "count");
      ("par.speedup_2v1", speedup, "ratio");
      ("par.cpu_per_wall", cpu_per_wall, "ratio");
      ("data.scan_ns_per_row.flat", scan_ns_per_row flat, "ns/row");
      ("data.scan_ns_per_row.chunked32", scan_ns_per_row chunked, "ns/row");
      ("data.generate_s", env.times.generate_s, "s");
      ("core.register_s", env.times.register_s, "s");
      ("core.prepare_ms", prepare_ms, "ms");
      ("serve.overhead_us", overhead_us, "us");
      ("serve.queue_wait_ms", queue_wait, "ms");
      ("serve.digest_us", 1e3 *. median (Span.durations_ms spans "serve.digest"), "us");
      ("serve.cache_hit_ratio", cache_hit_ratio, "ratio");
      ("serve.replans", serve_replans, "count");
      ("feedback.replans", feedback_replans, "count");
      ("cost.qerror_p50", qerror_p50, "ratio");
      ("advisor.tick_ms", median (List.map (fun t -> t.tick_ms) ticks), "ms");
      ("advisor.installed", count_views (fun r -> r.Dqo_advisor.Advisor.installed), "count");
      ("advisor.evicted", count_views (fun r -> r.Dqo_advisor.Advisor.evicted), "count");
      ("av.bytes", Float.of_int av_bytes, "bytes");
      ("trace.overhead_ratio", overhead_ratio, "ratio");
    ]
  in
  Pool.shutdown pool;
  (metrics, Array.concat [ untraced.outcomes; paired.outcomes; paired.traced ])
