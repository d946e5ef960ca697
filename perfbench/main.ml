(* Served-query benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Sets the workload up several times (set-up time is their median),
   warms up one schedule cycle, compacts the heap, then serves a fixed
   number of whole cycles (S seconds at the workload's reference rate,
   at least 110 requests) with one closed-loop client.  Every
   result digest is checked against a reference computed off the clock
   on the sequential SQO path; a mismatch, or an exception outside the
   workload's known-failing classes, fails the run (exit 1).
   Human-readable lines come first; the last line of standard output is
   one JSON object.  With --trace 1 the metrics are the per-layer
   breakdown (spans go to perfbench/traces/). *)

module Engine = Dqo_engine.Engine
module Wire = Dqo_serve.Wire
open Workload
open Client

let min_requests = 110

(* A fixed pure-OCaml loop, timed at the start and end of every run:
   it explains a noisy run (host speed drift), it never normalises a
   metric. *)
let host_ref_ms () =
  let t0 = Dqo_util.Clock.now_ns () in
  let x = ref 1 in
  for i = 1 to 20_000_000 do
    x := (!x * 1103515245) + i land 0xffff
  done;
  ignore (Sys.opaque_identity !x);
  Dqo_util.Clock.since_ms t0

(* Nearest-rank quantile, as the server's own histograms report it. *)
let quantile sorted q =
  let n = Array.length sorted in
  sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. Float.of_int n)) - 1)))

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> Float.of_int kb /. 1024.0)
    | _ -> find ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* The rows of [rel] whose first column is below [bound]. *)
let key_below rel bound =
  let key = Dqo_data.Relation.column_at rel 0 in
  let keep = ref [] in
  for i = Dqo_data.Relation.cardinality rel - 1 downto 0 do
    match Dqo_data.Column.get key i with
    | Dqo_data.Value.Int k when k < bound -> keep := i :: !keep
    | _ -> ()
  done;
  Dqo_data.Relation.take rel (Array.of_list !keep)

(* Reference digests on the sequential SQO path.  Workloads whose
   executions change engine state get a separate reference engine over
   the same relations, filled before the first request.  A key-bound ad
   hoc text ([env.restrict]) is checked against its class's widest text,
   run once, restricted to the keys below the text's bound: a filter on
   the grouping key commutes with the grouping. *)
let reference_of env =
  let memo = Hashtbl.create 64 and wide = Hashtbl.create 4 in
  let ref_engine =
    if env.mutating then begin
      let e = Engine.create ~opts:{ Engine.default_opts with mode = Engine.SQO } () in
      List.iter (fun (n, r) -> Engine.register e ~name:n r) env.tables;
      e
    end
    else env.engine
  in
  let reference sql =
    match Hashtbl.find_opt memo sql with
    | Some d -> d
    | None ->
      let run sql = Engine.run_sql ref_engine ~mode:Engine.SQO ~threads:1 sql in
      let d =
        match Hashtbl.find_opt env.restrict sql with
        | None -> Wire.digest (run sql)
        | Some (wide_sql, bound) ->
          let rel =
            match Hashtbl.find_opt wide wide_sql with
            | Some r -> r
            | None ->
              let r = run wide_sql in
              Hashtbl.replace wide wide_sql r;
              r
          in
          Wire.digest (key_below rel bound)
      in
      Hashtbl.replace memo sql d;
      d
  in
  List.iter (fun (_, sql) -> ignore (reference sql)) env.statements;
  reference

type tally = {
  attempted : int;
  failed : int;  (** Exceptions and digest mismatches. *)
  mismatched : int;
  unexpected : int;  (** Failures outside the workload's known-failing classes. *)
}

let check env reference outcomes =
  Array.fold_left
    (fun t o ->
      let t = { t with attempted = t.attempted + 1 } in
      match o.digest with
      | Ok d when String.equal d (reference o.o_sql) -> t
      | Ok _ ->
        Printf.printf "digest mismatch %s: %s\n" o.o_cls o.o_sql;
        { t with failed = t.failed + 1; mismatched = t.mismatched + 1; unexpected = t.unexpected + 1 }
      | Error e ->
        let known = List.mem o.o_cls env.known_failing in
        Printf.printf "%s %s: %s\n" (if known then "known failure" else "error") o.o_cls e;
        { t with failed = t.failed + 1; unexpected = (t.unexpected + if known then 0 else 1) })
    { attempted = 0; failed = 0; mismatched = 0; unexpected = 0 }
    outcomes

let succeeded outcomes = List.filter (fun o -> Result.is_ok o.digest) (Array.to_list outcomes)

(* Latencies of the successful requests, sorted: a failed request ends
   early and says nothing about the latency of a served answer. *)
let latencies outcomes =
  let a = Array.of_list (List.map (fun o -> o.ms) (succeeded outcomes)) in
  Array.sort Float.compare a;
  a

(* Per-class latency quantiles and shares of the successful requests,
   in latency order, with the cumulative share at each class boundary. *)
let print_classes outcomes =
  let ok = succeeded outcomes in
  let n = List.length ok in
  let classes = Hashtbl.create 8 in
  List.iter
    (fun o ->
      Hashtbl.replace classes o.o_cls (o.ms :: Option.value ~default:[] (Hashtbl.find_opt classes o.o_cls)))
    ok;
  let rows =
    List.sort
      (fun (_, a) (_, b) -> Float.compare (median a) (median b))
      (Hashtbl.fold (fun c ms acc -> (c, ms) :: acc) classes [])
  in
  ignore
    (List.fold_left
       (fun cum (c, ms) ->
         let k = List.length ms in
         let cum = cum + k in
         let sorted = Array.of_list ms in
         Array.sort Float.compare sorted;
         Printf.printf "class %-14s n=%-5d p10/p50/p90 = %.3f / %.3f / %.3f ms  cumulative share %5.1f%%\n"
           c k (quantile sorted 0.1) (quantile sorted 0.5) (quantile sorted 0.9)
           (100.0 *. Float.of_int cum /. Float.of_int n);
         cum)
       0 rows)

let metric name value unit = Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit

let emit ~correct ~attempted ~failed metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed
    (String.concat ", " (List.map (fun (n, v, u) -> metric n v u) metrics))

(* Whole cycles worth [seconds] at the workload's reference rate, and
   at least [min_requests] requests (ten samples beyond p90). *)
let cycles env ~seconds ~min_requests =
  max
    ((min_requests + env.cycle - 1) / env.cycle)
    (int_of_float (Float.round (seconds *. env.rate /. Float.of_int env.cycle)))

let run ~workload ~seed ~seconds ~trace =
  let ref_start = host_ref_ms () in
  let rec set_up k times =
    Gc.compact ();
    let e = setup workload seed in
    let times = e.times.setup_s :: times in
    if k <= 1 then (e, times)
    else begin
      teardown e;
      set_up (k - 1) times
    end
  in
  let env, setup_times = set_up (if trace then 1 else setups workload) [] in
  let setup_s = median setup_times in
  let reference = reference_of env in
  ignore (run_phase env ~cycles:1);
  Gc.compact ();
  let metrics, outcomes =
    if not trace then begin
      let p = run_phase env ~cycles:(cycles env ~seconds ~min_requests) in
      let lat = latencies p.outcomes in
      let completed = Array.length lat in
      Printf.printf "workload %s seed %d: %d requests (%d completed) in %.2f s (%d advisor ticks)\n"
        workload seed (Array.length p.outcomes) completed p.wall_s (List.length p.ticks);
      print_classes p.outcomes;
      ( [
          ("qps", Float.of_int completed /. p.wall_s, "1/s");
          ("p50_ms", quantile lat 0.5, "ms");
          ("p90_ms", quantile lat 0.9, "ms");
          ("cpu_ms_per_query", p.cpu_s *. 1e3 /. Float.of_int (max 1 completed), "ms");
          ("setup_s", setup_s, "s");
          ("peak_rss_mb", peak_rss_mb (), "MB");
        ],
        p.outcomes )
    end
    else Layers.traced env ~seed ~cycles:(cycles env ~seconds:(seconds /. 3.0) ~min_requests:50)
  in
  let t = check env reference outcomes in
  let ref_end = host_ref_ms () in
  let n = Array.length (latencies outcomes) in
  List.iter
    (fun (name, v, unit) -> Printf.printf "metric %-34s %14.4f %-6s (n=%d)\n" name v unit n)
    metrics;
  Printf.printf "metric %-34s %14.4f %-6s (n=%d; %d failed, %d outside the known-failing classes [%s])\n"
    "error_rate"
    (Float.of_int t.failed /. Float.of_int (max 1 t.attempted))
    "ratio" t.attempted t.failed t.unexpected
    (String.concat ", " env.known_failing);
  Printf.printf "host.ref_ms start %.3f end %.3f\n" ref_start ref_end;
  let metrics =
    if trace then metrics @ [ ("host.ref_ms", (ref_start +. ref_end) /. 2.0, "ms") ] else metrics
  in
  teardown env;
  (* A digest mismatch, or a failure the known defect does not explain,
     fails the run. *)
  let correct = t.mismatched = 0 && t.unexpected = 0 in
  emit ~correct ~attempted:t.attempted ~failed:t.failed metrics;
  if not correct then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat " | " names);
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " measured seconds");
      ("--trace", Arg.Set_int trace, " 1 = traced per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload names) then begin
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  end;
  run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
