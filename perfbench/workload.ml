(* The four served-query workloads: seeded data, a fixed request
   schedule, and one closed-loop client driving [Dqo_serve.Server].

   A schedule is a cycle of class labels with fixed per-class counts,
   shuffled once by the seed.  A run serves a fixed number of whole
   cycles, so every run of a workload serves exactly the same requests
   per class. *)

module Engine = Dqo_engine.Engine
module Server = Dqo_serve.Server
module Advisor = Dqo_advisor.Advisor
module Rng = Dqo_util.Rng
module Clock = Dqo_util.Clock

let names = [ "serve-prepared"; "serve-adhoc"; "scan-large"; "self-tuning" ]

(* Never more pool domains than the host has CPUs. *)
let domains want = max 1 (min want (Domain.recommended_domain_count ()))

type request = { cls : string; sql : string }

type setup_times = {
  generate_s : float;
  register_s : float;
  prepare_ms : float;  (** Mean per statement prepared at set-up. *)
  setup_s : float;  (** Generation + registration + server start + prepares. *)
}

type env = {
  name : string;
  engine : Engine.t;
  server : Server.t;
  session : Server.session;
  pool_domains : int;
  tables : Dbs.tables;
  statements : (string * string) list;  (** (class, SQL) prepared at set-up. *)
  weights : (string * int) list;  (** Requests per cycle, by class. *)
  cycle : int;
  next : unit -> request;
  tick_every : int;  (** Force an advisor tick every this many requests; 0 = never. *)
  rate : float;
      (** Requests per second on the reference host: a run of S seconds
          serves a fixed [S * rate] requests, rounded to whole cycles. *)
  adhoc : bool;  (** Every request is a never-seen text (the cache-miss path). *)
  known_failing : string list;
      (** Classes that fail today through a known engine defect: their
          exceptions are expected, any other failure fails the run. *)
  mutating : bool;  (** Executions change engine state (feedback, learner, advisor). *)
  restrict : (string, string * int) Hashtbl.t;
      (** Ad hoc texts whose answer is the rows of a wider text's answer
          with the first column below a bound: text -> (wider text, bound). *)
  times : setup_times;
}

let seconds_since t0 = Float.of_int (Clock.now_ns () - t0) /. 1e9

(* One cycle: each class label [count] times, shuffled by [rng]. *)
let shuffled_cycle rng weights =
  let labels = Array.of_list (List.concat_map (fun (c, n) -> List.init n (fun _ -> c)) weights) in
  let idx = Array.init (Array.length labels) (fun i -> i) in
  Rng.shuffle rng idx;
  Array.map (fun i -> labels.(i)) idx

(* A schedule replaying fixed statements in a shuffled cycle. *)
let fixed_schedule rng weights statements =
  let cycle = shuffled_cycle rng weights in
  let i = ref 0 in
  fun () ->
    let cls = cycle.(!i mod Array.length cycle) in
    incr i;
    { cls; sql = List.assoc cls statements }

(* Build the engine, register the tables, start the server and prepare
   the fixed statements, timing each step. *)
let build ~name ~tables ~opts ?advisor ~pool_domains ~statements ~weights ~next_of ~rate
    ?(tick_every = 0) ?(adhoc = false) ?(known_failing = []) ?(restrict = Hashtbl.create 1) rng =
  let t0 = Clock.now_ns () in
  let tables = tables rng in
  let generate_s = seconds_since t0 in
  let t1 = Clock.now_ns () in
  let engine = Engine.create ~opts () in
  List.iter (fun (n, r) -> Engine.register engine ~name:n r) tables;
  let register_s = seconds_since t1 in
  let t2 = Clock.now_ns () in
  let server =
    Server.create ~workers:1 ~max_inflight:4 ~threads:pool_domains ?advisor ~advisor_interval:0.0
      engine
  in
  let session = Server.open_session server in
  let server_s = seconds_since t2 in
  let t3 = Clock.now_ns () in
  List.iter (fun (_, sql) -> ignore (Server.prepare session sql)) statements;
  let prepare_s = seconds_since t3 in
  let prepare_ms =
    if statements = [] then 0.0 else prepare_s *. 1e3 /. Float.of_int (List.length statements)
  in
  {
    name;
    engine;
    server;
    session;
    pool_domains;
    tables;
    statements;
    weights;
    cycle = List.fold_left (fun acc (_, n) -> acc + n) 0 weights;
    next = next_of rng;
    tick_every;
    rate;
    adhoc;
    known_failing;
    mutating = opts.Engine.feedback || opts.Engine.learner || advisor <> None;
    restrict;
    times =
      { generate_s; register_s; prepare_ms; setup_s = generate_s +. register_s +. server_s +. prepare_s };
  }

(* Tables are registered big-last: registering rebuilds the whole
   catalog, so this is the order a user would choose. *)
let big_last tables = List.rev tables

(* Prepared workloads replay fixed texts; the seed makes their data.
   serve-prepared: §4.3 R/S at demo scale (under L2), execution-bound
   prepared traffic on a 1-domain pool.  The S group-by and the
   R-filtered join (~20-27 ms) come before the join+group (~35-50 ms):
   cumulative class shares by latency 30 / 100. *)
let serve_prepared seed =
  let rng = Rng.create ~seed in
  let statements =
    [
      ("join-group", Dbs.rs_join ());
      ("s-group", "SELECT r_id, COUNT(*) AS c FROM S GROUP BY r_id");
      ("r-filter-join", Dbs.rs_join ~where:"a < 10000" ());
    ]
  in
  let weights = [ ("join-group", 14); ("s-group", 5); ("r-filter-join", 1) ] in
  build ~name:"serve-prepared"
    ~tables:(fun rng -> big_last (Dbs.rs ~rng ()))
    ~opts:{ Engine.default_opts with mode = Engine.DQO }
    ~pool_domains:(domains 1) ~statements ~weights ~rate:30.0
    ~next_of:(fun rng -> fixed_schedule rng weights statements)
    rng

(* serve-adhoc: every request a never-seen text with fresh seeded
   literals, so every request is a cache miss and pays parse, bind and
   the deep DP.  Literals come from narrow ranges (601 values per
   class), so texts stay new while every run does the same work.
   Latency order: the two §4.3 joins (~25-45 ms), the 7-relation star
   (~55-90 ms), the 10-relation chain (~200-300 ms); shares of the
   successful requests 19 / 19 / 40.5 / 21.5 put the boundaries at 19,
   38, 78.6, 100.  p50 falls 29% into the star class and p90 53% into
   the chain: the host alternates fast and slow spells (see NOTES.md),
   and a quantile low in a class's own distribution stays in the fast
   mode unless most of the run was slow, where a mid-class quantile
   jumps between the modes from run to run.
   rs-s-sparse is the known SPHJ defect: an S-side filter keeping ~2.5%
   of S, which DQO plans into SPHJ on the now sparse r_id and execution
   rejects.  It fails 2 requests in 44 today and is kept in the mix so
   that the failure shows (and a fix shows as fewer failures). *)
type adhoc_class = {
  ac : string;
  count : int;  (** Requests per cycle. *)
  mid : int;  (** Literals are drawn from [mid - spread, mid + spread]. *)
  text : int -> string;
  key_bound : bool;
      (** The text is [... WHERE key < x GROUP BY key] with the key its
          first result column: the answer for [x] is the rows of the
          answer for [mid + spread] whose key is below [x]. *)
}

let spread = 300

let adhoc_classes =
  let rs where = Dbs.rs_join ~where () in
  [
    { ac = "rs-r-filter"; count = 8; mid = 10_000; text = Printf.ksprintf rs "a < %d"; key_bound = false };
    { ac = "rs-s-filter"; count = 8; mid = 250_000; text = Printf.ksprintf rs "b > %d"; key_bound = false };
    { ac = "rs-s-sparse"; count = 2; mid = 25_000; text = Printf.ksprintf rs "b < %d"; key_bound = false };
    { ac = "star-7"; count = 17; mid = 2_000; text = (fun x -> Dbs.star_sql ~hub_lt:x); key_bound = true };
    { ac = "chain-10"; count = 9; mid = 1_000; text = (fun x -> Dbs.chain_sql ~t1_lt:x); key_bound = true };
  ]

let adhoc_weights = List.map (fun a -> (a.ac, a.count)) adhoc_classes

(* [restrict] receives, for every key-bound text served, the widest
   text of its class and the text's bound, so that the reference run
   plans and executes one text per class instead of one per request. *)
let adhoc_schedule restrict rng =
  let cycle = shuffled_cycle rng adhoc_weights in
  let seen = Hashtbl.create 256 in
  let i = ref 0 in
  fun () ->
    let cls = cycle.(!i mod Array.length cycle) in
    incr i;
    let a = List.find (fun a -> String.equal a.ac cls) adhoc_classes in
    (* Redraw until the text is new: a repeated text would hit the
       statement cache. *)
    let rec fresh tries =
      if tries = 0 then failwith ("serve-adhoc: literal range of " ^ cls ^ " exhausted");
      let x = Rng.int_in_range rng ~lo:(a.mid - spread) ~hi:(a.mid + spread) in
      let sql = a.text x in
      if Hashtbl.mem seen sql then fresh (tries - 1)
      else begin
        Hashtbl.add seen sql ();
        if a.key_bound then Hashtbl.replace restrict sql (a.text (a.mid + spread), x);
        sql
      end
    in
    { cls; sql = fresh 10_000 }

let serve_adhoc seed =
  let rng = Rng.create ~seed in
  let restrict = Hashtbl.create 256 in
  build ~name:"serve-adhoc"
    ~tables:(fun rng ->
      big_last (Dbs.rs ~rng () @ Dbs.star ~rng @ Dbs.chain ~rng))
    ~opts:Engine.default_opts ~pool_domains:(domains 1) ~statements:[] ~weights:adhoc_weights
    ~next_of:(adhoc_schedule restrict) ~restrict ~adhoc:true ~known_failing:[ "rs-s-sparse" ]
    ~rate:10.0 rng

(* scan-large: 1M rows on chunked 32-bit storage (8 MB, 4x the L2),
   prepared group-by over 10k groups and a filter+group, 2-domain pool.
   Latency order: filter+group then group-by, boundaries 30 / 100. *)
let scan_large seed =
  let rng = Rng.create ~seed in
  let statements =
    [
      ("group", Dbs.large_group_sql);
      ("filter-group", "SELECT k, SUM(v) AS s FROM L WHERE v < 300 GROUP BY k");
    ]
  in
  let weights = [ ("group", 7); ("filter-group", 3) ] in
  let pool_domains = domains 2 in
  build ~name:"scan-large"
    ~tables:(fun rng -> Dbs.large ~rng)
    ~opts:{ Engine.default_opts with mode = Engine.DQO; threads = pool_domains }
    ~pool_domains ~statements ~weights ~rate:8.5
    ~next_of:(fun rng -> fixed_schedule rng weights statements)
    rng

(* self-tuning: Zipf-skewed S.b with feedback, learner and advisor on.
   The hot set moves through three fixed phases of 40 requests; the
   client forces an advisor tick every 20 requests, and the advisor's
   window (40) forgets a phase one phase later, so views are installed
   and evicted on every cycle. *)
let self_tuning_phases =
  [
    [ ("b-group", 14); ("join-group", 6) ];
    [ ("skew-filter", 14); ("r-filter-join", 6) ];
    [ ("join-group", 9); ("b-group", 7); ("skew-filter", 4) ];
  ]

let self_tuning seed =
  let rng = Rng.create ~seed in
  let statements =
    [
      ("b-group", "SELECT b, COUNT(*) AS c FROM S GROUP BY b");
      ("join-group", Dbs.rs_join ());
      ("skew-filter", "SELECT r_id, COUNT(*) AS c FROM S WHERE b < 5 GROUP BY r_id");
      ("r-filter-join", Dbs.rs_join ~where:"a < 10000" ());
    ]
  in
  let per_phase = 2 in
  let weights =
    List.map
      (fun (c, _) ->
        ( c,
          per_phase
          * List.fold_left
              (fun acc ph -> acc + Option.value ~default:0 (List.assoc_opt c ph))
              0 self_tuning_phases ))
      statements
  in
  let next_of rng =
    (* Phase p replays its 20-request cycle [per_phase] times. *)
    let cycles = List.map (shuffled_cycle rng) self_tuning_phases in
    let phase_len = per_phase * 20 in
    let i = ref 0 in
    fun () ->
      let pos = !i mod (phase_len * List.length cycles) in
      incr i;
      let cyc = List.nth cycles (pos / phase_len) in
      let cls = cyc.(pos mod Array.length cyc) in
      { cls; sql = List.assoc cls statements }
  in
  build ~name:"self-tuning"
    ~tables:(fun rng -> big_last (Dbs.rs ~zipf_b:1.0 ~rng ()))
    ~opts:{ Engine.default_opts with mode = Engine.DQO; feedback = true; learner = true }
    ~advisor:{ Advisor.default_config with window = 40 }
    ~pool_domains:(domains 1) ~statements ~weights ~next_of ~rate:50.0 ~tick_every:20 rng

let setup name seed =
  match name with
  | "serve-prepared" -> serve_prepared seed
  | "serve-adhoc" -> serve_adhoc seed
  | "scan-large" -> scan_large seed
  | "self-tuning" -> self_tuning seed
  | _ -> invalid_arg ("unknown workload " ^ name)

(* Set-ups per run (set-up time is their median): fewer where one
   set-up takes most of a second or more (millions of rows generated,
   or 19 relations registered). *)
let setups = function "scan-large" | "serve-adhoc" -> 3 | _ -> 5

let teardown env =
  Server.close_session env.session;
  Server.shutdown env.server
