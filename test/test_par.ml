(* The parallel runtime: pool mechanics, and the determinism contract —
   every parallel operator returns results byte-identical for any pool
   size, and (canonically) identical to all five sequential variants. *)

module Pool = Dqo_par.Pool
module Par_group = Dqo_par.Par_group
module Par_join = Dqo_par.Par_join
module Grouping = Dqo_exec.Grouping
module Group_result = Dqo_exec.Group_result
module Join = Dqo_exec.Join
module Pipeline = Dqo_exec.Pipeline
module Datagen = Dqo_data.Datagen
module Metrics = Dqo_obs.Metrics
module Rng = Dqo_util.Rng

let domain_counts = [ 1; 2; 3; 4; 8 ]

(* --- pool mechanics --------------------------------------------------- *)

let test_pool_create () =
  Pool.with_pool ~domains:1 (fun p ->
      Alcotest.(check int) "size 1" 1 (Pool.size p));
  Pool.with_pool ~domains:4 (fun p ->
      Alcotest.(check int) "size 4" 4 (Pool.size p));
  Alcotest.check_raises "domains < 1 rejected"
    (Invalid_argument "Pool.create: domains < 1") (fun () ->
      ignore (Pool.create ~domains:0 ()));
  (* Explicit sizes are capped at recommended*4 (DQO_POOL_MAX_DOMAINS
     overrides); anything past the cap is an explicit error, not a
     clamp. *)
  let cap = max 64 (Domain.recommended_domain_count () * 4) in
  Unix.putenv "DQO_POOL_MAX_DOMAINS" "";
  Alcotest.check_raises "domains > cap rejected"
    (Invalid_argument
       (Printf.sprintf
          "Pool.create: domains > %d (set DQO_POOL_MAX_DOMAINS to raise)" cap))
    (fun () -> ignore (Pool.create ~domains:(cap + 1) ()));
  (* The override lifts the cap: cap+1 domains must now be accepted
     (only spawn them when that stays a sane number of OS threads). *)
  Unix.putenv "DQO_POOL_MAX_DOMAINS" (string_of_int (cap + 1));
  (* Stay well under the OCaml runtime's own live-domain limit (128)
     when actually spawning the now-permitted size. *)
  if cap + 1 <= 80 then
    Pool.with_pool ~domains:(cap + 1) (fun p ->
        Alcotest.(check int) "override accepted" (cap + 1) (Pool.size p));
  Unix.putenv "DQO_POOL_MAX_DOMAINS" "garbage";
  Alcotest.check_raises "bad override rejected"
    (Invalid_argument "Pool.create: bad DQO_POOL_MAX_DOMAINS") (fun () ->
      ignore (Pool.create ~domains:2 ()));
  Unix.putenv "DQO_POOL_MAX_DOMAINS" "";
  (* shutdown is idempotent. *)
  let p = Pool.create ~domains:2 () in
  Pool.shutdown p;
  Pool.shutdown p

let test_run_visits_every_worker () =
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun p ->
          let hits = Array.make domains 0 in
          Pool.run p (fun w -> hits.(w) <- hits.(w) + 1);
          Alcotest.(check (array int))
            (Printf.sprintf "each of %d workers ran once" domains)
            (Array.make domains 1) hits))
    domain_counts

let test_parallel_for_covers_exactly_once () =
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun p ->
          List.iter
            (fun (n, chunk) ->
              let seen = Array.make (max n 1) 0 in
              Pool.parallel_for p ?chunk ~n (fun ~w:_ ~lo ~hi ->
                  for i = lo to hi do
                    seen.(i) <- seen.(i) + 1
                  done);
              Alcotest.(check (array int))
                (Printf.sprintf "n=%d chunk=%s domains=%d" n
                   (match chunk with None -> "-" | Some c -> string_of_int c)
                   domains)
                (if n = 0 then [| 0 |] else Array.make n 1)
                seen)
            [ (0, None); (1, None); (7, Some 1); (1_000, Some 3);
              (1_000, Some 1_000); (1_000, Some 5_000); (1_000, None) ]))
    domain_counts

let test_map_tasks_order () =
  Pool.with_pool ~domains:4 (fun p ->
      let tasks = Array.init 37 (fun i () -> i * i) in
      Alcotest.(check (array int))
        "results in task order"
        (Array.init 37 (fun i -> i * i))
        (Pool.map_tasks p tasks))

let test_map_reduce_chunk_order () =
  (* A non-commutative reduction exposes any order dependence. *)
  let go domains =
    Pool.with_pool ~domains (fun p ->
        Pool.map_reduce p ~chunk:13 ~n:100
          ~map:(fun ~lo ~hi -> Printf.sprintf "[%d,%d]" lo hi)
          ~reduce:( ^ ) ~init:"")
  in
  let expected = go 1 in
  List.iter
    (fun domains ->
      Alcotest.(check string)
        (Printf.sprintf "chunk order at %d domains" domains)
        expected (go domains))
    domain_counts

let test_exception_propagates () =
  Pool.with_pool ~domains:4 (fun p ->
      Alcotest.check_raises "worker exception re-raised" (Failure "boom")
        (fun () -> Pool.run p (fun w -> if w = 1 then failwith "boom"));
      (* The pool survives a failed job. *)
      let total = Atomic.make 0 in
      Pool.parallel_for p ~n:100 (fun ~w:_ ~lo ~hi ->
          ignore (Atomic.fetch_and_add total (hi - lo + 1)));
      Alcotest.(check int) "pool usable afterwards" 100 (Atomic.get total);
      Alcotest.check_raises "parallel_for body exception" (Failure "body")
        (fun () ->
          Pool.parallel_for p ~n:10 (fun ~w:_ ~lo:_ ~hi:_ -> failwith "body")))

(* --- pool sharing ------------------------------------------------------ *)

(* A nested region from inside a job must run inline (size-1 path)
   rather than deadlock on the pool's own workers.  Alcotest is not
   domain-safe, so each outer chunk records its inner region's coverage
   in its own slot (keyed by the chunk's [lo]) and the calling domain
   asserts after the region. *)
let test_nested_run_no_deadlock () =
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun p ->
          let outer = Array.make 1_000 0 in
          let inners = Array.make 1_000 None in
          Pool.parallel_for p ~n:1_000 (fun ~w:_ ~lo ~hi ->
              let inner = Array.make 10 0 in
              Pool.parallel_for p ~n:10 (fun ~w:_ ~lo ~hi ->
                  for i = lo to hi do
                    inner.(i) <- inner.(i) + 1
                  done);
              inners.(lo) <- Some inner;
              for i = lo to hi do
                outer.(i) <- outer.(i) + 1
              done);
          Alcotest.(check bool) "the first chunk ran an inner region" true
            (inners.(0) <> None);
          Array.iter
            (Option.iter
               (Alcotest.(check (array int))
                  (Printf.sprintf "inner region covered once at %d domains"
                     domains)
                  (Array.make 10 1)))
            inners;
          Alcotest.(check (array int))
            (Printf.sprintf "outer region covered once at %d domains" domains)
            (Array.make 1_000 1) outer))
    [ 2; 3; 4; 8 ]

(* Several systhreads submitting regions to one pool: regions serialise,
   each covers its own range exactly once, nobody deadlocks. *)
let test_concurrent_submitters () =
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun p ->
          let submitters = 6 and n = 2_000 in
          let seen = Array.init submitters (fun _ -> Array.make n 0) in
          let submitter t =
            for _ = 1 to 5 do
              Pool.parallel_for p ~n (fun ~w:_ ~lo ~hi ->
                  for i = lo to hi do
                    seen.(t).(i) <- seen.(t).(i) + 1
                  done)
            done
          in
          List.iter Thread.join
            (List.init submitters (fun t -> Thread.create submitter t));
          Array.iteri
            (fun t a ->
              Alcotest.(check (array int))
                (Printf.sprintf "submitter %d covered 5x at %d domains" t
                   domains)
                (Array.make n 5) a)
            seen))
    [ 2; 4; 8 ]

(* One long-lived pool reused across many executions returns exactly the
   relation a fresh pool (and the sequential path) returns. *)
let test_pool_reuse_byte_identical () =
  let db = Dqo_engine.Engine.create () in
  let rng = Rng.create ~seed:3 in
  let pair =
    Datagen.fk_pair ~rng ~r_rows:2_500 ~s_rows:9_000 ~r_groups:2_000
      ~r_sorted:false ~s_sorted:false ~dense:true
  in
  Dqo_engine.Engine.register db ~name:"R" pair.Datagen.r;
  Dqo_engine.Engine.register db ~name:"S" pair.Datagen.s;
  let sql = "SELECT a, COUNT(*) AS c FROM R JOIN S ON id = r_id GROUP BY a" in
  let p = Dqo_engine.Engine.prepare db sql in
  let plan = (Dqo_engine.Engine.prepared_entry p).Dqo_opt.Pareto.plan in
  let sequential = Dqo_engine.Engine.execute db plan in
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          for i = 1 to 5 do
            Alcotest.(check bool)
              (Printf.sprintf "reuse %d at %d domains byte-identical" i
                 domains)
              true
              (Dqo_engine.Engine.execute_on db ~pool plan = sequential)
          done))
    [ 1; 2; 4; 8 ]

(* --- grouping determinism --------------------------------------------- *)

let ic = Dqo_data.Int_col.of_array
let payloads rng n = ic (Array.init n (fun _ -> Rng.int rng 1_000))

let check_result = Alcotest.testable Group_result.pp Group_result.equal

(* Parallel partition-based grouping agrees with every sequential
   variant that applies to the dataset, across seeds and pool sizes. *)
let test_grouping_matches_all_variants () =
  List.iter
    (fun seed ->
      List.iter
        (fun (sorted, dense) ->
          let rng = Rng.create ~seed in
          let n = 5_000 in
          let dataset = Datagen.grouping ~rng ~n ~groups:97 ~sorted ~dense () in
          let values = payloads rng n in
          let keys = dataset.Datagen.keys in
          let reference =
            Grouping.hash_based ~keys ~values ()
          in
          List.iter
            (fun alg ->
              let applicable =
                match alg with
                | Grouping.SPHG -> dense
                | Grouping.OG -> sorted
                | Grouping.HG | Grouping.SOG | Grouping.BSG -> true
              in
              if applicable then
                Alcotest.check check_result
                  (Printf.sprintf "seed=%d %s agrees" seed (Grouping.name alg))
                  reference
                  (Grouping.run alg ~dataset ~values))
            Grouping.all;
          List.iter
            (fun domains ->
              Pool.with_pool ~domains (fun pool ->
                  Alcotest.check check_result
                    (Printf.sprintf "seed=%d domains=%d partition_based" seed
                       domains)
                    reference
                    (Par_group.partition_based pool ~keys ~values ());
                  if dense then begin
                    let u = dataset.Datagen.universe in
                    Alcotest.check check_result
                      (Printf.sprintf "seed=%d domains=%d sph" seed domains)
                      reference
                      (Par_group.sph pool ~lo:u.(0)
                         ~hi:u.(Array.length u - 1) ~keys ~values ())
                  end))
            domain_counts)
        [ (false, true); (false, false); (true, true) ])
    [ 7; 11; 42 ]

(* Byte-identical (structural =, slot order included), not merely
   canonically equal: vs the sequential pipeline rewrite, and across
   every pool size and partition count. *)
let test_grouping_byte_identical () =
  let n = 4_000 in
  let rng = Rng.create ~seed:5 in
  let dataset =
    Datagen.grouping ~rng ~n ~groups:211 ~sorted:false ~dense:true ()
  in
  let values = payloads rng n in
  let keys = dataset.Datagen.keys in
  List.iter
    (fun partitions ->
      let sequential =
        Pipeline.partition_based_grouping ~partitions
          (Pipeline.of_cols ~keys ~values ())
      in
      List.iter
        (fun domains ->
          Pool.with_pool ~domains (fun pool ->
              Alcotest.(check bool)
                (Printf.sprintf "partitions=%d domains=%d byte-identical"
                   partitions domains)
                true
                (Par_group.partition_based pool ~partitions ~keys ~values ()
                = sequential)))
        domain_counts)
    [ 1; 7; 64 ];
  let u = dataset.Datagen.universe in
  let lo = u.(0) and hi = u.(Array.length u - 1) in
  let sph_seq = Grouping.sph_based ~lo ~hi ~keys ~values in
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          Alcotest.(check bool)
            (Printf.sprintf "sph domains=%d byte-identical" domains)
            true
            (Par_group.sph pool ~lo ~hi ~keys ~values () = sph_seq)))
    domain_counts

let test_bundle_matches_sequential () =
  let n = 3_000 in
  let rng = Rng.create ~seed:13 in
  let keys = ic (Array.init n (fun _ -> Rng.int rng 500)) in
  let values = payloads rng n in
  let bundle () =
    Pipeline.partition_by ~partitions:11 (Pipeline.of_cols ~keys ~values ())
  in
  let sequential = Pipeline.aggregate_bundle (bundle ()) in
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          Alcotest.(check bool)
            (Printf.sprintf "bundle domains=%d byte-identical" domains)
            true
            (Par_group.aggregate_bundle pool (bundle ()) = sequential)))
    domain_counts

(* --- join determinism ------------------------------------------------- *)

let sorted_pairs (r : Join.result) =
  List.sort compare
    (Array.to_list (Array.map2 (fun l r -> (l, r)) r.Join.left r.Join.right))

let test_join_matches_all_variants () =
  List.iter
    (fun seed ->
      List.iter
        (fun sorted ->
          let rng = Rng.create ~seed in
          let gen n range =
            let a = Array.init n (fun _ -> Rng.int rng range) in
            if sorted then Array.sort compare a;
            a
          in
          let left = ic (gen 600 200) in
          let right = ic (gen 1_800 220) in
          let reference = sorted_pairs (Join.nested_loop_reference ~left ~right) in
          List.iter
            (fun alg ->
              let applicable =
                match alg with
                | Join.OJ -> sorted
                | Join.HJ | Join.SPHJ | Join.SOJ | Join.BSJ -> true
              in
              if applicable then
                Alcotest.(check bool)
                  (Printf.sprintf "seed=%d %s agrees" seed (Join.name alg))
                  true
                  (sorted_pairs (Join.run alg ~left ~right) = reference))
            Join.all;
          List.iter
            (fun domains ->
              Pool.with_pool ~domains (fun pool ->
                  Alcotest.(check bool)
                    (Printf.sprintf "seed=%d domains=%d par join agrees" seed
                       domains)
                    true
                    (sorted_pairs
                       (Par_join.partitioned_hash_join pool ~left ~right ())
                    = reference)))
            domain_counts)
        [ false; true ])
    [ 3; 17; 23 ]

let test_join_byte_identical_across_domains () =
  let rng = Rng.create ~seed:29 in
  let left = ic (Array.init 700 (fun _ -> Rng.int rng 150)) in
  let right = ic (Array.init 2_100 (fun _ -> Rng.int rng 160)) in
  let at domains =
    Pool.with_pool ~domains (fun pool ->
        Par_join.partitioned_hash_join pool ~left ~right ())
  in
  let reference = at 1 in
  List.iter
    (fun domains ->
      Alcotest.(check bool)
        (Printf.sprintf "domains=%d byte-identical" domains)
        true
        (at domains = reference))
    domain_counts

(* --- per-domain metrics ----------------------------------------------- *)

let test_parallel_metrics_merge () =
  let n = 2_000 in
  let rng = Rng.create ~seed:31 in
  let keys = ic (Array.init n (fun _ -> Rng.int rng 300)) in
  let values = payloads rng n in
  List.iter
    (fun domains ->
      let m = Metrics.create () in
      Pool.with_pool ~domains (fun pool ->
          ignore (Par_group.partition_based pool ~metrics:m ~keys ~values ()));
      Alcotest.(check int)
        (Printf.sprintf "par.domains at %d" domains)
        domains
        (Metrics.counter m "par.domains");
      match Metrics.find_op m "par/grouping-partition" with
      | None -> Alcotest.fail "partition op missing"
      | Some o ->
        Alcotest.(check int) "one invocation per partition"
          Par_group.default_partitions o.Metrics.invocations;
        Alcotest.(check int) "rows_in totals the input" n o.Metrics.rows_in)
    [ 1; 2; 4 ]

(* --- engine end to end ------------------------------------------------ *)

let demo_db () =
  let rng = Rng.create ~seed:3 in
  let pair =
    Datagen.fk_pair ~rng ~r_rows:2_500 ~s_rows:9_000 ~r_groups:2_000
      ~r_sorted:false ~s_sorted:false ~dense:true
  in
  let db = Dqo_engine.Engine.create () in
  Dqo_engine.Engine.register db ~name:"R" pair.Datagen.r;
  Dqo_engine.Engine.register db ~name:"S" pair.Datagen.s;
  db

let demo_sql = "SELECT a, COUNT(*) AS c FROM R JOIN S ON id = r_id GROUP BY a"

let test_engine_threads_identical () =
  let db = demo_db () in
  let canon r = List.sort compare (Dqo_data.Relation.rows r) in
  let sequential = canon (Dqo_engine.Engine.run_sql db demo_sql) in
  List.iter
    (fun threads ->
      let parallel = canon (Dqo_engine.Engine.run_sql db ~threads demo_sql) in
      Alcotest.(check bool)
        (Printf.sprintf "threads=%d result identical" threads)
        true
        (parallel = sequential))
    [ 2; 4 ];
  Alcotest.check_raises "threads < 1 rejected"
    (Invalid_argument "Engine.execute: threads < 1") (fun () ->
      ignore (Dqo_engine.Engine.run_sql db ~threads:0 demo_sql))

let test_explain_analyze_dop () =
  let db = demo_db () in
  Dqo_engine.Engine.set_opts db
    { (Dqo_engine.Engine.opts db) with Dqo_engine.Engine.threads = 3 };
  let a =
    Dqo_engine.Engine.explain_analyze db
      (Dqo_sql.Binder.plan_of_sql (Dqo_engine.Engine.catalog db) demo_sql)
  in
  let root = a.Dqo_engine.Engine.root in
  Alcotest.(check bool) "root label announces dop" true
    (Astring.String.is_infix ~affix:"[dop=3]" root.Dqo_opt.Explain.op);
  Alcotest.(check bool) "per-op metrics survived the merge" true
    (List.length (Metrics.ops a.Dqo_engine.Engine.metrics) >= 4)

let () =
  Alcotest.run "dqo_par"
    [
      ( "pool",
        [
          Alcotest.test_case "create & shutdown" `Quick test_pool_create;
          Alcotest.test_case "run visits every worker" `Quick
            test_run_visits_every_worker;
          Alcotest.test_case "parallel_for covers once" `Quick
            test_parallel_for_covers_exactly_once;
          Alcotest.test_case "map_tasks order" `Quick test_map_tasks_order;
          Alcotest.test_case "map_reduce chunk order" `Quick
            test_map_reduce_chunk_order;
          Alcotest.test_case "exceptions propagate" `Quick
            test_exception_propagates;
        ] );
      ( "sharing",
        [
          Alcotest.test_case "nested run no deadlock" `Quick
            test_nested_run_no_deadlock;
          Alcotest.test_case "concurrent submitters" `Quick
            test_concurrent_submitters;
          Alcotest.test_case "pool reuse byte-identical" `Quick
            test_pool_reuse_byte_identical;
        ] );
      ( "grouping",
        [
          Alcotest.test_case "matches all five variants" `Quick
            test_grouping_matches_all_variants;
          Alcotest.test_case "byte-identical across pool sizes" `Quick
            test_grouping_byte_identical;
          Alcotest.test_case "bundle aggregation" `Quick
            test_bundle_matches_sequential;
        ] );
      ( "join",
        [
          Alcotest.test_case "matches all five variants" `Quick
            test_join_matches_all_variants;
          Alcotest.test_case "byte-identical across pool sizes" `Quick
            test_join_byte_identical_across_domains;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "per-domain registries merge" `Quick
            test_parallel_metrics_merge;
        ] );
      ( "engine",
        [
          Alcotest.test_case "threads result identical" `Quick
            test_engine_threads_identical;
          Alcotest.test_case "explain analyze dop" `Quick
            test_explain_analyze_dop;
        ] );
    ]
