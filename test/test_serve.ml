(* The serving front end: concurrent sessions over one shared pool,
   bounded admission, stale-plan invalidation, and the wire protocol. *)

module Engine = Dqo_engine.Engine
module Server = Dqo_serve.Server
module Wire = Dqo_serve.Wire
module Metrics = Dqo_obs.Metrics
module Datagen = Dqo_data.Datagen
module Rng = Dqo_util.Rng
module Relation = Dqo_data.Relation
module Schema = Dqo_data.Schema
module Column = Dqo_data.Column
module Int_col = Dqo_data.Int_col
module Value = Dqo_data.Value

let demo_sql = "SELECT a, COUNT(*) AS c FROM R JOIN S ON id = r_id GROUP BY a"

let demo_db () =
  let rng = Rng.create ~seed:3 in
  let pair =
    Datagen.fk_pair ~rng ~r_rows:2_500 ~s_rows:9_000 ~r_groups:2_000
      ~r_sorted:false ~s_sorted:false ~dense:true
  in
  let db = Engine.create () in
  Engine.register db ~name:"R" pair.Datagen.r;
  Engine.register db ~name:"S" pair.Datagen.s;
  db

let with_server ?max_inflight ?workers ?(threads = 2) f =
  let db = demo_db () in
  let srv = Server.create ?max_inflight ?workers ~threads db in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) (fun () -> f db srv)

(* --- sessions & concurrent execution ---------------------------------- *)

(* N concurrent sessions execute the same prepared statement; every
   result is byte-identical to the direct sequential engine run. *)
let test_concurrent_sessions_identical () =
  with_server (fun db srv ->
      let reference = Engine.run_sql db demo_sql in
      let sessions = 6 in
      let results = Array.make sessions None in
      let client i =
        let s = Server.open_session srv in
        let stmt = Server.prepare s demo_sql in
        results.(i) <- Some (Server.execute s stmt);
        Server.close_session s
      in
      List.iter Thread.join
        (List.init sessions (fun i -> Thread.create client i));
      Array.iteri
        (fun i r ->
          match r with
          | None -> Alcotest.fail (Printf.sprintf "session %d got no result" i)
          | Some rel ->
            Alcotest.(check bool)
              (Printf.sprintf "session %d byte-identical" i)
              true (rel = reference))
        results;
      Alcotest.(check int) "all requests drained" 0 (Server.in_flight srv);
      Alcotest.(check bool) "requests counted" true
        (Metrics.counter (Server.metrics srv) "serve.requests" >= sessions))

let test_statement_cache_shared () =
  with_server (fun _db srv ->
      let s1 = Server.open_session srv in
      let s2 = Server.open_session srv in
      let a = Server.prepare s1 demo_sql in
      let b = Server.prepare s2 demo_sql in
      Alcotest.(check int) "same cache entry from any session"
        (Server.stmt_id a) (Server.stmt_id b);
      Alcotest.(check string) "sql preserved" demo_sql (Server.stmt_sql a);
      let m = Server.metrics srv in
      Alcotest.(check int) "one miss" 1 (Metrics.counter m "serve.cache_misses");
      Alcotest.(check int) "one hit" 1 (Metrics.counter m "serve.cache_hits"))

let test_closed_session_rejected () =
  with_server (fun _db srv ->
      let s = Server.open_session srv in
      let stmt = Server.prepare s demo_sql in
      Server.close_session s;
      Server.close_session s (* idempotent *);
      Alcotest.check_raises "submit on closed session" Server.Session_closed
        (fun () -> ignore (Server.submit s stmt));
      Alcotest.check_raises "prepare on closed session" Server.Session_closed
        (fun () -> ignore (Server.prepare s demo_sql)))

(* --- admission --------------------------------------------------------- *)

(* Fill the admission window exactly; the (N+1)th submission is rejected
   with Overloaded, and collecting results reopens the window. *)
let test_admission_bound () =
  let limit = 4 in
  with_server ~max_inflight:limit (fun _db srv ->
      let s = Server.open_session srv in
      let stmt = Server.prepare s demo_sql in
      let tickets = List.init limit (fun _ -> Server.submit s stmt) in
      Alcotest.(check int) "window full" limit (Server.in_flight srv);
      Alcotest.check_raises "over-admission rejected"
        (Server.Overloaded { limit }) (fun () ->
          ignore (Server.submit s stmt));
      Alcotest.(check int) "rejection counted" 1
        (Metrics.counter (Server.metrics srv) "serve.rejected");
      let results = List.map Server.await tickets in
      Alcotest.(check int) "window empty after await" 0 (Server.in_flight srv);
      (match results with
      | first :: rest ->
        List.iteri
          (fun i r ->
            Alcotest.(check bool)
              (Printf.sprintf "result %d identical" (i + 1))
              true (r = first))
          rest
      | [] -> Alcotest.fail "no results");
      (* The window reopens: submitting again succeeds. *)
      ignore (Server.await (Server.submit s stmt)))

let test_await_idempotent () =
  with_server (fun _db srv ->
      let s = Server.open_session srv in
      let stmt = Server.prepare s demo_sql in
      let t = Server.submit s stmt in
      let a = Server.await t in
      let b = Server.await t in
      Alcotest.(check bool) "same outcome on re-await" true (a == b);
      Alcotest.(check int) "slot released once" 0 (Server.in_flight srv))

(* --- stale-plan invalidation ------------------------------------------- *)

let replan =
  Alcotest.testable
    (fun ppf r ->
      Format.pp_print_string ppf
        (match r with Engine.Stale -> "Stale" | Engine.Drifted -> "Drifted"))
    ( = )

(* Engine level: install_av bumps the generation; execute_prepared
   raises Stale_plan until revalidate replans. *)
let test_engine_stale_plan () =
  let db = demo_db () in
  let p = Engine.prepare db demo_sql in
  let before = Engine.run_sql db demo_sql in
  let gen0 = Engine.av_generation db in
  Alcotest.(check bool) "fresh after prepare" false (Engine.prepared_stale db p);
  Alcotest.(check (option replan)) "fresh plan is current" None
    (Engine.revalidate db p);
  (match Dqo_av.Avsp.default_candidates (Engine.catalog db) with
  | v :: _ -> Engine.install_av db v
  | [] -> Alcotest.fail "no AV candidates");
  Alcotest.(check bool) "generation bumped" true
    (Engine.av_generation db > gen0);
  Alcotest.(check bool) "plan now stale" true (Engine.prepared_stale db p);
  (try
     ignore (Engine.execute_prepared db p);
     Alcotest.fail "expected Stale_plan"
   with Engine.Stale_plan _ -> ());
  Alcotest.(check (option replan)) "stale plan replans" (Some Engine.Stale)
    (Engine.revalidate db p);
  let after = Engine.execute_prepared db p in
  Alcotest.(check bool) "replanned result canonically equal" true
    (List.sort compare (Dqo_data.Relation.rows after)
    = List.sort compare (Dqo_data.Relation.rows before));
  Alcotest.(check bool) "fresh again after reprepare" false
    (Engine.prepared_stale db p)

(* Server level: the cache revalidates transparently and counts the
   replan. *)
let test_server_replans_after_install_av () =
  with_server (fun db srv ->
      let s = Server.open_session srv in
      let stmt = Server.prepare s demo_sql in
      let before = Server.execute s stmt in
      (match Dqo_av.Avsp.default_candidates (Engine.catalog db) with
      | v :: _ -> Engine.install_av db v
      | [] -> Alcotest.fail "no AV candidates");
      let after = Server.execute s stmt in
      Alcotest.(check bool) "replan counted" true
        (Metrics.counter (Server.metrics srv) "serve.replans" >= 1);
      Alcotest.(check bool) "result canonically unchanged" true
        (List.sort compare (Dqo_data.Relation.rows after)
        = List.sort compare (Dqo_data.Relation.rows before)))

(* --- opts record -------------------------------------------------------- *)

let test_engine_opts () =
  let db = demo_db () in
  Alcotest.(check bool) "defaults" true
    (Engine.opts db = Engine.default_opts);
  let seq = Engine.run_sql db demo_sql in
  Engine.set_opts db
    { Engine.default_opts with Engine.mode = Engine.DQO; threads = 2 };
  Alcotest.(check int) "threads stored" 2 (Engine.opts db).Engine.threads;
  Alcotest.(check bool) "feedback defaults off" false
    (Engine.opts db).Engine.feedback;
  Alcotest.(check bool) "opts-default threads byte-identical" true
    (Engine.run_sql db demo_sql = seq);
  (* Per-call optionals still override the handle. *)
  Alcotest.(check bool) "per-call override still works" true
    (Engine.run_sql db ~threads:1 demo_sql = seq);
  Alcotest.check_raises "bad opts rejected"
    (Invalid_argument "Engine.opts: threads < 1") (fun () ->
      Engine.set_opts db
        { Engine.default_opts with Engine.mode = Engine.DQO; threads = 0 });
  Alcotest.check_raises "bad threshold rejected"
    (Invalid_argument "Engine.opts: qerror_threshold < 1.0") (fun () ->
      Engine.set_opts db
        { Engine.default_opts with Engine.qerror_threshold = 0.5 })

(* --- wire protocol ------------------------------------------------------ *)

let run_wire ?(threads = 2) script =
  let db = demo_db () in
  Engine.set_opts db
    { Engine.default_opts with Engine.mode = Engine.DQO; threads };
  let srv = Server.create ~max_inflight:4 db in
  let r_in, w_in = Unix.pipe () in
  let ic = Unix.in_channel_of_descr r_in in
  let oc_w = Unix.out_channel_of_descr w_in in
  output_string oc_w script;
  close_out oc_w;
  let buf_path = Filename.temp_file "dqo_wire" ".out" in
  let out = open_out buf_path in
  Fun.protect
    ~finally:(fun () -> Server.shutdown srv)
    (fun () -> Wire.serve srv ic out);
  close_out out;
  close_in ic;
  let chan = open_in buf_path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line chan :: !lines
     done
   with End_of_file -> ());
  close_in chan;
  Sys.remove buf_path;
  List.rev !lines

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let test_wire_session_and_exec () =
  let lines =
    run_wire
      "open\nopen\nprepare 1 SELECT a, COUNT(*) AS c FROM R GROUP BY a\n\
       prepare 2 SELECT a, COUNT(*) AS c FROM R GROUP BY a\nexec 1 1\n\
       exec 2 1\nclose 1\nclose 2\nquit\n"
  in
  (match lines with
  | "ok session 1" :: "ok session 2" :: "ok stmt 1" :: "ok stmt 1" :: rest ->
    (* Both execs return the identical single-row result. *)
    let results =
      List.filter (has_prefix "result ") rest
    in
    (match results with
    | [ a; b ] -> Alcotest.(check string) "identical exec results" a b
    | _ -> Alcotest.fail "expected two result headers")
  | _ -> Alcotest.fail ("unexpected prefix: " ^ String.concat " | " lines));
  Alcotest.(check bool) "says goodbye" true (List.mem "ok bye" lines)

let test_wire_submit_wait_and_overload () =
  let lines =
    run_wire
      "open\nprepare 1 SELECT a, COUNT(*) AS c FROM R JOIN S ON id = r_id \
       GROUP BY a\nsubmit 1 1\nsubmit 1 1\nsubmit 1 1\nsubmit 1 1\n\
       submit 1 1\nwait 1\nwait 2\nwait 3\nwait 4\nstats\nquit\n"
  in
  Alcotest.(check bool) "fifth submit rejected" true
    (List.mem "error overloaded limit=4" lines);
  let sums =
    List.filter_map
      (fun l ->
        if has_prefix "result ticket=" l then
          Some (List.hd (List.rev (String.split_on_char ' ' l)))
        else None)
      lines
  in
  Alcotest.(check int) "four results" 4 (List.length sums);
  List.iter
    (fun s ->
      Alcotest.(check string) "all digests identical" (List.hd sums) s)
    sums;
  Alcotest.(check bool) "stats line present" true
    (List.exists (has_prefix "ok stats requests=4 rejected=1") lines)

let test_wire_errors_keep_serving () =
  let lines = run_wire "bogus\nexec 99 1\nopen\nquit\n" in
  (match lines with
  | e1 :: e2 :: rest ->
    Alcotest.(check bool) "unknown command reported" true
      (has_prefix "error " e1);
    Alcotest.(check bool) "unknown session reported" true
      (has_prefix "error " e2);
    Alcotest.(check bool) "still serving afterwards" true
      (List.mem "ok session 1" rest)
  | _ -> Alcotest.fail "expected two error lines");
  Alcotest.(check bool) "clean quit" true (List.mem "ok bye" lines)

(* --- result digest -------------------------------------------------- *)

(* The boxed digest [Wire.digest] replaced, kept as its reference: box
   every row, sort the rows with polymorphic [compare], hash the cells. *)
let reference_digest rel =
  let h = ref 5381 in
  let mix_byte b = h := ((!h * 33) lxor b) land max_int in
  let mix_string s = String.iter (fun c -> mix_byte (Char.code c)) s in
  let mix_int i =
    for shift = 0 to 7 do
      mix_byte ((i lsr (8 * shift)) land 0xff)
    done
  in
  mix_int (Relation.cardinality rel);
  List.iter
    (fun row ->
      List.iter
        (fun v ->
          match v with
          | Value.Null -> mix_byte 0
          | Value.Int i ->
            mix_byte 1;
            mix_int i
          | Value.Float f ->
            mix_byte 2;
            mix_int (Int64.to_int (Int64.bits_of_float f))
          | Value.String s ->
            mix_byte 3;
            mix_string s)
        row)
    (List.sort compare (Relation.rows rel));
  Printf.sprintf "%016x" (!h land max_int)

(* Random relations for the digest property.  A column's kind fixes its
   type and, for ints, its storage and range ([Wide]: flat, every byte
   below the top four in play); rows are drawn mostly from a small pool
   so duplicates are common; the first column is left as drawn, sorted,
   or replaced by a strictly increasing run. *)
type kind = Flat | W32 | W64 | Wide | Floats | Strings
type first = As_drawn | Sorted | Strict

let nan_with_payload p = Int64.float_of_bits (Int64.logor 0x7FF0000000000000L p)

let float_cells =
  [| Float.nan; nan_with_payload 1L; nan_with_payload 0x8000000000001L;
     -.Float.nan; -0.0; 0.0; Float.infinity; Float.neg_infinity; 1.5; -2.25 |]

let string_cells = [| ""; "a"; "ab"; "abc"; "abd"; "b"; "ba"; "\000" |]

let int_cells = [| min_int; -3; -1; 0; 1; 2; 7; 1 lsl 40; max_int |]

let gen_cell kind =
  let open QCheck.Gen in
  let pick a = map (fun i -> a.(i)) (int_bound (Array.length a - 1)) in
  match kind with
  | Flat | W64 -> map (fun i -> Value.Int i) (pick int_cells)
  | W32 -> map (fun i -> Value.Int i) (int_range (-4) 4)
  | Wide -> map (fun i -> Value.Int i) (int_range (-1_000_000_000) 1_000_000_000)
  | Floats -> map (fun f -> Value.Float f) (pick float_cells)
  | Strings -> map (fun s -> Value.String s) (pick string_cells)

let strict_cell kind i =
  match kind with
  | Flat | W32 | W64 -> Value.Int (i - 100)
  | Wide -> Value.Int ((i - 100) * 7_919)
  | Floats -> Value.Float (Float.of_int i -. 99.5)
  | Strings -> Value.String (Printf.sprintf "k%03d" i)

let digest_column kind (cells : Value.t array) =
  let ints () = Array.map Value.int_exn cells in
  let chunked w =
    let a = ints () in
    Column.of_int_col
      (Int_col.init ~backend:(Int_col.Chunked w) ~chunk_rows:16 (Array.length a)
         (fun i -> a.(i)))
  in
  match kind with
  | Flat | Wide -> Column.of_ints (ints ())
  | W32 -> chunked Int_col.W32
  | W64 -> chunked Int_col.W64
  | Floats ->
    Column.Floats
      (Array.map (function Value.Float f -> f | _ -> assert false) cells)
  | Strings ->
    Column.Strings
      (Array.map (function Value.String s -> s | _ -> assert false) cells)

let gen_relation =
  let open QCheck.Gen in
  let* kinds =
    list_size (int_bound 4) (oneofl [ Flat; W32; W64; Wide; Floats; Strings ])
  in
  let* n =
    if kinds = [] then return 0 else frequency [ (1, int_bound 1); (9, int_bound 300) ]
  in
  let* first = oneofl [ As_drawn; Sorted; Strict ] in
  let gen_row = flatten_l (List.map gen_cell kinds) in
  let* pool = list_size (int_range 1 6) gen_row in
  let* rows =
    list_repeat n (frequency [ (4, oneofl pool); (1, gen_row) ])
  in
  let rows = Array.of_list (List.map Array.of_list rows) in
  let columns =
    List.mapi
      (fun k kind ->
        let cells = Array.map (fun row -> row.(k)) rows in
        (if k = 0 then
           match first with
           | As_drawn -> ()
           | Sorted -> Array.stable_sort compare cells
           | Strict -> Array.iteri (fun i _ -> cells.(i) <- strict_cell kind i) cells);
        (Printf.sprintf "c%d" k, kind, cells))
      kinds
  in
  let ty = function
    | Flat | W32 | W64 | Wide -> Schema.T_int
    | Floats -> Schema.T_float
    | Strings -> Schema.T_string
  in
  return
    (Relation.create
       (Schema.of_names (List.map (fun (name, kind, _) -> (name, ty kind)) columns))
       (List.map (fun (_, kind, cells) -> digest_column kind cells) columns))

let print_relation rel =
  let cell = function
    | Value.Float f -> Printf.sprintf "%h/%016Lx" f (Int64.bits_of_float f)
    | v -> Printf.sprintf "%S" (Value.to_string v)
  in
  String.concat "\n"
    (List.map (fun row -> String.concat " " (List.map cell row)) (Relation.rows rel))

let prop_digest_matches_reference =
  QCheck.Test.make ~count:1000 ~name:"columnar digest = boxed reference"
    (QCheck.make ~print:print_relation gen_relation)
    (fun rel -> String.equal (Wire.digest rel) (reference_digest rel))

(* The columnar digest as it was before the final-mask rewrite, kept as
   its reference: mask after every byte, one closure-compare sort when
   the first column is not strictly increasing. *)
let per_byte_digest rel =
  let n = Relation.cardinality rel in
  let cols =
    Array.init (Schema.arity (Relation.schema rel)) (fun k ->
        match Relation.column_at rel k with
        | Column.Ints c -> `Ints (Int_col.to_array c)
        | Column.Floats a -> `Floats a
        | Column.Strings a -> `Strings a)
  in
  let cmp c i j =
    match c with
    | `Ints a -> Int.compare a.(i) a.(j)
    | `Floats a -> Float.compare a.(i) a.(j)
    | `Strings a -> String.compare a.(i) a.(j)
  in
  let mix_byte h b = ((h * 33) lxor b) land max_int in
  let mix_int h i =
    let h = ref h in
    for shift = 0 to 7 do
      h := mix_byte !h ((i lsr (8 * shift)) land 0xff)
    done;
    !h
  in
  let mix_cell h c r =
    match c with
    | `Ints a -> mix_int (mix_byte h 1) a.(r)
    | `Floats a -> mix_int (mix_byte h 2) (Int64.to_int (Int64.bits_of_float a.(r)))
    | `Strings a ->
      let h = ref (mix_byte h 3) in
      String.iter (fun ch -> h := mix_byte !h (Char.code ch)) a.(r);
      !h
  in
  let in_order =
    Array.length cols = 0
    ||
    let rec go r = r >= n || (cmp cols.(0) (r - 1) r < 0 && go (r + 1)) in
    go 1
  in
  let compare_rows i j =
    let rec go k =
      if k = Array.length cols then 0
      else
        let c = cmp cols.(k) i j in
        if c <> 0 then c else go (k + 1)
    in
    go 0
  in
  let perm = Array.init n Fun.id in
  if not in_order then Array.stable_sort compare_rows perm;
  let h = ref (mix_int 5381 n) in
  Array.iter (fun r -> Array.iter (fun c -> h := mix_cell !h c r) cols) perm;
  Printf.sprintf "%016x" (!h land max_int)

(* The generator covers min_int/max_int, NaN payloads, strings, rows
   out of order and the empty relation (with and without columns). *)
let prop_digest_matches_per_byte =
  QCheck.Test.make ~count:1000 ~name:"final-mask digest = per-byte-mask digest"
    (QCheck.make ~print:print_relation gen_relation)
    (fun rel -> String.equal (Wire.digest rel) (per_byte_digest rel))

(* All-int relations whose cells have every byte length, both signs,
   and the values where a byte turns zero or non-zero: the digest folds
   an int's zero top bytes into one multiply, which must hash exactly
   as the byte-wise kernel above. *)
let gen_int_relation =
  let open QCheck.Gen in
  let edges =
    [ 0; 1; -1; 0xff; 0x100; 0xffff; 0x10000; (1 lsl 56) - 1; 1 lsl 56;
      max_int; min_int; max_int - 1; min_int + 1 ]
  in
  let by_bytes =
    let* bytes = int_range 1 8 in
    let* parts = list_repeat bytes (int_bound 255) in
    let v = List.fold_left (fun v b -> (v lsl 8) lor b) 0 parts in
    oneofl [ v; -v; lnot v ]
  in
  let cell = frequency [ (1, oneofl edges); (3, by_bytes) ] in
  let* kinds = list_size (int_range 1 3) (oneofl [ Flat; W64 ]) in
  let* n = int_bound 200 in
  let* rows = list_repeat n (list_repeat (List.length kinds) cell) in
  let rows = Array.of_list (List.map Array.of_list rows) in
  return
    (Relation.create
       (Schema.of_names (List.mapi (fun k _ -> (Printf.sprintf "c%d" k, Schema.T_int)) kinds))
       (List.mapi
          (fun k kind ->
            digest_column kind (Array.map (fun row -> Value.Int row.(k)) rows))
          kinds))

let prop_digest_int_bytes =
  QCheck.Test.make ~count:1000 ~name:"zero-byte fold = per-byte-mask digest"
    (QCheck.make ~print:print_relation gen_int_relation)
    (fun rel -> String.equal (Wire.digest rel) (per_byte_digest rel))

(* Hex digests printed by the boxed implementation before the columnar
   one replaced it: the byte stream must not change across versions. *)
let test_digest_golden () =
  let db = demo_db () in
  let check label expected rel =
    Alcotest.(check string) (label ^ ": reference") expected (reference_digest rel);
    Alcotest.(check string) (label ^ ": digest") expected (Wire.digest rel)
  in
  check "4.3 query" "15cac3aead453a3e" (Engine.run_sql db demo_sql);
  check "avg" "3595ba095812d035"
    (Engine.run_sql db "SELECT b, AVG(r_id) AS m FROM S GROUP BY b");
  check "strings" "3b657e10865fa9cc"
    (Relation.create
       (Schema.of_names
          [ ("name", Schema.T_string); ("n", Schema.T_int); ("x", Schema.T_float) ])
       [
         Column.Strings [| "abc"; ""; "ab"; "abc"; "b"; "" |];
         Column.of_ints [| 3; 1; 2; 3; -5; 0 |];
         Column.Floats [| 0.5; -0.0; Float.nan; 0.5; Float.infinity; 2.0 |];
       ])

let () =
  Alcotest.run "dqo_serve"
    [
      ( "sessions",
        [
          Alcotest.test_case "concurrent sessions identical" `Quick
            test_concurrent_sessions_identical;
          Alcotest.test_case "statement cache shared" `Quick
            test_statement_cache_shared;
          Alcotest.test_case "closed session rejected" `Quick
            test_closed_session_rejected;
        ] );
      ( "admission",
        [
          Alcotest.test_case "bound enforced" `Quick test_admission_bound;
          Alcotest.test_case "await idempotent" `Quick test_await_idempotent;
        ] );
      ( "invalidation",
        [
          Alcotest.test_case "engine stale plan" `Quick test_engine_stale_plan;
          Alcotest.test_case "server replans" `Quick
            test_server_replans_after_install_av;
        ] );
      ( "opts",
        [ Alcotest.test_case "engine opts record" `Quick test_engine_opts ] );
      ( "wire",
        [
          Alcotest.test_case "session & exec" `Quick test_wire_session_and_exec;
          Alcotest.test_case "submit, wait, overload" `Quick
            test_wire_submit_wait_and_overload;
          Alcotest.test_case "errors keep serving" `Quick
            test_wire_errors_keep_serving;
        ] );
      ( "digest",
        [
          QCheck_alcotest.to_alcotest prop_digest_matches_reference;
          QCheck_alcotest.to_alcotest prop_digest_matches_per_byte;
          QCheck_alcotest.to_alcotest prop_digest_int_bytes;
          Alcotest.test_case "golden hex" `Quick test_digest_golden;
        ] );
    ]
