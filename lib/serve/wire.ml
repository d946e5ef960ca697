(* Line-oriented protocol driver for [dqo serve]; see wire.mli for the
   command grammar.  The loop itself is single-threaded — concurrency
   comes from [submit]/[wait], which hand requests to the server's
   executor threads and collect them later. *)

module Column = Dqo_data.Column
module Int_col = Dqo_data.Int_col
module Relation = Dqo_data.Relation
module Schema = Dqo_data.Schema
module Value = Dqo_data.Value
module Metrics = Dqo_obs.Metrics

(* djb2-xor over a canonical rendering of every cell: schema order
   within a row, rows sorted first.  Sorting makes the digest a {e bag}
   fingerprint — physical-design changes (an advisor materialising or
   evicting an AV mid-run) may legitimately reorder result rows, and
   the digest's job is to certify the relation's content, not its
   storage order.  Stable across runs (no [Hashtbl.hash] — its output
   may differ between OCaml versions, and the digest lands in CI
   transcripts).

   The canonical order is the one [List.sort compare] gives the boxed
   [Relation.rows]; the digest reaches it without boxing.  Every column
   holds one constructor and none holds [Null], so polymorphic
   [compare] on a row list is the lexicographic order of the per-column
   [Int.compare]/[Float.compare]/[String.compare].  Rows equal under it
   may still hash differently (NaN payloads), so the permutation sort
   is stable, as [List.sort] is. *)
type cells = Ints of int array | Floats of float array | Strings of string array

let cells = function
  | Column.Ints c -> (
    match Int_col.as_flat_array c with
    | Some a -> Ints a
    | None -> Ints (Int_col.to_array c))
  | Column.Floats a -> Floats a
  | Column.Strings a -> Strings a

let compare_cells = function
  | Ints a -> fun i j -> Int.compare (Array.unsafe_get a i) (Array.unsafe_get a j)
  | Floats a -> fun i j -> Float.compare (Array.unsafe_get a i) (Array.unsafe_get a j)
  | Strings a -> fun i j -> String.compare (Array.unsafe_get a i) (Array.unsafe_get a j)

(* The canonical row order as a permutation, or [None] when the rows
   are in it already: key-ordered operators (SPHG, OG, SOG, BSG) emit a
   strictly increasing first column, checked on an int column's array
   directly.  Other rows take a stable sort under the full comparator. *)
let canonical_order cols n =
  let in_order =
    Array.length cols = 0
    ||
    match cols.(0) with
    | Ints a ->
      let rec go r = r >= n || (Array.unsafe_get a (r - 1) < Array.unsafe_get a r && go (r + 1)) in
      go 1
    | Floats _ | Strings _ ->
      let first = compare_cells cols.(0) in
      let rec go r = r >= n || (first (r - 1) r < 0 && go (r + 1)) in
      go 1
  in
  if in_order then None
  else begin
    let cmps = Array.map compare_cells cols in
    let compare_rows i j =
      let rec go k =
        if k = Array.length cmps then 0
        else
          let c = cmps.(k) i j in
          if c <> 0 then c else go (k + 1)
      in
      go 0
    in
    let perm = Array.init n Fun.id in
    Array.stable_sort compare_rows perm;
    Some perm
  end

(* One djb2-xor step, [h * 33] as a shift and an add.  Bits below 62
   of [h * 33] and of [lxor] depend only on the operands' bits below
   62, so masking the final value with [max_int] gives the digest that
   masking after every byte gives. *)
let mix_byte h b = ((h lsl 5) + h) lxor b

(* The eight little-endian bytes of [i], unrolled. *)
let mix_int h i =
  let h = mix_byte h (i land 0xff) in
  let h = mix_byte h ((i lsr 8) land 0xff) in
  let h = mix_byte h ((i lsr 16) land 0xff) in
  let h = mix_byte h ((i lsr 24) land 0xff) in
  let h = mix_byte h ((i lsr 32) land 0xff) in
  let h = mix_byte h ((i lsr 40) land 0xff) in
  let h = mix_byte h ((i lsr 48) land 0xff) in
  mix_byte h ((i lsr 56) land 0xff)

let mix_cell h cells r =
  match cells with
  | Ints a -> mix_int (mix_byte h 1) (Array.unsafe_get a r)
  | Floats a ->
    mix_int (mix_byte h 2) (Int64.to_int (Int64.bits_of_float (Array.unsafe_get a r)))
  | Strings a ->
    let h = ref (mix_byte h 3) in
    String.iter (fun c -> h := mix_byte !h (Char.code c)) (Array.unsafe_get a r);
    !h

(* The same step on an unboxed word. *)
let[@inline] mix64 x b = Int64.logxor (Int64.add (Int64.shift_left x 5) x) b

(* [33^z mod 2^64]: [z] steps on zero bytes, [x * 33] each. *)
let pow33 =
  let a = Array.make 9 1L in
  for z = 1 to 8 do
    a.(z) <- Int64.mul a.(z - 1) 33L
  done;
  a

(* [mix_cell] over all-int rows, on [Int64] words that [ocamlopt]
   keeps unboxed (the refs stay local).  [Int64.of_int] sign-extends,
   so bits 0..62 of a word are the int's; a step carries only upward,
   so bits 0..62 of [x] are those of the native fold.  An int's top
   byte is its bits 56..62, which [lsr] leaves in the last byte.  The
   bytes above an int's highest non-zero byte are zero, and a step on a
   zero byte is [x * 33]: those [z] steps are one multiply by [33^z]. *)
let mix_int_rows h ints perm n =
  let x = ref (Int64.of_int h) in
  for i = 0 to n - 1 do
    let r = match perm with None -> i | Some p -> Array.unsafe_get p i in
    for k = 0 to Array.length ints - 1 do
      let v = ref (Array.unsafe_get (Array.unsafe_get ints k) r) in
      let zeros = ref 8 in
      x := mix64 !x 1L;
      while !v <> 0 do
        x := mix64 !x (Int64.of_int (!v land 0xff));
        v := !v lsr 8;
        decr zeros
      done;
      x := Int64.mul !x (Array.unsafe_get pow33 !zeros)
    done
  done;
  Int64.to_int !x

let digest rel =
  let n = Relation.cardinality rel in
  let cols =
    Array.init (Schema.arity (Relation.schema rel)) (fun k ->
        cells (Relation.column_at rel k))
  in
  let perm = canonical_order cols n in
  let h = mix_int 5381 n in
  let ints =
    Array.map (function Ints a -> Some a | Floats _ | Strings _ -> None) cols
  in
  (* All-int results (every grouping) take the unboxed kernel. *)
  let h =
    if Array.for_all Option.is_some ints then
      mix_int_rows h (Array.map Option.get ints) perm n
    else begin
      let h = ref h in
      for i = 0 to n - 1 do
        let r = match perm with None -> i | Some p -> Array.unsafe_get p i in
        for k = 0 to Array.length cols - 1 do
          h := mix_cell !h (Array.unsafe_get cols k) r
        done
      done;
      !h
    end
  in
  Printf.sprintf "%016x" (h land max_int)

let result_header ?ticket rel =
  let cols =
    List.length (Dqo_data.Schema.fields (Relation.schema rel))
  in
  let t =
    match ticket with
    | Some id -> Printf.sprintf " ticket=%d" id
    | None -> ""
  in
  Printf.sprintf "result%s rows=%d cols=%d sum=%s" t
    (Relation.cardinality rel) cols (digest rel)

let row_line row = String.concat "\t" (List.map Value.to_string row)

(* One line, no newlines smuggled in from exception payloads. *)
let error_line e =
  let s = Printexc.to_string e in
  let s = String.map (fun c -> if c = '\n' || c = '\r' then ' ' else c) s in
  "error " ^ s

type state = {
  server : Server.t;
  sessions : (int, Server.session) Hashtbl.t;
  stmts : (int, Server.stmt) Hashtbl.t; (* wire view of the server cache *)
  tickets : (int, Server.ticket) Hashtbl.t;
  mutable next_ticket : int;
}

let find tbl what id =
  match Hashtbl.find_opt tbl id with
  | Some v -> v
  | None -> failwith (Printf.sprintf "unknown %s %d" what id)

let int_arg what s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> failwith (Printf.sprintf "bad %s: %s" what s)

let stats_line st =
  let m = Server.metrics st.server in
  let q name p =
    match Metrics.find_hist m name with
    | Some h when Metrics.hist_count h > 0 -> Metrics.hist_quantile h p
    | Some _ | None -> 0.0
  in
  (* [last_max_q] is the worst per-node q-error of the latest execution
     the feedback loop learned from (1.00 when feedback is off or no
     analysed execution ran yet) — it lets a wire client watch estimate
     quality converge across repeated submits. *)
  (* New fields append at the end of the line: CI and clients grep the
     stats line by prefix. *)
  let engine = Server.engine st.server in
  Printf.sprintf
    "ok stats requests=%d rejected=%d replans=%d feedback_replans=%d \
     rows_out=%d p50_ms=%.3f p95_ms=%.3f p99_ms=%.3f last_max_q=%.2f \
     advisor_installed=%d advisor_evicted=%d learner_observations=%d \
     learned_beam=%d"
    (Metrics.counter m "serve.requests")
    (Metrics.counter m "serve.rejected")
    (Metrics.counter m "serve.replans")
    (Metrics.counter m "feedback.replans")
    (Metrics.counter m "serve.rows_out")
    (q "serve.latency_ms" 0.50)
    (q "serve.latency_ms" 0.95)
    (q "serve.latency_ms" 0.99)
    (Dqo_cost.Feedback.last_max_q (Dqo_engine.Engine.corrections engine))
    (Metrics.counter m "advisor.installed")
    (Metrics.counter m "advisor.evicted")
    (Dqo_learn.Learner.observations (Dqo_engine.Engine.learner engine))
    (* 0 = the gate is not cutting anything right now: learner off,
       model still cold, or the guardrail escalated past the cap. *)
    (match Dqo_engine.Engine.effective_beam engine with
    | Some k when Dqo_learn.Learner.ready (Dqo_engine.Engine.learner engine)
      ->
      k
    | Some _ | None -> 0)

(* Split off the first [n] whitespace-separated tokens; the remainder
   (for [prepare]'s SQL) keeps its internal spacing. *)
let split_command line =
  match String.index_opt line ' ' with
  | None -> (line, "")
  | Some i ->
    ( String.sub line 0 i,
      String.trim (String.sub line i (String.length line - i)) )

let handle st line out =
  let emit s =
    output_string out s;
    output_char out '\n'
  in
  let keyword, rest = split_command (String.trim line) in
  match String.lowercase_ascii keyword with
  | "" -> ()
  | "open" ->
    let s = Server.open_session st.server in
    Hashtbl.replace st.sessions (Server.session_id s) s;
    emit (Printf.sprintf "ok session %d" (Server.session_id s))
  | "close" ->
    let sid = int_arg "session id" rest in
    Server.close_session (find st.sessions "session" sid);
    emit (Printf.sprintf "ok closed %d" sid)
  | "prepare" ->
    let sid_str, sql = split_command rest in
    let sid = int_arg "session id" sid_str in
    if String.length sql = 0 then failwith "prepare needs SQL";
    let stmt = Server.prepare (find st.sessions "session" sid) sql in
    Hashtbl.replace st.stmts (Server.stmt_id stmt) stmt;
    emit (Printf.sprintf "ok stmt %d" (Server.stmt_id stmt))
  | "exec" | "submit" -> (
    let sid_str, stmt_str = split_command rest in
    let sid = int_arg "session id" sid_str in
    let stmt_id = int_arg "statement id" stmt_str in
    let session = find st.sessions "session" sid in
    let stmt = find st.stmts "statement" stmt_id in
    match String.lowercase_ascii keyword with
    | "exec" ->
      let rel = Server.execute session stmt in
      emit (result_header rel);
      List.iter (fun row -> emit (row_line row)) (Relation.rows rel);
      emit "end"
    | _ -> (
      match Server.submit session stmt with
      | ticket ->
        st.next_ticket <- st.next_ticket + 1;
        Hashtbl.replace st.tickets st.next_ticket ticket;
        emit (Printf.sprintf "ok ticket %d" st.next_ticket)
      | exception Server.Overloaded { limit } ->
        emit (Printf.sprintf "error overloaded limit=%d" limit)))
  | "wait" ->
    let tid = int_arg "ticket id" rest in
    let rel = Server.await (find st.tickets "ticket" tid) in
    emit (result_header ~ticket:tid rel)
  | "advise" -> (
    match Server.advisor_tick st.server with
    | None -> failwith "advisor not enabled (start with --advisor)"
    | Some r ->
      emit
        (Printf.sprintf "ok advisor installed=%d evicted=%d bytes=%d"
           (List.length r.Dqo_advisor.Advisor.installed)
           (List.length r.Dqo_advisor.Advisor.evicted)
           r.Dqo_advisor.Advisor.av_bytes))
  | "stats" -> emit (stats_line st)
  | "quit" -> emit "ok bye"
  | other -> failwith ("unknown command " ^ other)

let serve server ic oc =
  let st =
    { server; sessions = Hashtbl.create 8; stmts = Hashtbl.create 8;
      tickets = Hashtbl.create 32; next_ticket = 0 }
  in
  let quit = ref false in
  while not !quit do
    match input_line ic with
    | exception End_of_file -> quit := true
    | line ->
      (if String.lowercase_ascii (fst (split_command (String.trim line))) = "quit"
       then quit := true);
      (try handle st line oc
       with e -> output_string oc (error_line e ^ "\n"));
      flush oc
  done
