(* Runtime observability: named counters, span timers, and per-operator
   metrics (rows in/out, chunks, wall time).  A registry is a cheap
   mutable sink threaded through the executor and the bench harness;
   everything it records can be exported as JSON via [to_json].

   Times use the shared monotonic wall clock ([Dqo_util.Clock]), the
   same clock as [Dqo_util.Timer], so span timings and bench
   measurements are directly comparable and stay correct when work runs
   on several domains at once.

   Lookups are hash-table backed; [order] remembers first-insertion
   order so [to_json] output is stable and human-diffable.  A registry
   is still single-domain mutable state: under parallelism each domain
   records into its own registry and the runtime folds them together
   with [merge] after the barrier. *)

let now_ns () = Dqo_util.Clock.now_ns ()

type op = {
  op_name : string;
  mutable invocations : int;
  mutable rows_in : int;
  mutable rows_out : int;
  mutable chunks : int;
  mutable wall_ns : int;
}

(* One ordered name table per kind of record. *)
type 'a table = {
  entries : (string, 'a) Hashtbl.t;
  mutable order : string list; (* reversed insertion order *)
}

let table_create () = { entries = Hashtbl.create 16; order = [] }

let table_find_or_add tbl name create =
  match Hashtbl.find_opt tbl.entries name with
  | Some v -> v
  | None ->
    let v = create () in
    Hashtbl.add tbl.entries name v;
    tbl.order <- name :: tbl.order;
    v

let table_to_list tbl =
  List.rev_map (fun name -> (name, Hashtbl.find tbl.entries name)) tbl.order

(* A histogram keeps every observation (serving workloads record a few
   thousand samples per run, small enough to store exactly), so
   quantiles are exact rather than bucket-approximated. *)
type hist = {
  hist_name : string;
  mutable samples : float array;
  mutable count : int;
}

type t = {
  counters : int ref table;
  spans : int ref table; (* accumulated ns *)
  op_table : op table;
  hists : hist table;
}

let create () =
  { counters = table_create (); spans = table_create ();
    op_table = table_create (); hists = table_create () }

(* ------------------------------------------------------------------ *)
(* Counters.                                                           *)

let incr ?(by = 1) t name =
  let r = table_find_or_add t.counters name (fun () -> ref 0) in
  r := !r + by

let counter t name =
  match Hashtbl.find_opt t.counters.entries name with
  | Some r -> !r
  | None -> 0

(* ------------------------------------------------------------------ *)
(* Span timers.                                                        *)

let add_span_ns t name ns =
  let r = table_find_or_add t.spans name (fun () -> ref 0) in
  r := !r + ns

let span t name f =
  let t0 = now_ns () in
  Fun.protect ~finally:(fun () -> add_span_ns t name (now_ns () - t0)) f

let span_ns t name =
  match Hashtbl.find_opt t.spans.entries name with Some r -> !r | None -> 0

(* ------------------------------------------------------------------ *)
(* Per-operator metrics.                                               *)

let op t name =
  table_find_or_add t.op_table name (fun () ->
      { op_name = name; invocations = 0; rows_in = 0; rows_out = 0;
        chunks = 0; wall_ns = 0 })

let add_chunk o ~rows =
  o.chunks <- o.chunks + 1;
  o.rows_out <- o.rows_out + rows

let add_time o ns = o.wall_ns <- o.wall_ns + ns
let add_invocation o = o.invocations <- o.invocations + 1

let record t ~op:name ~rows_in ~rows_out ~wall_ns =
  let o = op t name in
  o.invocations <- o.invocations + 1;
  o.rows_in <- o.rows_in + rows_in;
  o.rows_out <- o.rows_out + rows_out;
  o.wall_ns <- o.wall_ns + wall_ns

let find_op t name = Hashtbl.find_opt t.op_table.entries name
let ops t = List.map snd (table_to_list t.op_table)

(* ------------------------------------------------------------------ *)
(* Histograms.                                                         *)

let hist t name =
  table_find_or_add t.hists name (fun () ->
      { hist_name = name; samples = Array.make 64 0.0; count = 0 })

let observe h v =
  if h.count = Array.length h.samples then begin
    let bigger = Array.make (2 * h.count) 0.0 in
    Array.blit h.samples 0 bigger 0 h.count;
    h.samples <- bigger
  end;
  h.samples.(h.count) <- v;
  h.count <- h.count + 1

let hist_name h = h.hist_name
let hist_count h = h.count

let hist_values h = Array.sub h.samples 0 h.count

(* Nearest-rank quantile over the recorded samples; [nan] when empty. *)
let hist_quantile h q =
  if q < 0.0 || q > 1.0 then invalid_arg "Metrics.hist_quantile: q outside [0, 1]";
  if h.count = 0 then Float.nan
  else begin
    let sorted = hist_values h in
    Array.sort Float.compare sorted;
    let rank = int_of_float (ceil (q *. Float.of_int h.count)) - 1 in
    sorted.(max 0 (min (h.count - 1) rank))
  end

let hist_mean h =
  if h.count = 0 then Float.nan
  else begin
    let s = ref 0.0 in
    for i = 0 to h.count - 1 do
      s := !s +. h.samples.(i)
    done;
    !s /. Float.of_int h.count
  end

let find_hist t name = Hashtbl.find_opt t.hists.entries name
let all_hists t = List.map snd (table_to_list t.hists)

(* ------------------------------------------------------------------ *)
(* Merging.                                                            *)

(* Fold [src] into [into], accumulating matching names and appending
   unseen ones in [src]'s insertion order — per-domain registries merge
   after the barrier without losing ordering stability. *)
let merge ~into src =
  List.iter
    (fun (name, r) -> incr ~by:!r into name)
    (table_to_list src.counters);
  List.iter
    (fun (name, r) -> add_span_ns into name !r)
    (table_to_list src.spans);
  List.iter
    (fun (name, (s : op)) ->
      let o = op into name in
      o.invocations <- o.invocations + s.invocations;
      o.rows_in <- o.rows_in + s.rows_in;
      o.rows_out <- o.rows_out + s.rows_out;
      o.chunks <- o.chunks + s.chunks;
      o.wall_ns <- o.wall_ns + s.wall_ns)
    (table_to_list src.op_table);
  List.iter
    (fun (name, (s : hist)) ->
      let h = hist into name in
      for i = 0 to s.count - 1 do
        observe h s.samples.(i)
      done)
    (table_to_list src.hists)

(* ------------------------------------------------------------------ *)
(* Export.                                                             *)

let op_to_json o =
  Json.Obj
    [
      ("op", Json.String o.op_name);
      ("invocations", Json.Int o.invocations);
      ("rows_in", Json.Int o.rows_in);
      ("rows_out", Json.Int o.rows_out);
      ("chunks", Json.Int o.chunks);
      ("wall_ns", Json.Int o.wall_ns);
    ]

let hist_to_json h =
  let q p = Json.of_float_opt (if h.count = 0 then None else Some (hist_quantile h p)) in
  Json.Obj
    [
      ("name", Json.String h.hist_name);
      ("count", Json.Int h.count);
      ("mean", Json.of_float_opt (if h.count = 0 then None else Some (hist_mean h)));
      ("p50", q 0.50);
      ("p95", q 0.95);
      ("p99", q 0.99);
      ("max", q 1.0);
    ]

let to_json t =
  Json.Obj
    [
      ( "counters",
        Json.Obj
          (List.map (fun (n, r) -> (n, Json.Int !r))
             (table_to_list t.counters)) );
      ( "spans_ns",
        Json.Obj
          (List.map (fun (n, r) -> (n, Json.Int !r)) (table_to_list t.spans))
      );
      ("operators", Json.List (List.map op_to_json (ops t)));
      ("histograms", Json.List (List.map hist_to_json (all_hists t)));
    ]
