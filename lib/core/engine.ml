module Relation = Dqo_data.Relation
module Schema = Dqo_data.Schema
module Column = Dqo_data.Column
module Int_col = Dqo_data.Int_col
module Physical = Dqo_plan.Physical
module Logical = Dqo_plan.Logical
module Props = Dqo_plan.Props
module Catalog = Dqo_opt.Catalog
module Grouping = Dqo_exec.Grouping
module Join = Dqo_exec.Join
module Aggregate = Dqo_exec.Aggregate
module Fks = Dqo_hash.Perfect.Fks

type mode = SQO | DQO

type opts = {
  mode : mode;
  threads : int;
  feedback : bool;
  qerror_threshold : float;
  learner : bool;
  beam_width : int;
  hier_threshold : int;
  partition_max : int;
}

let default_opts =
  {
    mode = DQO;
    threads = 1;
    feedback = false;
    qerror_threshold = 2.0;
    learner = false;
    beam_width = 4;
    hier_threshold = 16;
    partition_max = 12;
  }

let check_opts o =
  if o.threads < 1 then invalid_arg "Engine.opts: threads < 1";
  if o.qerror_threshold < 1.0 then
    invalid_arg "Engine.opts: qerror_threshold < 1.0";
  if o.beam_width < 1 then invalid_arg "Engine.opts: beam_width < 1";
  if o.hier_threshold < 0 then invalid_arg "Engine.opts: hier_threshold < 0";
  if o.partition_max < 1 then invalid_arg "Engine.opts: partition_max < 1";
  o

type stored = { rel : Relation.t; info : Catalog.table_info }

type t = {
  model : Dqo_cost.Model.t;
  mutable opts : opts;
  (* Each stored relation with its measured properties, computed once
     when the relation is added or replaced (relations are immutable
     once registered, so the measurement stays true). *)
  mutable relations : (string * stored) list;
  mutable catalog : Catalog.t;
  (* Installed views with the resident bytes measured at install time,
     so an advisor can enforce a memory budget against reality. *)
  mutable avs : (Dqo_av.View.t * int) list;
  (* Bumped whenever the physical design changes
     (register / install_av / uninstall_av); prepared statements
     snapshot it so stale plans are detectable. *)
  mutable generation : int;
  (* Perfect-hash structures built by AVs, keyed by column name; the
     executor consults these when a plan prescribes SPH on a column whose
     physical domain is not dense. *)
  fks_index : (string, Fks.t) Hashtbl.t;
  (* Cardinality corrections learned from analysed executions.  Always
     allocated; [opts.feedback] gates whether planning reads it and
     execution writes it, so toggling the option never loses what was
     already learned. *)
  corrections : Dqo_cost.Feedback.t;
  (* The learned value model gating the join DP.  Same lifecycle rule
     as [corrections]: always allocated, [opts.learner] gates use. *)
  value_model : Dqo_learn.Learner.t;
  (* Guardrail state: each time a beam-gated plan's execution regresses
     past [qerror_threshold], the beam doubles; past [beam_cap] the
     search goes back to exhaustive for good. *)
  mutable beam_widenings : int;
}

let create ?(model = Dqo_cost.Model.table2) ?(opts = default_opts) () =
  {
    model;
    opts = check_opts opts;
    relations = [];
    catalog = Catalog.create [];
    avs = [];
    generation = 0;
    fks_index = Hashtbl.create 8;
    corrections = Dqo_cost.Feedback.create ();
    value_model = Dqo_learn.Learner.create ();
    beam_widenings = 0;
  }

let opts t = t.opts
let set_opts t o = t.opts <- check_opts o
let av_generation t = t.generation
let corrections t = t.corrections
let learner t = t.value_model
let beam_widenings t = t.beam_widenings

(* The store the planner / analyser should consult right now. *)
let active_feedback t = if t.opts.feedback then Some t.corrections else None

(* The beam width planning should gate with right now: the configured
   width doubled per guardrail widening, [None] (exhaustive) once that
   escalation passes the cap — a workload the model keeps misjudging
   stops being gated at all. *)
let beam_cap = 32

let effective_beam t =
  if not t.opts.learner then None
  else
    let b = t.opts.beam_width lsl t.beam_widenings in
    if b > beam_cap then None else Some b

(* Whether a search started now would actually cut candidates: the gate
   is configured, not widened past the cap, and the model is warm.
   Captured per plan so the guardrail only reacts to executions of
   genuinely gated plans. *)
let gated_planning t =
  effective_beam t <> None && Dqo_learn.Learner.ready t.value_model

(* A per-call [?mode] override falls back to the handle's mode. *)
let resolve_mode t mode = Option.value ~default:t.opts.mode mode

let installed_avs t = List.map fst t.avs
let av_bytes t = List.fold_left (fun acc (_, b) -> acc + b) 0 t.avs

let measured name rel = (name, { rel; info = Catalog.of_relation name rel })

(* The catalog is the stored measurements with the catalog-level views
   applied; nothing is measured here. *)
let rebuild_catalog t =
  (* Grouping-result AVs already exist as stored relations, measured
     when installed; re-applying them would duplicate the catalog
     entry. *)
  let catalog_level_avs =
    List.filter
      (fun (v : Dqo_av.View.t) ->
        match v.Dqo_av.View.kind with
        | Dqo_av.View.Grouping_result _ -> false
        | Dqo_av.View.Sorted_projection _ | Dqo_av.View.Perfect_hash _ -> true)
      (installed_avs t)
  in
  t.catalog <-
    Dqo_av.View.apply_all
      (Catalog.create (List.map (fun (_, s) -> s.info) t.relations))
      catalog_level_avs

let register t ~name rel =
  if List.mem_assoc name t.relations then
    invalid_arg ("Engine.register: relation already registered: " ^ name);
  t.relations <- t.relations @ [ measured name rel ];
  t.generation <- t.generation + 1;
  rebuild_catalog t

let stored t name =
  match List.assoc_opt name t.relations with
  | Some s -> s
  | None -> raise Not_found

let relation t name = (stored t name).rel
let measurement t name = (stored t name).info

let catalog t = t.catalog

(* The one pool rule: a caller-owned pool (e.g. the server's long-lived
   one) wins; otherwise the call runs inline at one thread, else on a
   per-call pool of that many domains ([threads] defaults to the
   handle's). *)
let on_pool t ?pool ?(threads = t.opts.threads) f =
  match pool with
  | Some _ -> f pool
  | None -> (
    match threads with
    | n when n < 1 -> invalid_arg "Engine.execute: threads < 1"
    | 1 -> f None
    | n -> Dqo_par.Pool.with_pool ~domains:n (fun pool -> f (Some pool)))

(* The one search dispatch behind [plan], [prepare], [reprepare] and
   [explain_analyze].  A GROUP BY answerable from an installed
   materialised-grouping AV is rewritten onto the view relation first;
   feedback and the beam gate apply as configured; queries joining more
   than [hier_threshold] relations (the point past which the exhaustive
   DP's cost blows up) plan hierarchically.  The DP fans its levels over
   [pool] and returns byte-identical plans for any pool size. *)
let search t ?pool ?metrics mode l =
  let search_mode =
    match mode with SQO -> Dqo_opt.Search.Shallow | DQO -> Dqo_opt.Search.Deep
  in
  let l = Dqo_av.View.rewrite_through (installed_avs t) l in
  let feedback = active_feedback t in
  let learner, beam =
    match effective_beam t with
    | Some b -> (Some t.value_model, Some b)
    | None -> (None, None)
  in
  if List.length (Logical.relations l) > t.opts.hier_threshold then
    let entries, stats, report =
      Dqo_opt.Hier.optimize_entries ~model:t.model ?pool ?metrics ?feedback
        ?learner ?beam ~partition_max:t.opts.partition_max search_mode
        t.catalog l
    in
    (entries, stats, Some report)
  else
    let entries, stats =
      Dqo_opt.Search.optimize_entries ~model:t.model ?pool ?metrics ?feedback
        ?learner ?beam search_mode t.catalog l
    in
    (entries, stats, None)

let cheapest t ?pool mode l =
  let entries, _, _ = search t ?pool mode l in
  Dqo_opt.Pareto.cheapest entries

let plan t ?pool mode l = on_pool t ?pool (fun pool -> cheapest t ?pool mode l)

(* Kept only for the served-query benchmark, which pins this name. *)
let plan_on t ~pool mode l = plan t ~pool mode l

let plan_sql t mode sql = plan t mode (Dqo_sql.Binder.plan_of_sql t.catalog sql)

(* ------------------------------------------------------------------ *)
(* Execution.                                                          *)

(* Grouping via an FKS perfect hash built offline by an AV: the slot of a
   key comes from the FKS structure instead of the dense offset.  Slots
   the input never hit (keys in the AV's build set but absent here) are
   dropped; groups come out in ascending slot order. *)
let fks_grouping fks ~keys ~values =
  let g = max 1 (Fks.length fks) in
  let slot_key = Array.make g 0 in
  let counts = Array.make g 0 in
  let sums = Array.make g 0 in
  Int_col.iter_seg2 keys values ~f:(fun _ kb ko vb vo len ->
      for i = 0 to len - 1 do
        let k = kb.(ko + i) in
        match Fks.slot fks k with
        | Some s ->
          slot_key.(s) <- k;
          counts.(s) <- counts.(s) + 1;
          sums.(s) <- sums.(s) + vb.(vo + i)
        | None ->
          invalid_arg "Engine: key outside the perfect-hash AV's key set"
      done);
  let r = Dqo_exec.Group_result.of_slots ~lo:0 ~counts ~sums:(Some sums) in
  {
    r with
    Dqo_exec.Group_result.keys =
      Array.map (fun s -> slot_key.(s)) r.Dqo_exec.Group_result.keys;
  }

let fks_join fks ~left ~right =
  (* SPH join where the perfect hash comes from an AV: the FKS slot is
     the slot id of {!Join.slot_join}.  Distinct keys get distinct
     slots, so every left row in a slot carries the slot's key and the
     probe checks key equality once per probe row. *)
  let slots = Fks.length fks in
  let slot_key = Array.make (max 1 slots) 0 in
  let lslot = Array.make (Int_col.length left) 0 in
  Int_col.iteri left ~f:(fun i k ->
      match Fks.slot fks k with
      | Some s ->
        lslot.(i) <- s;
        slot_key.(s) <- k
      | None ->
        invalid_arg "Engine: build key outside the perfect-hash AV's key set");
  let rslot = Array.make (Int_col.length right) (-1) in
  Int_col.iteri right ~f:(fun j k ->
      match Fks.slot fks k with
      | Some s when slot_key.(s) = k -> rslot.(j) <- s
      | Some _ | None -> ());
  Join.slot_join ~slots ~left:lslot ~right:rslot

(* The one SPH affordability rule, shared by the join and the grouping:
   a direct slot array over the key span [lo, hi] is affordable when the
   span is at most 4 x (the larger of the input's rows and the rows of
   the base relation owning [col], plus 1024).  Without an FKS AV the
   optimiser only calls a column dense from its base statistics (span
   <= 2 x distinct), so a filter or join thinning the input out never
   makes a plan it chose unaffordable.  Truly sparse domains need the
   FKS perfect hash built offline by an AV. *)
type sph = Slots of { lo : int; hi : int } | Fks_av of Fks.t

let slots_affordable t col ~lo ~hi ~rows =
  let base_rows =
    match Catalog.relation_of_column t.catalog col with
    | Some rel -> (Catalog.find t.catalog rel).Catalog.rows
    | None -> 0
  in
  hi - lo + 1 <= 4 * (max rows base_rows + 1024)

let sparse_error ~op col =
  invalid_arg
    ("Engine: " ^ op ^ " chosen for sparse column " ^ col
   ^ " without a perfect-hash AV")

(* One slot serves an empty input. *)
let key_bounds keys =
  if Int_col.length keys = 0 then (0, 0) else Int_col.min_max keys

(* The bounds of SPH key [col] read off [src]'s output [keys].  A key
   straight off a stored relation takes them from the stored
   measurement, which is exact (stored relations are immutable); any
   other input, and an empty relation, scans [keys]. *)
let sph_bounds t (src : Physical.t) col keys =
  match src with
  | Physical.Table_scan name when Int_col.length keys > 0 -> (
    match Props.column (measurement t name).Catalog.props col with
    | Some c -> (c.Props.lo, c.Props.hi)
    | None -> key_bounds keys)
  | _ -> key_bounds keys

let sph_strategy t ~op ~src col keys =
  let lo, hi = sph_bounds t src col keys in
  if slots_affordable t col ~lo ~hi ~rows:(Int_col.length keys) then
    Slots { lo; hi }
  else
    match Hashtbl.find_opt t.fks_index col with
    | Some fks -> Fks_av fks
    | None -> sparse_error ~op col

(* [pool]/[metrics] thread the parallel runtime through the executor:
   when a pool with more than one domain is present, the hot operators
   run their [Dqo_par] counterparts (per-domain metrics registries merge
   into [metrics] after each barrier). *)
let exec_join t ?pool ?metrics ?keep ~lsrc left_rel right_rel lc rc
    (impl : Physical.join_impl) =
  let lk = Relation.int_col left_rel lc in
  let rk = Relation.int_col right_rel rc in
  let pairs =
    match impl.Physical.j_alg with
    | Join.HJ -> (
      match pool with
      | Some pool when Dqo_par.Pool.size pool > 1 ->
        Dqo_par.Par_join.partitioned_hash_join pool ?metrics
          ~hash:impl.Physical.j_hash ~table:impl.Physical.j_table ~left:lk
          ~right:rk ()
      | Some _ | None ->
        Join.hash_join ~hash:impl.Physical.j_hash
          ~table:impl.Physical.j_table ~left:lk ~right:rk ())
    | Join.OJ -> Join.merge_join ~left:lk ~right:rk
    | Join.SOJ -> Join.sort_merge_join ~left:lk ~right:rk
    | Join.BSJ -> Join.binary_search_join ~left:lk ~right:rk
    | Join.SPHJ -> (
      match sph_strategy t ~op:"SPHJ" ~src:lsrc lc lk with
      | Slots { lo; hi } -> Join.sph_join ~lo ~hi ~left:lk ~right:rk
      | Fks_av fks -> fks_join fks ~left:lk ~right:rk)
  in
  Join.materialize ?keep left_rel right_rel pairs

(* The five-algorithm fast path computes COUNT and SUM over one payload
   column; it applies when every aggregate is COUNT or SUM over a single
   shared column. *)
let fast_path_payload aggs =
  let only_count_sum =
    List.for_all
      (fun (a : Logical.aggregate) ->
        match a.Logical.spec with
        | Aggregate.Count | Aggregate.Sum -> true
        | Aggregate.Min | Aggregate.Max | Aggregate.Avg -> false)
      aggs
  in
  if not only_count_sum then None
  else begin
    let sum_cols =
      List.sort_uniq String.compare
        (List.filter_map
           (fun (a : Logical.aggregate) ->
             match a.Logical.spec with
             | Aggregate.Sum -> a.Logical.column
             | Aggregate.Count | Aggregate.Min | Aggregate.Max
             | Aggregate.Avg ->
               None)
           aggs)
    in
    match sum_cols with
    | [] -> Some None
    | [ c ] -> Some (Some c)
    | _ :: _ :: _ -> None
  end

(* The fast path's output relation: the key column, then one COUNT or
   SUM column per aggregate.  The columns wrap the result's arrays
   without copying: every result is freshly built, and nothing writes
   into a relation's int column in place. *)
let grouped_relation key aggs (result : Dqo_exec.Group_result.t) =
  let agg_column (a : Logical.aggregate) =
    match a.Logical.spec with
    | Aggregate.Count -> Column.of_ints result.Dqo_exec.Group_result.counts
    | Aggregate.Sum -> Column.of_ints result.Dqo_exec.Group_result.sums
    | Aggregate.Min | Aggregate.Max | Aggregate.Avg -> assert false
  in
  let schema =
    Schema.of_names
      ((key, Schema.T_int)
      :: List.map (fun (a : Logical.aggregate) -> (a.Logical.alias, Schema.T_int)) aggs)
  in
  Relation.create schema
    (Column.of_ints result.Dqo_exec.Group_result.keys
    :: List.map agg_column aggs)

(* The pool the parallel operators run on: one of more than one domain. *)
let parallel = function
  | Some pool when Dqo_par.Pool.size pool > 1 -> Some pool
  | Some _ | None -> None

let group_fast t ?pool ?metrics ~src rel key aggs payload_col
    (impl : Physical.grouping_impl) =
  let keys = Relation.int_col rel key in
  let payload = Option.map (Relation.int_col rel) payload_col in
  let values =
    match payload with
    | Some v -> v
    (* COUNT-only grouping: an O(1) constant column instead of an
       n-element zero array — at paper scale that is the difference
       between nothing and 800 MB. *)
    | None -> Int_col.const (Int_col.length keys) 0
  in
  let parallel = parallel pool in
  let result =
    match impl.Physical.g_alg with
    | Grouping.HG -> (
      match parallel with
      | Some pool ->
        (* Figure 2's partitionBy rewrite, run for real: key-disjoint
           partitions aggregated by private per-domain hash tables. *)
        Dqo_par.Par_group.partition_based pool ?metrics
          ~hash:impl.Physical.g_hash ~table:impl.Physical.g_table ~keys
          ~values ()
      | None ->
        Grouping.hash_based ~hash:impl.Physical.g_hash
          ~table:impl.Physical.g_table ~keys ~values ())
    | Grouping.OG -> Grouping.order_based ~keys ~values ()
    | Grouping.SOG -> Grouping.sort_order_based ~keys ~values
    | Grouping.BSG ->
      Grouping.binary_search_based
        ~universe:(Dqo_util.Int_array.distinct_sorted (Int_col.to_array keys))
        ~keys ~values
    | Grouping.SPHG -> (
      match (sph_strategy t ~op:"SPHG" ~src key keys, parallel) with
      | Slots { lo; hi }, Some pool ->
        Dqo_par.Par_group.sph pool ?metrics ~lo ~hi ~keys ~values ()
      | Slots { lo; hi }, None ->
        fst (Grouping.sph_where ~lo ~hi ~keys ~values:payload ~where:[])
      | Fks_av fks, _ -> fks_grouping fks ~keys ~values)
  in
  grouped_relation key aggs result

(* Generic grouped aggregation: insertion-ordered slots from a linear-
   probing table, one Aggregate.state per (group, aggregate). *)
let group_generic rel key aggs =
  let keys = Relation.int_col rel key in
  let n = Int_col.length keys in
  let tbl = Dqo_hash.Linear_probe.create ~expected:1024 () in
  let group_keys = ref [] in
  let n_aggs = List.length aggs in
  let states = ref (Array.make (16 * n_aggs) (Aggregate.init Aggregate.Count)) in
  let agg_arr = Array.of_list aggs in
  let columns =
    Array.map
      (fun (a : Logical.aggregate) ->
        match a.Logical.column with
        | Some c -> Some (Relation.int_col rel c)
        | None -> None)
      agg_arr
  in
  let groups = ref 0 in
  for i = 0 to n - 1 do
    let ki = Int_col.get keys i in
    let slot = Dqo_hash.Linear_probe.find_or_add tbl ki in
    if slot = !groups then begin
      (* New group: remember its key and initialise its states. *)
      group_keys := ki :: !group_keys;
      incr groups;
      if !groups * n_aggs > Array.length !states then begin
        let bigger =
          Array.make (2 * Array.length !states) (Aggregate.init Aggregate.Count)
        in
        Array.blit !states 0 bigger 0 Array.(length !states);
        states := bigger
      end;
      Array.iteri
        (fun j (a : Logical.aggregate) ->
          !states.((slot * n_aggs) + j) <- Aggregate.init a.Logical.spec)
        agg_arr
    end;
    Array.iteri
      (fun j (a : Logical.aggregate) ->
        let v =
          match columns.(j) with Some c -> Int_col.get c i | None -> 0
        in
        let idx = (slot * n_aggs) + j in
        !states.(idx) <- Aggregate.step a.Logical.spec !states.(idx) v)
      agg_arr
  done;
  let g = !groups in
  let key_arr = Array.make (max 1 g) 0 in
  List.iteri (fun i k -> key_arr.(g - 1 - i) <- k) !group_keys;
  let key_arr = Array.sub key_arr 0 g in
  let agg_col j (a : Logical.aggregate) =
    let values =
      Array.init g (fun slot ->
          Aggregate.finalize a.Logical.spec !states.((slot * n_aggs) + j))
    in
    match a.Logical.spec with
    | Aggregate.Avg ->
      ( Schema.T_float,
        Column.Floats
          (Array.map
             (function
               | Dqo_data.Value.Float f -> f
               | Dqo_data.Value.Int i -> Float.of_int i
               | Dqo_data.Value.Null | Dqo_data.Value.String _ -> nan)
             values) )
    | Aggregate.Count | Aggregate.Sum | Aggregate.Min | Aggregate.Max ->
      ( Schema.T_int,
        Column.of_ints
          (Array.map
             (function
               | Dqo_data.Value.Int i -> i
               | Dqo_data.Value.Null | Dqo_data.Value.Float _
               | Dqo_data.Value.String _ ->
                 0)
             values) )
  in
  let typed = List.mapi agg_col aggs in
  let schema =
    Schema.of_names
      ((key, Schema.T_int)
      :: List.map2
           (fun (a : Logical.aggregate) (ty, _) -> (a.Logical.alias, ty))
           aggs typed)
  in
  Relation.create schema (Column.of_ints key_arr :: List.map snd typed)

(* The schema a plan node's output has when every column is gathered:
   what the clash rule below compares. *)
let rec output_schema t (p : Physical.t) =
  match p with
  | Physical.Table_scan name -> Relation.schema (relation t name)
  | Physical.Filter_op (sub, _, _) | Physical.Sort_enforcer (sub, _) ->
    output_schema t sub
  | Physical.Project_op (sub, cols) -> Schema.project (output_schema t sub) cols
  | Physical.Join_op (l, r, _, _, _) ->
    Schema.concat (output_schema t l) (output_schema t r)
  | Physical.Group_op (_, key, aggs, _) ->
    Schema.of_names
      ((key, Schema.T_int)
      :: List.map
           (fun (a : Logical.aggregate) ->
             ( a.Logical.alias,
               match a.Logical.spec with
               | Aggregate.Avg -> Schema.T_float
               | Aggregate.Count | Aggregate.Sum | Aggregate.Min
               | Aggregate.Max ->
                 Schema.T_int ))
           aggs)

(* Live columns.  [need] names the columns a node's consumer reads;
   [None] asks for all of them (the root).  A node may return more
   columns than asked, never fewer; filters, sorts and joins gather only
   the asked ones, in schema order. *)
let with_col need col =
  Option.map (fun names -> col :: names) need

let restrict need rel =
  match need with
  | None -> rel
  | Some names ->
    Relation.project rel
      (List.filter_map
         (fun (f : Schema.field) ->
           if List.exists (String.equal f.Schema.name) names then
             Some f.Schema.name
           else None)
         (Schema.fields (Relation.schema rel)))

(* A join's input schemas, and whether they share a column name. *)
let join_schemas t l r =
  let ls = output_schema t l and rs = output_schema t r in
  let clash =
    List.exists
      (fun (f : Schema.field) -> Schema.mem ls f.Schema.name)
      (Schema.fields rs)
  in
  (ls, rs, clash)

(* What one join input must deliver: its key plus the asked-for columns
   it holds. *)
let input_need need schema key =
  Option.map (fun names -> key :: List.filter (Schema.mem schema) names) need

(* SPHG over SPHJ with COUNT/SUM over one payload column and inputs that
   share no column name runs as one groupjoin pass — unless an FKS AV
   serves the join or the group key, which keeps the separate operators. *)
type groupjoin = {
  l : Physical.t;
  r : Physical.t;
  lc : string;
  rc : string;
  ls : Schema.t;
  rs : Schema.t;
  payload : string option;
}

let groupjoin t (sub : Physical.t) key aggs (impl : Physical.grouping_impl) =
  match (sub, impl.Physical.g_alg, fast_path_payload aggs) with
  | Physical.Join_op (l, r, lc, rc, j), Grouping.SPHG, Some payload
    when j.Physical.j_alg = Join.SPHJ
         && (not (Hashtbl.mem t.fks_index lc))
         && not (Hashtbl.mem t.fks_index key) ->
    let ls, rs, clash = join_schemas t l r in
    if clash then None else Some { l; r; lc; rc; ls; rs; payload }
  | _ -> None

(* A WHERE on a stored relation is tested inside the pass of the
   operator that reads it — the sequential SPHG, or the groupjoin
   (either input) — instead of running as its own operators: no row-id
   array is built and no column is gathered.  [stored_where t p] matches
   a chain of filters directly over a Table_scan, which may be empty. *)
type stored_where = {
  scan : Physical.t;
  base : Relation.t;
  filters : Physical.t list;  (* outermost first *)
  where : (string * Dqo_exec.Filter.predicate) list;  (* innermost first *)
}

let rec stored_where t (p : Physical.t) =
  match p with
  | Physical.Table_scan name ->
    Some { scan = p; base = relation t name; filters = []; where = [] }
  | Physical.Filter_op (sub, col, pred) ->
    Option.map
      (fun s -> { s with filters = p :: s.filters; where = s.where @ [ (col, pred) ] })
      (stored_where t sub)
  | Physical.Project_op _ | Physical.Sort_enforcer _ | Physical.Join_op _
  | Physical.Group_op _ ->
    None

let where_columns s =
  List.map (fun (col, pred) -> (Relation.int_col s.base col, pred)) s.where

(* The fusion's one affordability rule: the stored span of SPH key
   [col] over the base relation, when a slot array over it is
   affordable with no input rows.  The unfused check sees a sub-span of
   it at no fewer rows, so it would pass too: fusing never turns a
   refusal into a result.  Otherwise the filters run as operators. *)
let stored_bounds t s col =
  let keys = Relation.int_col s.base col in
  let lo, hi = sph_bounds t s.scan col keys in
  if slots_affordable t col ~lo ~hi ~rows:0 then Some (keys, lo, hi) else None

(* The fused chain's nodes, once the kernel has counted their rows
   ([passed], innermost first): the analysed walk reports each filter
   with its exact qualifying rows and the scan with its own.  The
   relation a filter node returns is the scan's; nothing reads it. *)
let report ~child ~span s passed =
  let rec go = function
    | [] -> child None s.scan
    | (p, rows) :: inner -> span p (fun () -> (go inner, rows))
  in
  ignore (go (List.combine s.filters (List.rev (Array.to_list passed))))

(* The sequential SPHG over a WHERE on a stored relation fuses (a bare
   scan needs no fusing); a pool of more than one domain keeps the
   parallel SPHG. *)
let fused_sphg t ?pool (sub : Physical.t) key (impl : Physical.grouping_impl) =
  match sub with
  | Physical.Filter_op _
    when impl.Physical.g_alg = Grouping.SPHG && parallel pool = None ->
    Option.bind (stored_where t sub) (fun s ->
        Option.map (fun b -> (s, b)) (stored_bounds t s key))
  | _ -> None

(* The one operator match.  [child need sub] evaluates a sub-plan, left
   before right: the plain walk recurses directly, the analysed walk
   also times and annotates each node.  [span p f] runs [f], which
   computes node [p]'s output and its row count, as that node: the
   fused groupjoin runs its join node through it, so the analysed tree
   keeps the join (with the pair count as its rows) even though no pair
   is materialised.  A join whose inputs share a column name renames the
   right-hand copy from the full input schemas, so it and its subtree
   gather every column. *)
let exec_node t ?pool ?metrics ~child ~span ~need (p : Physical.t) =
  match p with
  | Physical.Table_scan name -> relation t name
  | Physical.Filter_op (sub, col, pred) ->
    let rel = child (with_col need col) sub in
    Relation.take (restrict need rel)
      (Dqo_exec.Filter.select (Relation.int_col rel col) pred)
  | Physical.Project_op (sub, cols) ->
    Relation.project (child (Some cols) sub) cols
  | Physical.Sort_enforcer (sub, col) ->
    let rel = child (with_col need col) sub in
    Relation.take (restrict need rel)
      (Dqo_exec.Sort_op.permutation (Relation.int_col rel col))
  | Physical.Join_op (l, r, lc, rc, impl) ->
    let ls, rs, clash = join_schemas t l r in
    let need = if clash then None else need in
    let lr = child (input_need need ls lc) l in
    let rr = child (input_need need rs rc) r in
    exec_join t ?pool ?metrics ?keep:need ~lsrc:l lr rr lc rc impl
  | Physical.Group_op (sub, key, aggs, impl) -> (
    let reads =
      key
      :: List.filter_map (fun (a : Logical.aggregate) -> a.Logical.column) aggs
    in
    match groupjoin t sub key aggs impl with
    | Some g ->
      span sub (fun () ->
          (* Both inputs fuse, or neither: the analysed children stay in
             plan order. *)
          let fused =
            match (stored_where t g.l, stored_where t g.r) with
            | Some l, Some r ->
              Option.map (fun (_, lo, hi) -> (l, r, lo, hi)) (stored_bounds t l g.lc)
            | _ -> None
          in
          let matched =
            Join.Matched
              (fun ~lo ~hi ~rows ->
                if not (slots_affordable t key ~lo ~hi ~rows) then
                  sparse_error ~op:"SPHG" key)
          in
          let lr, rr, where, (lo, hi), groups, report_inputs =
            match fused with
            | Some (l, r, lo, hi) ->
              (* The group key's stored span, when affordable, holds
                 every group key and passes the check [matched] would
                 make over the matched ones. *)
              let gs = if Schema.mem g.ls key then l else r in
              ( l.base,
                r.base,
                (where_columns l, where_columns r),
                (lo, hi),
                (match stored_bounds t gs key with
                | Some (_, glo, ghi) -> Join.Span (glo, ghi)
                | None -> matched),
                fun (lp, rp) ->
                  report ~child ~span l lp;
                  report ~child ~span r rp )
            | None ->
              let need = Some reads in
              let lr = child (input_need need g.ls g.lc) g.l in
              let rr = child (input_need need g.rs g.rc) g.r in
              ( lr,
                rr,
                ([], []),
                sph_bounds t g.l g.lc (Relation.int_col lr g.lc),
                matched,
                ignore )
          in
          let side c = if Schema.mem g.ls c then Join.Left else Join.Right in
          let col c =
            Relation.int_col
              (match side c with Join.Left -> lr | Join.Right -> rr)
              c
          in
          let left = col g.lc in
          if not (slots_affordable t g.lc ~lo ~hi ~rows:(Int_col.length left))
          then sparse_error ~op:"SPHJ" g.lc;
          let gj =
            Join.sph_group_join ~lo ~hi ~left ~right:(col g.rc) ~where
              ~group:(side key) ~gkeys:(col key)
              ~sum:(Option.map (fun c -> (side c, col c)) g.payload)
              ~groups
          in
          report_inputs gj.Join.passed;
          (grouped_relation key aggs gj.Join.groups, gj.Join.pairs))
    | None -> (
      match fast_path_payload aggs with
      | None -> group_generic (child (Some reads) sub) key aggs
      | Some payload -> (
        match fused_sphg t ?pool sub key impl with
        | Some (s, (keys, lo, hi)) ->
          let result, passed =
            Grouping.sph_where ~lo ~hi ~keys
              ~values:(Option.map (Relation.int_col s.base) payload)
              ~where:(where_columns s)
          in
          report ~child ~span s passed;
          grouped_relation key aggs result
        | None ->
          group_fast t ?pool ?metrics ~src:sub (child (Some reads) sub) key aggs
            payload impl)))

let rec execute_in t ?pool need p =
  exec_node t ?pool ~child:(execute_in t ?pool) ~span:(fun _ f -> fst (f ()))
    ~need p

let execute t ?pool p = on_pool t ?pool (fun pool -> execute_in t ?pool None p)

(* Kept only for the served-query benchmark, which pins this name. *)
let execute_on t ~pool p = execute t ~pool p

(* ------------------------------------------------------------------ *)
(* EXPLAIN ANALYZE: execute a plan node by node, annotating each with
   actual rows and cumulative wall time, and recording per-operator
   metrics into an observability registry.                             *)

(* Close the feedback loop over one analysed execution: diff every
   filter/join/grouping node's estimate against its actual row count,
   fold the corrections into the engine's store, and record the q-error
   distribution.  Returns the execution's worst per-node q-error. *)
let learn_from_analysis t ?metrics plan root =
  let obs = Dqo_opt.Explain.observations t.catalog plan root in
  List.iter
    (fun (key, est, actual) ->
      Dqo_cost.Feedback.observe t.corrections key ~est ~actual)
    obs;
  let max_q = Dqo_opt.Explain.max_q_error root in
  Dqo_cost.Feedback.note_run t.corrections ~max_q;
  (match metrics with
  | Some m ->
    List.iter
      (fun (_, est, actual) ->
        Dqo_obs.Metrics.observe
          (Dqo_obs.Metrics.hist m "feedback.qerror")
          (Dqo_opt.Explain.q_error ~est ~actual))
      obs;
    Dqo_obs.Metrics.incr ~by:(List.length obs) m "feedback.observations"
  | None -> ());
  max_q

(* Fold one analysed execution into the learned value model: one NLMS
   step per plan node, each on the features/estimate the search scored
   with (or would have — [training_samples] re-estimates under the
   {e current} correction store, which is why this must run before
   [learn_from_analysis] shifts that store).  When the executed plan
   was beam-gated, a worst-case q-error past the threshold trips the
   guardrail: the beam doubles, and past [beam_cap] planning reverts to
   exhaustive. *)
let train_value_model t ?metrics ~gated plan root =
  let samples =
    Dqo_opt.Explain.training_samples ?feedback:(active_feedback t) t.catalog
      plan root
  in
  List.iter
    (fun (props, est, actual) ->
      Dqo_learn.Learner.observe t.value_model
        (Dqo_learn.Learner.featurize ~props ~rows:est)
        ~est ~actual)
    samples;
  (match metrics with
  | Some m ->
    Dqo_obs.Metrics.incr ~by:(List.length samples) m "learn.observations"
  | None -> ());
  if gated && Dqo_opt.Explain.max_q_error root >= t.opts.qerror_threshold
  then begin
    t.beam_widenings <- t.beam_widenings + 1;
    match metrics with
    | Some m -> Dqo_obs.Metrics.incr m "learn.guardrail_widenings"
    | None -> ()
  end

let learning t = t.opts.feedback || t.opts.learner

(* Execute [p] on the already-resolved [pool], annotating every node with
   its actual rows, cumulative wall time and estimate, and recording
   per-operator metrics into [metrics] (a private registry when
   omitted); then feed the learning stores. *)
let execute_analyzed t ?pool ?metrics ~gated (p : Physical.t) =
  let m =
    match metrics with Some m -> m | None -> Dqo_obs.Metrics.create ()
  in
  (* Stamp the degree of parallelism into the tree so every rendered
     node label carries its [dop] annotation. *)
  let p =
    match pool with
    | Some pool when Dqo_par.Pool.size pool > 1 ->
      Physical.with_dop (Dqo_par.Pool.size pool) p
    | Some _ | None -> p
  in
  (* [kids] collects the analysed children of the node being run. *)
  let kids = ref [] in
  let span p f =
    let outer = !kids in
    kids := [];
    let t0 = Dqo_obs.Metrics.now_ns () in
    let rel, actual_rows = f () in
    let wall_ns = Dqo_obs.Metrics.now_ns () - t0 in
    let children = List.rev !kids in
    let rows_in =
      List.fold_left
        (fun acc (c : Dqo_opt.Explain.analyzed) ->
          acc + c.Dqo_opt.Explain.actual_rows)
        0 children
    in
    Dqo_obs.Metrics.record m ~op:(Physical.op_label p) ~rows_in
      ~rows_out:actual_rows ~wall_ns;
    kids :=
      {
        Dqo_opt.Explain.op = Physical.op_label p;
        est_rows =
          Dqo_opt.Explain.estimated_rows ?feedback:(active_feedback t)
            t.catalog p;
        actual_rows;
        wall_ns;
        children;
      }
      :: outer;
    rel
  in
  let rec go need p =
    span p (fun () ->
        let rel = exec_node t ?pool ~metrics:m ~child:go ~span ~need p in
        (rel, Relation.cardinality rel))
  in
  let rel = go None p in
  let root = List.hd !kids in
  (* Learning happens after the whole tree is built: per-node estimation
     above must read a store that does not change mid-analysis.  The
     value model trains first, on estimates consistent with the store
     the plan was ranked under. *)
  if t.opts.learner then train_value_model t ~metrics:m ~gated p root;
  if t.opts.feedback then ignore (learn_from_analysis t ~metrics:m p root);
  (rel, root)

(* [run] is the one entry point keeping per-call [?mode]/[?threads]
   compatibility overrides; everything else reads the handle's opts. *)
let run t ?mode ?threads l =
  let mode = resolve_mode t mode in
  (* With feedback or the learner enabled, even plain [run]s execute
     analysed so the stores keep learning from live traffic.  Whether
     this plan is beam-gated is captured before planning: training
     during execution must not change how the guardrail judges it.  One
     pool serves both phases: the search fans DP levels over it, then
     the chosen plan executes on the same domains. *)
  let gated = gated_planning t in
  on_pool t ?threads (fun pool ->
      let p = (cheapest t ?pool mode l).Dqo_opt.Pareto.plan in
      if learning t then fst (execute_analyzed t ?pool ~gated p)
      else execute_in t ?pool None p)

type analysis = {
  entry : Dqo_opt.Pareto.entry;
  root : Dqo_opt.Explain.analyzed;
  result : Relation.t;
  search_stats : Dqo_opt.Search.stats;
  metrics : Dqo_obs.Metrics.t;
  hier : Dqo_opt.Hier.report option;
}

(* One pool for both phases: the DP search records its [opt.dp.*]
   counters and per-level timings, then the plan executes on the same
   domains. *)
let explain_analyze t l =
  let metrics = Dqo_obs.Metrics.create () in
  let gated = gated_planning t in
  on_pool t (fun pool ->
      let entries, search_stats, hier =
        Dqo_obs.Metrics.span metrics "optimize" (fun () ->
            search t ?pool ~metrics t.opts.mode l)
      in
      let entry = Dqo_opt.Pareto.cheapest entries in
      let result, root =
        Dqo_obs.Metrics.span metrics "execute" (fun () ->
            execute_analyzed t ?pool ~metrics ~gated entry.Dqo_opt.Pareto.plan)
      in
      { entry; root; result; search_stats; metrics; hier })

let explain_analyze_sql t sql =
  let a = explain_analyze t (Dqo_sql.Binder.plan_of_sql t.catalog sql) in
  Dqo_opt.Explain.render_analysis ~cost:a.entry.Dqo_opt.Pareto.cost
    ~stats:a.search_stats ?hier:a.hier a.root

let analysis_to_json (a : analysis) =
  Dqo_obs.Json.Obj
    [
      ("estimated_cost", Dqo_obs.Json.Float a.entry.Dqo_opt.Pareto.cost);
      ("plan", Dqo_opt.Explain.analyzed_to_json a.root);
      ("optimizer", Dqo_opt.Search.stats_to_json a.search_stats);
      ( "hier",
        match a.hier with
        | Some r -> Dqo_opt.Hier.report_to_json r
        | None -> Dqo_obs.Json.Null );
      ("metrics", Dqo_obs.Metrics.to_json a.metrics);
    ]

let run_sql t ?mode ?threads sql =
  run t ?mode ?threads (Dqo_sql.Binder.plan_of_sql t.catalog sql)

(* ------------------------------------------------------------------ *)
(* Prepared statements.                                                *)

type prepared = {
  p_sql : string;
  p_mode : mode;
  mutable entry : Dqo_opt.Pareto.entry;
  mutable p_generation : int;
  (* Worst per-node q-error observed while executing this plan since it
     was last (re-)prepared; 1.0 = every estimate was perfect. *)
  mutable p_worst_q : float;
  (* Whether the plan came out of a beam-gated search: only then does a
     q-error regression implicate the learner (drift-replan and
     guardrail both key off this). *)
  mutable p_gated : bool;
}

exception
  Stale_plan of {
    sql : string;
    prepared_generation : int;
    engine_generation : int;
  }

let prepare t ?pool ?mode sql =
  let mode = resolve_mode t mode in
  {
    p_sql = sql;
    p_mode = mode;
    entry = plan t ?pool mode (Dqo_sql.Binder.plan_of_sql t.catalog sql);
    p_generation = t.generation;
    p_worst_q = 1.0;
    p_gated = gated_planning t;
  }

let prepared_entry p = p.entry
let prepared_sql p = p.p_sql
let prepared_mode p = p.p_mode
let prepared_stale t p = p.p_generation <> t.generation
let prepared_worst_q p = p.p_worst_q

(* The plan has drifted: its observed misestimation crossed the
   threshold, so replanning is warranted even though the physical
   design is unchanged — either against the corrected feedback store,
   or because a beam-gated plan regressed (the guardrail has widened
   the beam by now, so the replan searches a larger space). *)
let prepared_drifted t p =
  (t.opts.feedback || (t.opts.learner && p.p_gated))
  && p.p_worst_q >= t.opts.qerror_threshold

let reprepare t ?pool p =
  p.entry <-
    plan t ?pool p.p_mode (Dqo_sql.Binder.plan_of_sql t.catalog p.p_sql);
  p.p_generation <- t.generation;
  p.p_worst_q <- 1.0;
  p.p_gated <- gated_planning t

type replan = Stale | Drifted

(* The one replan rule: a plan from an older catalog generation, else a
   plan past the q-error drift threshold, re-optimises in place on the
   caller's pool; the reason comes back so callers can count it. *)
let revalidate t ?pool p =
  let reason =
    if prepared_stale t p then Some Stale
    else if prepared_drifted t p then Some Drifted
    else None
  in
  if Option.is_some reason then reprepare t ?pool p;
  reason

(* A stale plan may describe data that is no longer stored, so it
   raises rather than runs.  With feedback or the learner on, prepared
   executions run analysed so the stores keep learning and the
   statement tracks its own worst q-error. *)
let execute_prepared t ?pool ?metrics p =
  if prepared_stale t p then
    raise
      (Stale_plan
         {
           sql = p.p_sql;
           prepared_generation = p.p_generation;
           engine_generation = t.generation;
         });
  let plan = p.entry.Dqo_opt.Pareto.plan in
  if learning t then begin
    let rel, root =
      on_pool t ?pool (fun pool ->
          execute_analyzed t ?pool ?metrics ~gated:p.p_gated plan)
    in
    p.p_worst_q <- Float.max p.p_worst_q (Dqo_opt.Explain.max_q_error root);
    rel
  end
  else execute t ?pool plan

(* Kept only for the served-query benchmark, which pins this name. *)
let execute_prepared_on t ~pool ?metrics p =
  execute_prepared t ~pool ?metrics p

let explain_sql t sql =
  let l = Dqo_sql.Binder.plan_of_sql t.catalog sql in
  on_pool t (fun pool ->
      Dqo_opt.Explain.comparison ~model:t.model ?pool t.catalog l)

(* Resident bytes of one materialised structure, measured at install
   time (8-byte words; the FKS size is per-slot bookkeeping over the
   expected-linear two-level tables). *)
let measure_bytes rel (m : Dqo_av.View.materialized) =
  let word = 8 in
  match m with
  | Dqo_av.View.M_sorted sorted ->
    Relation.cardinality sorted
    * List.length (Schema.fields (Relation.schema rel))
    * word
  | Dqo_av.View.M_fks fks -> Fks.length fks * 6 * word
  | Dqo_av.View.M_dense_bounds _ -> 2 * word
  | Dqo_av.View.M_grouping g ->
    Array.length g.Dqo_exec.Group_result.keys * 3 * word

let install_av t (v : Dqo_av.View.t) =
  if
    List.exists
      (fun ((v0 : Dqo_av.View.t), _) ->
        String.equal v0.Dqo_av.View.id v.Dqo_av.View.id)
      t.avs
  then invalid_arg ("Engine.install_av: already installed: " ^ v.Dqo_av.View.id);
  let rel_name, column =
    match v.Dqo_av.View.kind with
    | Dqo_av.View.Sorted_projection { relation; column }
    | Dqo_av.View.Perfect_hash { relation; column } ->
      (relation, column)
    | Dqo_av.View.Grouping_result { relation; key } -> (relation, key)
  in
  let { rel; info } = stored t rel_name in
  let m = Dqo_av.View.materialize ~info rel v in
  (match m with
  | Dqo_av.View.M_sorted sorted ->
    t.relations <-
      List.map
        (fun ((n, _) as entry) ->
          if String.equal n rel_name then measured n sorted else entry)
        t.relations
  | Dqo_av.View.M_fks fks -> Hashtbl.replace t.fks_index column fks
  | Dqo_av.View.M_dense_bounds _ -> ()
  | Dqo_av.View.M_grouping g ->
    let schema =
      Schema.of_names
        [ (column, Schema.T_int); ("cnt", Schema.T_int); ("total", Schema.T_int) ]
    in
    let mat =
      Relation.create schema
        [
          Column.of_ints g.Dqo_exec.Group_result.keys;
          Column.of_ints g.Dqo_exec.Group_result.counts;
          Column.of_ints g.Dqo_exec.Group_result.sums;
        ]
    in
    t.relations <-
      t.relations @ [ measured (Dqo_av.View.grouped_name rel_name column) mat ]);
  t.avs <- t.avs @ [ (v, measure_bytes rel m) ];
  t.generation <- t.generation + 1;
  rebuild_catalog t

let uninstall_av t id =
  match
    List.find_opt
      (fun ((v : Dqo_av.View.t), _) -> String.equal v.Dqo_av.View.id id)
      t.avs
  with
  | None -> invalid_arg ("Engine.uninstall_av: not installed: " ^ id)
  | Some (v, _) ->
    (match v.Dqo_av.View.kind with
    | Dqo_av.View.Sorted_projection _ ->
      (* The stored rows stay physically sorted — there is no "unsort";
         only the accounting entry goes away.  The stored measurement
         was taken on the sorted rows, so the (still true) sortedness
         keeps being visible to the optimiser. *)
      ()
    | Dqo_av.View.Perfect_hash { column; _ } ->
      Hashtbl.remove t.fks_index column
    | Dqo_av.View.Grouping_result { relation = rel_name; key } ->
      let name = Dqo_av.View.grouped_name rel_name key in
      t.relations <-
        List.filter (fun (n, _) -> not (String.equal n name)) t.relations);
    t.avs <-
      List.filter
        (fun ((v0 : Dqo_av.View.t), _) ->
          not (String.equal v0.Dqo_av.View.id id))
        t.avs;
    t.generation <- t.generation + 1;
    rebuild_catalog t
