module Relation = Dqo_data.Relation
module Schema = Dqo_data.Schema
module Column = Dqo_data.Column
module Int_col = Dqo_data.Int_col
module Col_stats = Dqo_data.Col_stats
module Physical = Dqo_plan.Physical
module Logical = Dqo_plan.Logical
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

type t = {
  model : Dqo_cost.Model.t;
  mutable opts : opts;
  mutable relations : (string * Relation.t) list;
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
let installed_av_sizes t = t.avs
let av_bytes t = List.fold_left (fun acc (_, b) -> acc + b) 0 t.avs

let rebuild_catalog t =
  (* Grouping-result AVs already exist as stored relations and are
     measured directly; re-applying them would duplicate the catalog
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
      (Catalog.create
         (List.map (fun (n, r) -> Catalog.of_relation n r) t.relations))
      catalog_level_avs

let register t ~name rel =
  if List.mem_assoc name t.relations then
    invalid_arg ("Engine.register: relation already registered: " ^ name);
  t.relations <- t.relations @ [ (name, rel) ];
  t.generation <- t.generation + 1;
  rebuild_catalog t

let relation t name =
  match List.assoc_opt name t.relations with
  | Some r -> r
  | None -> raise Not_found

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
   key comes from the FKS structure instead of the dense offset. *)
let fks_grouping fks ~keys ~values =
  let g = Fks.length fks in
  let slot_key = Array.make (max 1 g) 0 in
  let counts = Array.make (max 1 g) 0 in
  let sums = Array.make (max 1 g) 0 in
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
  (* Compact away never-hit slots (keys present in the AV build set but
     absent from this input). *)
  let hit = ref 0 in
  Array.iter (fun c -> if c > 0 then incr hit) counts;
  let out_k = Array.make !hit 0
  and out_c = Array.make !hit 0
  and out_s = Array.make !hit 0 in
  let j = ref 0 in
  for s = 0 to g - 1 do
    if counts.(s) > 0 then begin
      out_k.(!j) <- slot_key.(s);
      out_c.(!j) <- counts.(s);
      out_s.(!j) <- sums.(s);
      incr j
    end
  done;
  { Dqo_exec.Group_result.keys = out_k; counts = out_c; sums = out_s }

let fks_join fks ~left ~right =
  (* SPH join where the perfect hash comes from an AV: bucket heads are
     indexed by FKS slot.  Chain-walking needs random access to the
     build keys, so materialise the build side once (zero-copy when
     flat). *)
  let larr = Int_col.unsafe_array left in
  let g = max 1 (Fks.length fks) in
  let head = Array.make g (-1) in
  let next = Array.make (max 1 (Array.length larr)) (-1) in
  Array.iteri
    (fun i k ->
      match Fks.slot fks k with
      | Some s ->
        next.(i) <- head.(s);
        head.(s) <- i
      | None ->
        invalid_arg "Engine: build key outside the perfect-hash AV's key set")
    larr;
  let lbuf = ref [] and rbuf = ref [] and count = ref 0 in
  Int_col.iteri right ~f:(fun j k ->
      match Fks.slot fks k with
      | None -> ()
      | Some s ->
        let e = ref head.(s) in
        while !e >= 0 do
          if larr.(!e) = k then begin
            lbuf := !e :: !lbuf;
            rbuf := j :: !rbuf;
            incr count
          end;
          e := next.(!e)
        done);
  let l = Array.make !count 0 and r = Array.make !count 0 in
  let pos = ref (!count - 1) in
  List.iter2
    (fun a b ->
      l.(!pos) <- a;
      r.(!pos) <- b;
      decr pos)
    !lbuf !rbuf;
  { Join.left = l; right = r }

(* The one SPH affordability rule, shared by the join and the grouping:
   a direct slot array over the key span [lo, hi] is affordable when the
   span is at most 4 x (the larger of the input's rows and the rows of
   the base relation owning [col], plus 1024).  Without an FKS AV the
   optimiser only calls a column dense from its base statistics (span
   <= 2 x distinct), so a filter or join thinning the input out never
   makes a plan it chose unaffordable.  Truly sparse domains need the
   FKS perfect hash built offline by an AV. *)
type sph = Slots of { lo : int; hi : int } | Fks_av of Fks.t

let sph_strategy t ~op col keys =
  let stats = Col_stats.analyze keys in
  (* An empty input has [hi < lo]; one slot serves it. *)
  let lo = stats.Col_stats.lo in
  let hi = max lo stats.Col_stats.hi in
  let base_rows =
    match Catalog.relation_of_column t.catalog col with
    | Some rel -> (Catalog.find t.catalog rel).Catalog.rows
    | None -> 0
  in
  if hi - lo + 1 <= 4 * (max (Int_col.length keys) base_rows + 1024) then
    Slots { lo; hi }
  else
    match Hashtbl.find_opt t.fks_index col with
    | Some fks -> Fks_av fks
    | None ->
      invalid_arg
        ("Engine: " ^ op ^ " chosen for sparse column " ^ col
       ^ " without a perfect-hash AV")

(* [pool]/[metrics] thread the parallel runtime through the executor:
   when a pool with more than one domain is present, the hot operators
   run their [Dqo_par] counterparts (per-domain metrics registries merge
   into [metrics] after each barrier). *)
let exec_join t ?pool ?metrics left_rel right_rel lc rc
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
      match sph_strategy t ~op:"SPHJ" lc lk with
      | Slots { lo; hi } -> Join.sph_join ~lo ~hi ~left:lk ~right:rk
      | Fks_av fks -> fks_join fks ~left:lk ~right:rk)
  in
  Join.materialize left_rel right_rel pairs

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

let group_fast t ?pool ?metrics rel key aggs payload_col
    (impl : Physical.grouping_impl) =
  let keys = Relation.int_col rel key in
  let values =
    match payload_col with
    | Some c -> Relation.int_col rel c
    (* COUNT-only grouping: an O(1) constant column instead of an
       n-element zero array — at paper scale that is the difference
       between nothing and 800 MB. *)
    | None -> Int_col.const (Int_col.length keys) 0
  in
  let parallel =
    match pool with
    | Some pool when Dqo_par.Pool.size pool > 1 -> Some pool
    | Some _ | None -> None
  in
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
      match (sph_strategy t ~op:"SPHG" key keys, parallel) with
      | Slots { lo; hi }, Some pool ->
        Dqo_par.Par_group.sph pool ?metrics ~lo ~hi ~keys ~values ()
      | Slots { lo; hi }, None -> Grouping.sph_based ~lo ~hi ~keys ~values
      | Fks_av fks, _ -> fks_grouping fks ~keys ~values)
  in
  let agg_column (a : Logical.aggregate) =
    match a.Logical.spec with
    | Aggregate.Count ->
      Column.of_ints (Array.copy result.Dqo_exec.Group_result.counts)
    | Aggregate.Sum ->
      Column.of_ints (Array.copy result.Dqo_exec.Group_result.sums)
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

(* The one operator match.  [child] evaluates a sub-plan, left before
   right: the plain walk recurses directly, the analysed walk also times
   and annotates each node. *)
let exec_node t ?pool ?metrics ~child (p : Physical.t) =
  match p with
  | Physical.Table_scan name -> relation t name
  | Physical.Filter_op (sub, col, pred) ->
    Dqo_exec.Filter.select_relation (child sub) ~column:col pred
  | Physical.Project_op (sub, cols) -> Relation.project (child sub) cols
  | Physical.Sort_enforcer (sub, col) ->
    Dqo_exec.Sort_op.by_column (child sub) col
  | Physical.Join_op (l, r, lc, rc, impl) ->
    let lr = child l in
    let rr = child r in
    exec_join t ?pool ?metrics lr rr lc rc impl
  | Physical.Group_op (sub, key, aggs, impl) -> (
    let rel = child sub in
    match fast_path_payload aggs with
    | Some payload -> group_fast t ?pool ?metrics rel key aggs payload impl
    | None -> group_generic rel key aggs)

let rec execute_in t ?pool p = exec_node t ?pool ~child:(execute_in t ?pool) p

let execute t ?pool p = on_pool t ?pool (fun pool -> execute_in t ?pool p)

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
  let rec go p =
    let children = ref [] in
    let child sub =
      let rel, c = go sub in
      children := c :: !children;
      rel
    in
    let t0 = Dqo_obs.Metrics.now_ns () in
    let rel = exec_node t ?pool ~metrics:m ~child p in
    let wall_ns = Dqo_obs.Metrics.now_ns () - t0 in
    let children = List.rev !children in
    let actual_rows = Relation.cardinality rel in
    let rows_in =
      List.fold_left
        (fun acc (c : Dqo_opt.Explain.analyzed) ->
          acc + c.Dqo_opt.Explain.actual_rows)
        0 children
    in
    Dqo_obs.Metrics.record m ~op:(Physical.op_label p) ~rows_in
      ~rows_out:actual_rows ~wall_ns;
    ( rel,
      {
        Dqo_opt.Explain.op = Physical.op_label p;
        est_rows =
          Dqo_opt.Explain.estimated_rows ?feedback:(active_feedback t)
            t.catalog p;
        actual_rows;
        wall_ns;
        children;
      } )
  in
  let rel, root = go p in
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
      else execute_in t ?pool p)

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

(* ------------------------------------------------------------------ *)
(* Runtime re-optimisation.                                            *)

type adaptive_report = {
  static_grouping : string;
  adaptive_grouping : string;
  replanned : bool;
}

let top_grouping_name plan =
  match plan with
  | Physical.Group_op (_, _, _, impl) -> Grouping.name impl.Physical.g_alg
  | Physical.Table_scan _ | Physical.Filter_op _ | Physical.Project_op _
  | Physical.Sort_enforcer _ | Physical.Join_op _ ->
    "-"

let run_adaptive t l =
  match l with
  | Logical.Group_by (input, key, aggs) ->
    let static = plan t DQO l in
    let static_grouping = top_grouping_name static.Dqo_opt.Pareto.plan in
    (* Execute the input subplan, then measure what actually came out —
       including properties the static optimiser had to discard (e.g.
       the probe-order sortedness of a hash-join output, which the paper
       treats as unknown "to be on the safe side"). *)
    let input_best = plan t DQO input in
    let intermediate = execute t input_best.Dqo_opt.Pareto.plan in
    let sub = create ~model:t.model () in
    register sub ~name:"__adaptive" intermediate;
    let regrouped =
      Logical.group_by (Logical.scan "__adaptive") ~key aggs
    in
    let adaptive_plan = plan sub DQO regrouped in
    let adaptive_grouping =
      top_grouping_name adaptive_plan.Dqo_opt.Pareto.plan
    in
    let result = execute sub adaptive_plan.Dqo_opt.Pareto.plan in
    ( result,
      {
        static_grouping;
        adaptive_grouping;
        replanned = not (String.equal static_grouping adaptive_grouping);
      } )
  | Logical.Scan _ | Logical.Select _ | Logical.Project _ | Logical.Join _ ->
    let result = run t l in
    (result, { static_grouping = "-"; adaptive_grouping = "-"; replanned = false })

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
let prepared_generation p = p.p_generation
let prepared_stale t p = p.p_generation <> t.generation
let prepared_worst_q p = p.p_worst_q
let prepared_gated p = p.p_gated

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

(* Shared lifecycle gate: a prepared plan from an older catalog
   generation either re-optimises in place (opt-in) or raises; a plan
   past the q-error drift threshold re-optimises on the opt-in path
   (never raises — a drifted plan is still correct, just suboptimal).
   A replan triggered while serving runs on the caller's pool. *)
let check_prepared t ?pool ~reprepare:re p =
  if prepared_stale t p then begin
    if re then reprepare t ?pool p
    else
      raise
        (Stale_plan
           {
             sql = p.p_sql;
             prepared_generation = p.p_generation;
             engine_generation = t.generation;
           })
  end
  else if re && prepared_drifted t p then reprepare t ?pool p

(* With feedback or the learner on, prepared executions run analysed so
   the stores keep learning and the statement tracks its own worst
   q-error. *)
let execute_prepared t ?pool ?metrics ?(reprepare = false) p =
  check_prepared t ?pool ~reprepare p;
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
let execute_prepared_on t ~pool ?metrics ?reprepare p =
  execute_prepared t ~pool ?metrics ?reprepare p

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
  let bytes =
    match v.Dqo_av.View.kind with
    | Dqo_av.View.Sorted_projection { relation = rel_name; _ } -> (
      let rel = relation t rel_name in
      let m = Dqo_av.View.materialize rel v in
      match m with
      | Dqo_av.View.M_sorted sorted ->
        t.relations <-
          List.map
            (fun (n, r) ->
              if String.equal n rel_name then (n, sorted) else (n, r))
            t.relations;
        measure_bytes rel m
      | Dqo_av.View.M_fks _ | Dqo_av.View.M_dense_bounds _
      | Dqo_av.View.M_grouping _ ->
        assert false)
    | Dqo_av.View.Perfect_hash { relation = rel_name; column } -> (
      let rel = relation t rel_name in
      let m = Dqo_av.View.materialize rel v in
      match m with
      | Dqo_av.View.M_fks fks ->
        Hashtbl.replace t.fks_index column fks;
        measure_bytes rel m
      | Dqo_av.View.M_dense_bounds _ -> measure_bytes rel m
      | Dqo_av.View.M_sorted _ | Dqo_av.View.M_grouping _ -> assert false)
    | Dqo_av.View.Grouping_result { relation = rel_name; key } -> (
      let rel = relation t rel_name in
      let m = Dqo_av.View.materialize rel v in
      match m with
      | Dqo_av.View.M_grouping g ->
        let name = Dqo_av.View.grouped_name rel_name key in
        let schema =
          Schema.of_names
            [
              (key, Schema.T_int); ("cnt", Schema.T_int); ("total", Schema.T_int);
            ]
        in
        let mat =
          Relation.create schema
            [
              Column.of_ints g.Dqo_exec.Group_result.keys;
              Column.of_ints g.Dqo_exec.Group_result.counts;
              Column.of_ints g.Dqo_exec.Group_result.sums;
            ]
        in
        t.relations <- t.relations @ [ (name, mat) ];
        measure_bytes rel m
      | Dqo_av.View.M_sorted _ | Dqo_av.View.M_fks _
      | Dqo_av.View.M_dense_bounds _ ->
        assert false)
  in
  t.avs <- t.avs @ [ (v, bytes) ];
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
         only the accounting entry goes away.  The rebuilt catalog
         re-measures the relation, so the (still true) sortedness keeps
         being visible to the optimiser. *)
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
