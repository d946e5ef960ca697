(** The query engine facade: catalog, optimisation, execution, and
    algorithmic-view management in one handle.

    {[
      let db = Engine.create () in
      Engine.register db ~name:"R" r;
      Engine.register db ~name:"S" s;
      let result =
        Engine.run_sql db ~mode:Engine.DQO
          "SELECT a, COUNT(STAR) FROM R JOIN S ON id = r_id GROUP BY a"
      in
      ...
    ]}

    (write [*] for [STAR]; the bracket syntax above avoids a nested
    OCaml comment). *)

type t

type mode = SQO | DQO
(** Which optimiser plans the query — the paper's shallow baseline or
    deep query optimisation. *)

type opts = {
  mode : mode;  (** Default optimiser for [run]/[run_sql]/[prepare]. *)
  threads : int;
      (** Default execution parallelism: the hot operators run on a
          [threads]-domain pool when [> 1].  Results are identical to
          [threads = 1] — the parallel operators are deterministic by
          construction. *)
  feedback : bool;
      (** Close the cardinality-feedback loop: planning reads the
          handle's correction store ({!corrections}), and every
          [run] / prepared / analysed execution runs annotated, diffing
          per-node estimates against actuals and folding the result
          back into the store. *)
  qerror_threshold : float;
      (** With [feedback], a prepared statement whose worst observed
          per-node q-error reaches this value is considered {e drifted}
          and auto-replans on the next opt-in execution (serving does
          this transparently).  With [learner], a beam-gated execution
          crossing it also trips the guardrail (the beam doubles — see
          {!effective_beam}).  Must be at least 1.0. *)
  learner : bool;
      (** Gate the join DP with the learned value model ({!learner}):
          planning cuts each join subset's frontier to the
          [beam_width] best-scored entries once the model is warm, and
          every [run] / prepared / analysed execution runs annotated,
          training the model per plan node. *)
  beam_width : int;
      (** Entries the beam gate keeps per join subset (default 4, at
          least 1); the guardrail doubles it per q-error regression. *)
  hier_threshold : int;
      (** Queries joining more than this many relations plan
          hierarchically ({!Dqo_opt.Hier}): partition the join graph,
          solve each partition with the exact DP, and stitch the
          partitions over the quotient graph (default 16, at least 0;
          [0] routes every query hierarchically) — the escape hatch
          that keeps the Θ(3{^n}) exhaustive DP off 20-plus-relation
          (and beyond-64-relation) queries. *)
  partition_max : int;
      (** Largest partition the hierarchical planner's greedy
          partitioner may grow (default 12, at least 1); each partition
          is solved exactly, so this bounds per-partition DP cost. *)
}
(** Execution options carried by the engine handle: set them once via
    {!create} or {!set_opts}.  {!run} / {!run_sql} keep per-call
    [?mode] / [?threads] overrides, and {!prepare} keeps [?mode] (the
    optimiser choice is part of the statement).

    A caller-owned pool — a {e resource}, not an option — is passed as
    [?pool] to {!plan}, {!execute}, {!prepare}, {!reprepare} and
    {!execute_prepared}.  One rule decides where a call runs: a given
    pool wins (a pool of size 1 takes the sequential path); otherwise
    the call runs inline when [opts.threads = 1], else on a per-call
    [opts.threads]-domain pool.  Results are byte-identical either
    way. *)

val default_opts : opts
(** [{ mode = DQO; threads = 1; feedback = false;
      qerror_threshold = 2.0; learner = false; beam_width = 4;
      hier_threshold = 16; partition_max = 12 }]. *)

val create : ?model:Dqo_cost.Model.t -> ?opts:opts -> unit -> t
(** Fresh engine; the cost model defaults to the paper's Table 2 and
    the execution options to {!default_opts}.
    @raise Invalid_argument if [opts.threads < 1],
    [opts.qerror_threshold < 1.0], [opts.beam_width < 1],
    [opts.hier_threshold < 0], or [opts.partition_max < 1]. *)

val opts : t -> opts

val set_opts : t -> opts -> unit
(** Replace the handle's execution options.
    @raise Invalid_argument if [opts.threads < 1],
    [opts.qerror_threshold < 1.0], [opts.beam_width < 1],
    [opts.hier_threshold < 0], or [opts.partition_max < 1]. *)

val corrections : t -> Dqo_cost.Feedback.t
(** The handle's cardinality-correction store.  Always present;
    [opts.feedback] gates whether planning consults it and execution
    feeds it, so toggling the option preserves what was learned. *)

val learner : t -> Dqo_learn.Learner.t
(** The handle's learned value model.  Same lifecycle rule as
    {!corrections}: always present, [opts.learner] gates whether
    planning scores with it and execution trains it. *)

val beam_widenings : t -> int
(** How many times the q-error guardrail has widened the beam (each
    widening doubles it); resets only with a fresh engine. *)

val effective_beam : t -> int option
(** The beam width planning would gate with right now:
    [beam_width * 2{^ widenings}], or [None] when [opts.learner] is off
    or the escalation passed the cap (32) — the permanent fall-back to
    exhaustive search for a workload the model keeps misjudging.
    [Some _] with a cold model still searches exhaustively until the
    model warms up. *)

val register : t -> name:string -> Dqo_data.Relation.t -> unit
(** Add a base relation; its statistics (sortedness, density, distinct
    counts, co-ordering) are measured immediately.
    @raise Invalid_argument if the name is taken. *)

val relation : t -> string -> Dqo_data.Relation.t
(** @raise Not_found for unknown names. *)

val catalog : t -> Dqo_opt.Catalog.t

val plan :
  t -> ?pool:Dqo_par.Pool.t -> mode -> Dqo_plan.Logical.t -> Dqo_opt.Pareto.entry
(** Optimise a logical plan without executing it.  The DP search fans
    its per-cardinality levels over the pool (see {!opts} for which);
    the chosen plan is byte-identical for any pool size.  A [GROUP BY]
    servable from an installed grouping AV is rewritten onto the view
    relation first ({!Dqo_av.View.rewrite_through}).  Queries joining
    more than [opts.hier_threshold] relations plan through
    {!Dqo_opt.Hier} with [opts.partition_max]. *)

val plan_on :
  t -> pool:Dqo_par.Pool.t -> mode -> Dqo_plan.Logical.t -> Dqo_opt.Pareto.entry
(** [plan_on t ~pool] is [plan t ~pool]; kept only for the served-query
    benchmark ([perfbench/]), which pins the name. *)

val plan_sql : t -> mode -> string -> Dqo_opt.Pareto.entry

val execute :
  t -> ?pool:Dqo_par.Pool.t -> Dqo_plan.Physical.t -> Dqo_data.Relation.t
(** Run a physical plan against the stored relations.  With
    [opts.threads = n > 1] the hot operators — hash joins, hash
    grouping, dense SPH grouping, the partition scatter — run on an
    [n]-domain {!Dqo_par.Pool}; results are identical to the
    sequential path (the parallel operators are deterministic by
    construction).  [opts.threads = 1] takes the pure sequential code
    path.  Without [?pool] the pool is created and torn down per call;
    a serving front end holds one long-lived pool and passes it.

    SPH operators address a direct slot array when the key span is at
    most 4 × (the larger of the input's rows and the rows of the base
    relation owning the key column, plus 1024), and the column's FKS
    perfect-hash AV otherwise.
    @raise Not_found / Invalid_argument on plans referencing unknown
    relations or columns, or prescribing SPH on a wider span without
    an AV. *)

val execute_on :
  t -> pool:Dqo_par.Pool.t -> Dqo_plan.Physical.t -> Dqo_data.Relation.t
(** [execute_on t ~pool] is [execute t ~pool]; kept only for the
    served-query benchmark, which pins the name. *)

val run : t -> ?mode:mode -> ?threads:int -> Dqo_plan.Logical.t -> Dqo_data.Relation.t
(** Optimise and execute; [mode]/[threads] default to the handle's
    {!opts}.  With [threads > 1] one pool serves both phases: the DP
    search fans its levels over it, then the chosen plan executes on
    the same domains.
    @raise Invalid_argument if [threads < 1]. *)

val run_sql : t -> ?mode:mode -> ?threads:int -> string -> Dqo_data.Relation.t

val explain_sql : t -> string -> string
(** SQO-vs-DQO comparison report for the query; both searches run over
    a pool when the handle's {!opts} ask for more than one thread. *)

type analysis = {
  entry : Dqo_opt.Pareto.entry;  (** The chosen plan with its cost. *)
  root : Dqo_opt.Explain.analyzed;  (** The executed, annotated tree. *)
  result : Dqo_data.Relation.t;
  search_stats : Dqo_opt.Search.stats;
  metrics : Dqo_obs.Metrics.t;
  hier : Dqo_opt.Hier.report option;
      (** The partition report when the query planned hierarchically
          (past [opts.hier_threshold]); [None] for exhaustive
          searches. *)
}
(** Everything EXPLAIN ANALYZE observed about one query. *)

val explain_analyze : t -> Dqo_plan.Logical.t -> analysis
(** Optimise with [opts.mode] exactly as {!plan} does, then execute
    annotating every plan node with its estimated and actual row count
    and cumulative wall time, and return the full analysis.  With
    [opts.threads = n > 1] one [n]-domain pool serves both phases and
    the plan is stamped with [Physical.with_dop n] (node labels carry
    [[dop=n]]); each domain records into a private registry merged into
    [metrics] after the barrier.  The optimiser's [opt.dp.*] counters
    and per-level wall times land in [metrics] alongside the executor's
    per-operator records.

    With [opts.feedback], per-node estimates fold in the learned
    corrections, and after the run the tree is diffed against them:
    corrections land in {!corrections} and the q-error distribution in
    [metrics] ([feedback.qerror], [feedback.observations]).  With
    [opts.learner] the value model trains on every node.  {!run} and
    {!execute_prepared} execute the same annotated way whenever either
    option is on. *)

val explain_analyze_sql : t -> string -> string
(** {!explain_analyze} on parsed SQL, rendered with
    {!Dqo_opt.Explain.render_analysis}: per-node estimated vs. actual
    rows, q-error, time, and the optimiser statistics. *)

val analysis_to_json : analysis -> Dqo_obs.Json.t
(** The analysis as a JSON document: estimated cost, annotated plan,
    optimiser trace, and the executor's metrics registry. *)

type adaptive_report = {
  static_grouping : string;
      (** Grouping implementation the static deep optimiser chose. *)
  adaptive_grouping : string;
      (** Implementation chosen after measuring the real intermediate. *)
  replanned : bool;  (** The two differ. *)
}

val run_adaptive : t -> Dqo_plan.Logical.t -> Dqo_data.Relation.t * adaptive_report
(** Mid-query re-optimisation (paper §6, "Runtime-Adaptivity and
    Reoptimisation of AVs"): for a [Group_by] query, execute the input
    subplan first, {e measure} the intermediate's actual properties
    (sortedness, clustering, density — including those the static
    optimiser had to discard under the black-box assumption, cf. §2.1),
    and re-optimise the grouping against the measured reality.  For
    other query shapes this degrades to {!run} with
    [replanned = false]. *)

type prepared
(** A pre-optimised query, the "prepared statement" of the paper's §3
    analogy: optimisation happened once at prepare time; execution
    reuses the stored physical plan.  The handle records the engine's
    {!av_generation} at prepare time, so executing against a changed
    physical design is detected instead of silently served. *)

exception
  Stale_plan of {
    sql : string;
    prepared_generation : int;
    engine_generation : int;
  }
(** The prepared plan predates a physical-design change
    ([install_av] / [register]); re-prepare or pass [~reprepare:true]. *)

val av_generation : t -> int
(** Physical-design generation: starts at 0, bumped by every
    {!register}, {!install_av}, and {!uninstall_av}. *)

val prepare : t -> ?pool:Dqo_par.Pool.t -> ?mode:mode -> string -> prepared
(** Parse, bind and optimise once ([mode] defaults to the handle's
    {!opts} — the optimiser choice is part of the statement, so the
    per-call override stays).  Optimisation runs through {!plan}.
    @raise Dqo_sql.Parser.Error / Dqo_sql.Binder.Error on bad SQL. *)

val prepared_entry : prepared -> Dqo_opt.Pareto.entry
(** The stored plan with its estimated cost and properties. *)

val prepared_sql : prepared -> string
val prepared_mode : prepared -> mode

val prepared_generation : prepared -> int
(** The engine generation the stored plan was optimised against. *)

val prepared_stale : t -> prepared -> bool
(** The physical design changed since this plan was (re-)prepared. *)

val prepared_worst_q : prepared -> float
(** Worst per-node q-error observed while executing this plan since it
    was last (re-)prepared; [1.0] before any feedback execution. *)

val prepared_gated : prepared -> bool
(** Whether the stored plan came out of a beam-gated search (learner on,
    model warm, beam under the cap at prepare time). *)

val prepared_drifted : t -> prepared -> bool
(** {!prepared_worst_q} has reached [opts.qerror_threshold] under a
    learning configuration — [opts.feedback], or [opts.learner] when
    the stored plan was beam-gated: the plan was chosen from estimates
    (or a pruned search) now known to be off by at least that factor,
    and replanning is warranted. *)

val reprepare : t -> ?pool:Dqo_par.Pool.t -> prepared -> unit
(** Re-optimise the stored plan against the current catalog (and, with
    feedback on, the current correction store), stamp the handle with
    the current generation, and reset the statement's worst observed
    q-error. *)

val execute_prepared :
  t ->
  ?pool:Dqo_par.Pool.t ->
  ?metrics:Dqo_obs.Metrics.t ->
  ?reprepare:bool ->
  prepared ->
  Dqo_data.Relation.t
(** Run the stored plan; no optimiser work happens on the fresh path.
    If the physical design changed since prepare time, raises
    {!Stale_plan} — or transparently re-optimises first when
    [~reprepare:true].  With [~reprepare:true] a {!prepared_drifted}
    plan also re-optimises (drift never raises: the plan is still
    correct, just suboptimal).  With [opts.feedback] the execution runs
    analysed — corrections land in {!corrections}, q-errors in
    [?metrics], and the statement's {!prepared_worst_q} updates.  A
    replan and the execution run on the same pool (see {!opts}). *)

val execute_prepared_on :
  t ->
  pool:Dqo_par.Pool.t ->
  ?metrics:Dqo_obs.Metrics.t ->
  ?reprepare:bool ->
  prepared ->
  Dqo_data.Relation.t
(** [execute_prepared_on t ~pool] is [execute_prepared t ~pool]; kept
    only for the served-query benchmark, which pins the name. *)

val install_av : t -> Dqo_av.View.t -> unit
(** Materialise an algorithmic view and update the catalog: a sorted
    projection physically reorders the stored relation; a perfect-hash
    AV builds (and stores) a dense-domain or FKS structure that the
    executor uses whenever a plan calls for SPH on that column; a
    grouping result stores the per-group COUNT/SUM relation.  The
    structure's resident bytes are measured and recorded (see
    {!av_bytes}).  Bumps {!av_generation}, invalidating outstanding
    {!prepared} plans.  Once a [Grouping_result] view is installed,
    {!plan} (and everything funnelling through it) rewrites servable
    [GROUP BY] queries onto the view relation — see
    {!Dqo_av.View.rewrite_through}.
    @raise Invalid_argument if a view with the same id is installed. *)

val uninstall_av : t -> string -> unit
(** Evict the installed view with this id ({!Dqo_av.View.t}[.id]): a
    perfect-hash AV drops its FKS structure, a grouping result drops
    the materialised relation, and a sorted projection drops only its
    accounting entry (the stored rows stay physically sorted — the
    rebuilt catalog re-measures them, so the optimiser keeps seeing
    the still-true order).  Bumps {!av_generation}, so outstanding
    {!prepared} plans revalidate and replan away from the view.
    @raise Invalid_argument for an id that is not installed. *)

val installed_avs : t -> Dqo_av.View.t list

val installed_av_sizes : t -> (Dqo_av.View.t * int) list
(** Installed views with the resident bytes measured at install time. *)

val av_bytes : t -> int
(** Total resident bytes of every installed view — what an advisor's
    memory budget is enforced against. *)
