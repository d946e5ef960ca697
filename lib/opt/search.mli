(** The plan enumerator shared by SQO and DQO.

    One dynamic-programming search implements both optimisers; the only
    differences, exactly as the paper frames them, are

    {ul
    {- {b property vector}: shallow mode projects base properties
       through {!Dqo_plan.Props.shallow}, erasing density — so SPH-based
       alternatives are never applicable;}
    {- {b unnesting depth}: both walk the one component table,
       {!Dqo_plan.Granule}; shallow mode cuts it at the organelles, deep
       mode enumerates its molecule rows (hash-table layout x hash
       function) when the cost model prices them ({!max_level}).}}

    The search translates a logical tree bottom-up; maximal join
    subtrees are optimised with System-R style DP over relation subsets
    (no cross products), keeping a Pareto set of (cost, properties) per
    subset.

    {b Live orders.}  A subset keeps sort orders only on its {e live}
    columns: those a predicate of its DP joins to a leaf outside it,
    and those an operator above the DP reads (the grouping key, the
    join columns of an enclosing DP, or the [?interesting] columns the
    caller passes).  It adds sort enforcers on live columns only, and
    an OJ/SOJ output ordered on a dead join column records no order —
    unless that column co-orders live columns: exactly one, [x], and
    the output is recorded as clustered on [x]; several, and it keeps
    its order.  Nothing above reads any other order, so the cheapest
    plan and the cheapest entry ordered on each column read above are
    those keeping every order would give (where a subset's estimated
    rows do not depend on its plan; Pareto pruning ignores rows).

    {b Parallel search.}  The DP is level-synchronous: all subsets of
    one cardinality depend only on the memo of smaller subsets, so when
    a {!Dqo_par.Pool} is supplied each level's subproblems fan out over
    the pool and merge back at a barrier, in subset order.  Following
    the [Dqo_par] determinism contract, the chosen plan, costs, Pareto
    frontiers, counters, and trace are byte-identical for any pool
    size.

    {b Candidates built only where they can survive.}  A join's output
    forgets its inputs' orders, and within one pair of entries the
    sorted-output algorithms dominate the unsorted ones at equal cost,
    so most join candidates cannot reach their subset's frontier.  The
    DP proves that from costs and shared property classes before
    allocating them: such candidates count in {!stats.plans_considered}
    and the trace as generated, but not in {!stats.candidates_built},
    and every frontier (entry order included), counter and trace is
    the one building every candidate would give.

    {b Learned beam gate.}  With [?learner], every join subset's Pareto
    frontier is additionally cut to the [?beam] entries whose
    {!Dqo_learn.Learner.score} (estimated cost × predicted
    misestimation) is lowest, before the frontier is memoised — the
    pruning that keeps candidate products flat as join count grows.
    Scoring reads one immutable weight snapshot taken up front and ties
    break on (score, cost, rendered plan), so pooled and sequential
    gated searches stay byte-identical and concurrent training cannot
    perturb a running search.  A cold model (below its observation
    threshold) leaves the search exhaustive. *)

type mode = Shallow | Deep

val max_level : mode -> Dqo_cost.Model.t -> Dqo_plan.Granule.level
(** The cut of the component table the search enumerates: [Organelle]
    for [Shallow], and for [Deep] the deepest level the model prices
    ({!Dqo_cost.Model.priced_level}). *)

type trace_step = {
  step : string;
      (** DP step label: ["scan(R)"], ["select(a = 7)"],
          ["subset{R,S}"], ["group_by(key)"], ... *)
  generated : int;  (** Candidate plans the step generated. *)
  enforcers : int;  (** Sort enforcers added on the step's survivors. *)
  kept : int;  (** Entries surviving in the step's Pareto set. *)
  pruned : int;  (** Candidates dominated away, [generated + enforcers - kept]. *)
}

type level_stat = {
  level : int;  (** Subset cardinality of this DP level. *)
  subproblems : int;  (** Subsets solved at this level. *)
  level_generated : int;  (** Join candidates generated across the level. *)
  level_kept : int;  (** Pareto entries surviving across the level. *)
  level_pruned : int;
      (** Candidates cut across the level — dominance and beam
          together, [generated + enforcers - kept] summed over the
          level's subsets. *)
  level_beam_pruned : int;
      (** Of {!level_pruned}, the entries the learned beam gate cut
          (always [0] without a learner). *)
  level_wall_ms : float;
      (** Wall time of the level, barrier to barrier — the quantity
          parallel search shrinks.  The only field that varies between
          runs; everything else is deterministic. *)
}

type stats = {
  plans_considered : int;  (** Candidate entries generated overall. *)
  candidates_built : int;
      (** Of {!plans_considered}, the entries actually allocated.  The
          join DP counts every candidate a pair generates but builds
          only those that can reach the subset's frontier, so the
          difference is the work proved redundant without doing it. *)
  pareto_kept : int;  (** Entries surviving in the root Pareto set. *)
  enforcers_added : int;  (** Sort enforcers generated overall. *)
  candidates_pruned : int;  (** Entries dominated away overall. *)
  dp_domains : int;  (** Pool size the search ran with (1 = sequential). *)
  beam_width : int option;
      (** The beam width the gate ran with; [None] when no learner was
          supplied or the model was cold (exhaustive search). *)
  learner_scored : int;  (** Entries the value model scored. *)
  learner_pruned : int;  (** Entries the beam gate cut. *)
  learner_cold : bool;
      (** A learner was supplied but had too few observations — the
          search fell back to exhaustive enumeration. *)
  trace : trace_step list;  (** Per-DP-step breakdown, in evaluation order. *)
  levels : level_stat list;
      (** Join-DP levels in ascending cardinality; empty for queries
          without a join. *)
}

val stats_to_json : stats -> Dqo_obs.Json.t
(** Stats (including the full trace and per-level breakdown) as a JSON
    document. *)

val level_to_json : level_stat -> Dqo_obs.Json.t
(** One join-DP level as a JSON object — what {!stats_to_json} lists
    under ["levels"] and [Hier] under its stitch levels. *)

val optimize_entries :
  ?model:Dqo_cost.Model.t ->
  ?pool:Dqo_par.Pool.t ->
  ?metrics:Dqo_obs.Metrics.t ->
  ?feedback:Dqo_cost.Feedback.t ->
  ?learner:Dqo_learn.Learner.t ->
  ?beam:int ->
  ?interesting:string list ->
  ?virtuals:(string * Pareto.entry list) list ->
  mode ->
  Catalog.t ->
  Dqo_plan.Logical.t ->
  Pareto.entry list * stats
(** Root Pareto set for the query, with search statistics.  With
    [?pool], join-DP levels fan out over the pool (results are
    byte-identical to the sequential search); with [?metrics], DP
    subproblem counters and wall time ([opt.dp.*]) are recorded there —
    per-domain registries under a pool, merged after each barrier.
    With [?feedback], every filter, join, and grouping estimate is
    multiplied by the store's learned correction factor (filters stay
    capped at their input, group counts at [\[1, rows\]]); the store is
    only read, so the pooled search stays byte-identical to the
    sequential one.  With [?learner] (and the model warm), each join
    subset's frontier is beam-gated to the [?beam] (default [4])
    best-scored entries; [opt.learn.scored] / [opt.learn.pruned] count
    the gate's work, [opt.learn.fallbacks] counts cold-model searches.

    [?interesting] overrides the sort-enforcer column set of scans
    and filters normally derived from the query
    ({!interesting_columns}), and names the columns read above the
    query's output, for a query planned as a piece of a larger one:
    join DPs keep orders on them.  Without it nothing above the query
    reads its order.  The hierarchical optimiser passes the {e whole}
    query's columns when it plans the join leaves.
    [?virtuals] splices pre-planned Pareto frontiers in under pseudo
    relation names: a [Scan] of a listed name returns that frontier
    verbatim (no pruning, no enforcers) instead of consulting the
    catalog.
    @raise Not_found if the query mentions a relation absent from the
    catalog;
    @raise Invalid_argument if a join has no connecting predicate (cross
    products are not enumerated), or if [beam < 1]. *)

val optimize_frontiers :
  ?model:Dqo_cost.Model.t ->
  ?pool:Dqo_par.Pool.t ->
  ?metrics:Dqo_obs.Metrics.t ->
  ?feedback:Dqo_cost.Feedback.t ->
  ?learner:Dqo_learn.Learner.t ->
  ?beam:int ->
  ?interesting:string list ->
  names:string array ->
  leaves:Pareto.entry list array ->
  predicates:(string * string) list ->
  mode ->
  Catalog.t ->
  Pareto.entry list * stats
(** The join DP alone, over pre-planned leaf frontiers — the engine
    room of hierarchical planning, where each "leaf" is a whole
    partition's Pareto frontier.  [names] label the leaves in traces;
    predicate endpoints are resolved against the frontiers' property
    columns (first providing leaf wins, as in the query DP), and
    unresolvable predicates are dropped.  A single leaf returns its
    frontier verbatim (no DP levels run), which is what makes
    one-partition hierarchical planning byte-identical to the
    exhaustive search.  [?interesting] (default none) names the
    columns operators above the DP read: every subset keeps orders on
    them besides its own crossing join columns.  The hierarchical
    optimiser passes a partition the stitch's columns (cross-partition
    join columns and the outer query's keys), and the stitch the outer
    query's keys.  Pool, feedback, learner, and determinism behave
    exactly as in {!optimize_entries}.
    @raise Invalid_argument if [leaves] is empty, the (quotient) join
    graph is disconnected, or [beam < 1]. *)

val interesting_columns : Dqo_plan.Logical.t -> string list
(** Every column a sort could later pay off on somewhere in the query:
    join columns and grouping keys, sorted and deduplicated.  Scans and
    filters enforce sorts on these; a join subset only on its live
    ones. *)

val flatten_joins :
  Dqo_plan.Logical.t -> Dqo_plan.Logical.t list * (string * string) list
(** Split a maximal join subtree into its leaves (in leaf order) and
    its equi-join predicates (in query order).  A non-join node is a
    single leaf with no predicates. *)

val leaf_label : Dqo_plan.Logical.t -> string
(** A printable name for a join leaf: the base table it scans. *)

val optimize :
  ?model:Dqo_cost.Model.t ->
  ?pool:Dqo_par.Pool.t ->
  ?feedback:Dqo_cost.Feedback.t ->
  ?learner:Dqo_learn.Learner.t ->
  ?beam:int ->
  mode ->
  Catalog.t ->
  Dqo_plan.Logical.t ->
  Pareto.entry
(** Cheapest plan. *)

val improvement_factor :
  ?model:Dqo_cost.Model.t ->
  ?pool:Dqo_par.Pool.t ->
  ?feedback:Dqo_cost.Feedback.t ->
  Catalog.t ->
  Dqo_plan.Logical.t ->
  float
(** [SQO best cost / DQO best cost] — the quantity of the paper's
    Figure 5 ([1.0] means DQO found nothing better). *)

(** {2 Estimation primitives}

    The formulas the search applies per operator, exported so EXPLAIN
    ANALYZE can recompute per-node estimates of a {e chosen} physical
    plan with exactly the arithmetic that ranked it. *)

val default_selectivity :
  Dqo_plan.Props.t -> string -> Dqo_exec.Filter.predicate -> int -> float
(** [default_selectivity props col p rows] — range-based when [col]'s
    bounds are known, magic constants (plus distinct-count arithmetic
    for [=] / [<>]) otherwise. *)

val narrow_column :
  Dqo_plan.Props.t -> string -> Dqo_exec.Filter.predicate ->
  Dqo_plan.Props.t
(** Restrict [col]'s value bounds / distinct count to what survives the
    predicate. *)

val scale_columns : Dqo_plan.Props.t -> int -> Dqo_plan.Props.t
(** Cap every column's distinct count at the operator's output rows. *)

val distinct_or : Dqo_plan.Props.t -> string -> int -> int
(** [distinct_or props col default] — the column's distinct count, or
    [default] when unknown. *)
