(** Hierarchical join optimisation.

    The deep DP's Θ(3^n) enumeration is exact but explodes: a
    20-relation snowflake is already out of reach, exactly the paper's
    deep-optimisation tension.  Following the classic multi-level
    enumeration line (Kossmann & Stocker's iterative DP, Neumann's
    query simplification), this module {e partitions} the join graph,
    runs the existing {!Search} DP — pooled, learned-beam-gated,
    feedback-corrected, Pareto-frontier-complete — exactly within each
    partition, and stitches the partitions' frontiers with a top-level
    DP over the quotient graph.  Above the cut only cross-partition
    join columns and the outer query's keys can still pay off, so each
    partition's DP keeps orders only on those and on its own live join
    columns, the stitch on the outer keys and its live cross columns,
    and each partition's exported frontier is pruned by dominance on
    the restricted property vectors (Neumann-style interface pruning;
    survivors keep their full properties).  Planning cost becomes
    near-linear in the partition count while plan quality stays exact
    inside every partition and optimal across them given the partition
    boundaries and exported interfaces.

    {b Determinism.}  Partitioning is a deterministic greedy (total
    tie-break), both DP levels inherit {!Search}'s barrier-merge
    contract, and a single-partition run (partition count 1) returns
    plans {e byte-identical} to {!Search.optimize_entries} — for any
    pool size. *)

type partition_info = {
  members : string list;  (** Leaf labels, in DP leaf order. *)
  leaf_count : int;
  internal_predicates : int;
  frontier : int;  (** Pareto entries the partition exports. *)
  best_cost : float;
  best_rows : int;
  considered : int;  (** Candidate plans inside the partition's DP. *)
}

type report = {
  leaves : int;
  partition_max : int;
  partitions : partition_info list;
      (** Empty for queries without a join (nothing was partitioned). *)
  cut_predicates : int;
      (** Join predicates crossing partitions — the quotient edges. *)
  stitch_considered : int;
  stitch_levels : Search.level_stat list;
}

val partition_graph :
  n:int -> edges:(int * int) list -> max_size:int -> int list list
(** Greedy connected partitioning of the [n]-vertex join graph: seed at
    the smallest unassigned vertex, absorb the unassigned neighbour
    with the most edges into the partition (ties to the smallest index)
    until [max_size].  Partitions are returned in creation order, each
    member list ascending; every partition is connected (grown along
    edges; isolated vertices become singletons).  Deterministic.
    @raise Invalid_argument if [max_size < 1]. *)

val optimize_entries :
  ?model:Dqo_cost.Model.t ->
  ?pool:Dqo_par.Pool.t ->
  ?metrics:Dqo_obs.Metrics.t ->
  ?feedback:Dqo_cost.Feedback.t ->
  ?learner:Dqo_learn.Learner.t ->
  ?beam:int ->
  ?partition_max:int ->
  Search.mode ->
  Catalog.t ->
  Dqo_plan.Logical.t ->
  Pareto.entry list * Search.stats * report
(** Hierarchically optimise a query: leaves are planned exactly as the
    exhaustive DP plans them, the join graph is partitioned
    ([?partition_max], default 12), each partition is solved exactly by
    {!Search.optimize_frontiers}, the quotient graph is solved the same
    way, and the outer non-join operators are re-planned on top via a
    virtual relation.  The stats are the merged totals of every
    sub-search, traces concatenated in evaluation order (leaves,
    partitions, stitch, outer) — for a single partition they contain
    the exhaustive DP's levels verbatim.
    @raise Not_found / Invalid_argument as {!Search.optimize_entries}
    (unknown relation, disconnected join graph — including a quotient
    graph made disconnected by a missing cross predicate,
    [partition_max < 1]). *)

val report_to_json : report -> Dqo_obs.Json.t

val render_report : report -> string
(** The partition tree as indented text — what EXPLAIN ANALYZE prints:
    one line per partition (members, internal predicates, frontier
    size, candidates, best cost) and the stitch summary. *)
