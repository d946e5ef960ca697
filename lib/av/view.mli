(** Algorithmic Views (paper §3).

    An AV is a precomputed granule: anything from a fully materialised
    grouping result (the degenerate case — a classic materialised view)
    down to a perfect-hash function built offline for a column's key
    set.  Installing an AV changes what the optimiser can assume about a
    base relation, which is modelled here as a catalog transformation:
    the optimiser itself then discovers any downstream benefit. *)

type kind =
  | Sorted_projection of { relation : string; column : string }
      (** The relation stored physically sorted by [column]; grants the
          sortedness property without a query-time enforcer. *)
  | Perfect_hash of { relation : string; column : string }
      (** A static perfect hash (dense SPH or FKS for sparse key sets)
          built offline over the column's key set; grants the density
          property — even to sparse domains, which is exactly what makes
          this AV interesting. *)
  | Grouping_result of { relation : string; key : string }
      (** Fully materialised grouping (COUNT/SUM per key) — the classic
          materialised view as the deepest possible AV. *)

type t = { id : string; kind : kind; build_cost : float }

val sorted_projection : Dqo_opt.Catalog.t -> relation:string -> column:string -> t
(** Build cost [n log2 n] (one sort).
    @raise Not_found if the relation is unknown. *)

val perfect_hash : Dqo_opt.Catalog.t -> relation:string -> column:string -> t
(** Build cost [2 n] (key extraction + expected-linear FKS
    construction). *)

val grouping_result : Dqo_opt.Catalog.t -> relation:string -> key:string -> t
(** Build cost [4 n] (one hash grouping at materialisation time). *)

val grouped_name : string -> string -> string
(** [grouped_name relation key] is ["<relation>__by_<key>"], the name of
    the relation a [Grouping_result] view materialises. *)

val apply : Dqo_opt.Catalog.t -> t -> Dqo_opt.Catalog.t
(** The catalog as the optimiser sees it once the AV is installed.
    [Grouping_result] adds a new relation named {!grouped_name},
    holding one row per group, sorted and dense on the key where the
    base column was. *)

val apply_all : Dqo_opt.Catalog.t -> t list -> Dqo_opt.Catalog.t

val servable_agg : key:string -> Dqo_plan.Logical.aggregate -> bool
(** Can a [Grouping_result] view over [key] serve this aggregate?
    [COUNT] always can; [SUM] only over the key itself. *)

val rewrite_through : t list -> Dqo_plan.Logical.t -> Dqo_plan.Logical.t
(** Rewrite [GROUP BY key] over a bare base-relation scan into the same
    grouping over the matching [Grouping_result] view's relation when
    one is in [views] and every aggregate is servable: [COUNT] becomes
    [SUM(cnt)] and [SUM(key)] becomes [SUM(total)], keeping the query's
    aliases.  View keys are unique, so the re-grouping collapses to one
    row per group and the results are value-identical to the base
    query.  Non-matching shapes pass through unchanged. *)

val estimated_bytes : Dqo_opt.Catalog.t -> t -> int
(** Resident-memory estimate for the materialised structure, from
    catalog statistics alone (no data access): rows × recorded columns
    × 8 for a sorted projection, ~6 words per distinct key for a sparse
    FKS (2 words when the domain is dense), 3 words per group for a
    grouping result.  Used by the advisor as the weight under its byte
    budget. *)

type materialized =
  | M_sorted of Dqo_data.Relation.t
  | M_fks of Dqo_hash.Perfect.Fks.t
  | M_dense_bounds of { lo : int; hi : int }
  | M_grouping of Dqo_exec.Group_result.t

val materialize :
  info:Dqo_opt.Catalog.table_info -> Dqo_data.Relation.t -> t -> materialized
(** Actually build the AV's backing structure from the base relation
    (used by the engine and the AVSP benches).  [info] is the
    relation's stored measurement: a perfect hash over a column it
    measured dense needs only that column's bounds, read from it.
    @raise Not_found / Invalid_argument on schema mismatches. *)

val describe : t -> string
