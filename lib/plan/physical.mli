(** Physical plans: operator trees with algorithmic decisions bound.

    A physical plan fixes, for every operator, not only the organelle
    ("hash join") but — when produced by the deep optimiser — also the
    molecule choices of {!Granule} (which hash table, which hash
    function).  Shallow plans simply carry the defaults, which is
    precisely the paper's point about what SQO cannot express. *)

type grouping_impl = {
  g_alg : Dqo_exec.Grouping.algorithm;
  g_table : Dqo_exec.Grouping.table_kind;  (** Used when [g_alg = HG]. *)
  g_hash : Dqo_hash.Hash_fn.t;
  g_dop : int;
      (** Degree of parallelism: domains executing this operator
          ([1] = sequential).  A physical property in the DQO sense —
          deep plans expose it, shallow plans carry the default. *)
}

type join_impl = {
  j_alg : Dqo_exec.Join.algorithm;
  j_table : Dqo_exec.Grouping.table_kind;  (** Used when [j_alg = HJ]. *)
  j_hash : Dqo_hash.Hash_fn.t;
  j_dop : int;  (** Degree of parallelism ([1] = sequential). *)
}

val default_grouping : Dqo_exec.Grouping.algorithm -> grouping_impl
val default_join : Dqo_exec.Join.algorithm -> join_impl

type t =
  | Table_scan of string
  | Filter_op of t * string * Dqo_exec.Filter.predicate
  | Project_op of t * string list
  | Sort_enforcer of t * string
      (** Establishes [sorted_by] on the named column. *)
  | Join_op of t * t * string * string * join_impl
  | Group_op of t * string * Logical.aggregate list * grouping_impl

val with_dop : int -> t -> t
(** [with_dop n p] stamps every join and grouping operator of [p] with
    degree-of-parallelism [n] — how the engine annotates a plan it is
    about to execute over an [n]-domain pool, so EXPLAIN (ANALYZE)
    surfaces the parallelism.
    @raise Invalid_argument if [n < 1]. *)

val table_name : Dqo_exec.Grouping.table_kind -> string
(** E.g. ["linear-probing"]. *)

val grouping_name : grouping_impl -> string
(** E.g. ["HG(chaining, murmur3)"] — molecule choices shown only where
    they matter. *)

val join_name : join_impl -> string

val pp : Format.formatter -> t -> unit

val op_label : t -> string
(** One-line label of a node, ignoring its inputs — e.g.
    ["HJ(chaining, murmur3)(id = r_id)"], with a [" [dop=N]"] suffix on
    parallel operators; what EXPLAIN ANALYZE prints per tree row. *)

val operators : t -> string list
(** Pre-order list of operator names, for plan-shape assertions in
    tests. *)

val uses_sph : t -> bool
(** True iff any operator in the tree is SPH-based — the signature of a
    deep plan exploiting density. *)
