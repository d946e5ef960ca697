(** Cost model — Table 2 of the paper, plus molecule-level refinements.

    Table 2 (costs in abstract per-tuple units):

    {v
    Grouping                      Join
    HG(R)   = 4 |R|               HJ(R,S)   = 4 (|R| + |S|)
    OG(R)   = |R|                 OJ(R,S)   = |R| + |S|
    SOG(R)  = |R| log2 |R| + |R|  SOJ(R,S)  = |R| log2 |R| + |S| log2 |S|
                                              + |R| + |S|
    SPHG(R) = |R|                 SPHJ(R,S) = |R| + |S|
    BSG(R)  = |R| log2 g          BSJ(R,S)  = (|R| + |S|) log2 g
    v}

    The sort enforcer costs [|R| log2 |R|], consistent with SOG/SOJ being
    "sort then the order-based algorithm".

    When [deep_molecules] is set, the hash-based constant 4 is modulated
    by the molecule choices (table layout, hash function): each row of
    {!Dqo_plan.Granule.molecules} carries its multiplier, reflecting the
    measured differences the ablation benches report.  The paper-exact
    model {!table2} keeps them off so the Figure 5 reproduction is
    bit-for-bit the published factors. *)

type t = {
  hash_factor : float;  (** The "4" of HG/HJ. *)
  deep_molecules : bool;
      (** Modulate hash costs by molecule choices (beyond Table 2). *)
}

val table2 : t
(** The paper's model verbatim: [hash_factor = 4.0], molecules off. *)

val with_hash_factor : float -> t
(** A Table 2 variant with a recalibrated hash constant (see
    {!Calibrate}). *)

val deep : t
(** Table 2 + molecule modulation (for the deep-unnesting demos). *)

val log2 : float -> float
(** [log2 x] with [log2 x = 0.] for [x <= 1.] (cost formulas never go
    negative on tiny inputs). *)

val grouping_cost :
  t -> impl:Dqo_plan.Physical.grouping_impl -> rows:int -> groups:int -> float
(** Cost of grouping [rows] input tuples into [groups] groups. *)

val join_costs :
  t ->
  impls:Dqo_plan.Physical.join_impl array ->
  mask:int ->
  left_rows:int ->
  right_rows:int ->
  left_distinct:int ->
  float array ->
  unit
(** [join_costs t ~impls ~mask ~left_rows ~right_rows ~left_distinct
    costs] stores the cost of joining with [impls.(k)] in [costs.(k)]
    for every [k] whose bit is set in [mask], and leaves the other
    slots alone; [left_distinct] is the build side's distinct-key count
    (the "#groups" of BSJ in Table 2).  One call prices every
    implementation a join can use, with each logarithm taken once and
    no float boxed: the join DP's inner loop. *)

val sort_cost : t -> rows:int -> float
val scan_cost : t -> rows:int -> float
(** One unit per tuple. *)

val filter_cost : t -> rows:int -> float

val priced_level : t -> Dqo_plan.Granule.level
(** The deepest level of the component table whose choices the model
    prices apart: [Molecule] when [deep_molecules] is set, [Organelle]
    otherwise. *)

val molecule_multiplier :
  table:Dqo_exec.Grouping.table_kind -> hash:Dqo_hash.Hash_fn.t -> float
(** The multiplier of the molecule row with this table layout and hash
    function.  A pair without a row (any with [Hash_fn.Identity]) is
    priced as the default molecule, [1.0]: the model has measured
    nothing else for it. *)
