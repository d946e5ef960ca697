(** Partial Algorithmic Views (paper §6).

    "Rather than fully materialising parts of a deep query plan into an
    AV, or not materialising it at all, there is an interesting
    middle-ground": fix some of an operator's decisions offline, leave
    the rest to query time.  A partial AV is therefore an operator's
    component table ({!Dqo_plan.Granule}, the one the optimiser
    searches) plus a partial binding; the residual choice space is what
    DQO still explores per query.  An adaptive index
    ([Dqo_index.Cracking]) is the run-time-heavy extreme of this
    spectrum. *)

type 'alg t = {
  cell : 'alg Dqo_plan.Granule.cell;
  fixed : Dqo_plan.Granule.binding;  (** Decisions bound offline. *)
}

val create : 'alg Dqo_plan.Granule.cell -> 'alg t
(** Nothing fixed: a fully query-time operator. *)

val specialize : 'alg t -> path:string -> choice:string -> 'alg t
(** Bind one decision offline, e.g. [~path:"grouping.algorithm"
    ~choice:"HG"] or [~path:"grouping.layout" ~choice:"robin-hood"].
    @raise Invalid_argument if [path] does not name a decision of the
    table or [choice] is not one of its options (consistency with
    already-fixed decisions is {e not} re-checked). *)

val residual :
  ?available:Dqo_plan.Granule.requirement list ->
  'alg t ->
  Dqo_plan.Granule.binding list
(** Candidates down to the molecules consistent with the fixed part —
    the plan space left for query time.  [available] defaults to no
    requirement. *)

val residual_count :
  ?available:Dqo_plan.Granule.requirement list -> 'alg t -> int

val offline_fraction :
  ?available:Dqo_plan.Granule.requirement list -> 'alg t -> float
(** 0.0 = everything decided at query time, 1.0 = a full AV (at most one
    residual instantiation). *)
