(** Partial Algorithmic Views (paper §6).

    "Rather than fully materialising parts of a deep query plan into an
    AV, or not materialising it at all, there is an interesting
    middle-ground": fix some of a granule's decisions offline, leave the
    rest to query time.  A partial AV is therefore a granule tree plus a
    partial binding; the residual choice space is what DQO still
    explores per query.  An adaptive index ([Dqo_index.Cracking])
    is the run-time-heavy extreme of this spectrum. *)

type t = {
  component : Dqo_plan.Granule.component;
  fixed : Dqo_plan.Granule.binding;  (** Decisions bound offline. *)
}

val create : Dqo_plan.Granule.component -> t
(** Nothing fixed: a fully query-time granule. *)

val specialize : t -> path:string -> choice:string -> t
(** Bind one decision offline.
    @raise Invalid_argument if [path] does not name a decision of the
    component or [choice] is not one of its options (consistency with
    already-fixed decisions is {e not} re-checked). *)

val residual :
  ?available:Dqo_plan.Granule.requirement list ->
  t ->
  Dqo_plan.Granule.binding list
(** Complete instantiations consistent with the fixed part — the plan
    space left for query time. *)

val residual_count : ?available:Dqo_plan.Granule.requirement list -> t -> int

val offline_fraction : ?available:Dqo_plan.Granule.requirement list -> t -> float
(** 0.0 = everything decided at query time, 1.0 = a full AV (at most one
    residual instantiation). *)
