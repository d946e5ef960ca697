(** Pareto sets of candidate plans.

    Classic dynamic programming keeps, per plan class, the cheapest plan
    for each interesting order.  DQO generalises the "interesting order"
    to the full property vector (paper §2.2), so a plan class keeps every
    candidate not dominated in {e both} cost and properties. *)

type entry = {
  plan : Dqo_plan.Physical.t;
  cost : float;
  props : Dqo_plan.Props.t;
  rows : int;  (** Estimated output cardinality. *)
}

val add : entry list -> entry -> entry list
(** [add set e] inserts [e] unless some member is at most as expensive
    {e and} offers at least [e]'s properties; members that [e] renders
    redundant are dropped. *)

val insert : dominates:('a -> 'a -> bool) -> 'a list -> 'a -> 'a list
(** The step behind {!add} under any dominance relation:
    [insert ~dominates set x] is [set] when a member dominates [x], else
    [x] consed onto the members [x] does not dominate, in their order.
    The hierarchical optimiser uses it to prune by cost and properties
    restricted to the columns visible above a partition. *)

val add_all : entry list -> entry list -> entry list

val cheapest : entry list -> entry
(** @raise Invalid_argument on an empty set. *)

val size : entry list -> int

val pp : Format.formatter -> entry list -> unit
