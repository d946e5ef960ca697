(** Sort enforcer.

    Sorting is the classic property {e enforcer} of System-R style
    optimisers; in DQO it is one more granule whose cost must be weighed
    against the properties it establishes (paper §4.3: sorting R is what
    the SQO baseline must pay where DQO can go perfect-hash instead). *)

val permutation : Dqo_data.Int_col.t -> int array
(** [permutation keys] returns a stable permutation [p] such that
    [keys.(p.(0)) <= keys.(p.(1)) <= ...], in linear time
    ({!Dqo_util.Int_array.stable_permutation}). *)

val by_column : Dqo_data.Relation.t -> string -> Dqo_data.Relation.t
(** [by_column r name] returns [r] physically reordered so that column
    [name] is non-decreasing (stable).
    @raise Not_found if the column is absent;
    @raise Invalid_argument if it is not an integer column. *)
