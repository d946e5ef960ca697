(** Measured physical/statistical properties of an integer column.

    These are the ground-truth counterparts of the optimiser's plan
    properties (Section 2.2 of the paper): sortedness and density are
    {e measured} here by scanning the data, and {e tracked} symbolically
    by [Dqo_plan.Props] during optimisation. *)

type t = {
  sorted : bool;  (** Non-decreasing order. *)
  distinct : int;  (** Exact number of distinct values. *)
  lo : int;  (** Minimum value (0 when the column is empty). *)
  hi : int;  (** Maximum value (-1 when the column is empty). *)
  dense : bool;
      (** [distinct >= (hi - lo + 1) / 2]: the key domain is populated
          densely enough for static perfect hashing (paper §2.1). *)
  clustered : bool;
      (** Equal values are contiguous (sorted implies clustered, not vice
          versa); order-based grouping only needs clustering. *)
}

val analyze : Int_col.t -> t
(** [analyze c] measures every property exactly, streaming chunk-wise
    over any backend (plus {!Dqo_util.Int_array.count_distinct} over a
    materialised copy of an unsorted column).  [clustered] is [true]
    exactly when the column has as many runs of equal adjacent values
    as distinct values. *)

val density_ratio : t -> float
(** [distinct / (hi - lo + 1)]; 1.0 for a minimal dense domain, 0 for an
    empty column. *)

val pp : Format.formatter -> t -> unit
