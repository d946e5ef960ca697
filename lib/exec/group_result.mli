(** Common result shape of all grouping implementations.

    Following the paper's setup, every grouping algorithm "computes the
    aggregates COUNT and SUM on the fly and stores a mapping from
    grouping key to aggregate data inside an array" — here three parallel
    arrays indexed by group slot.  Slot order is implementation-specific
    (insertion order for HG/OG, key order for SPHG/BSG), so comparisons
    normalise by key first. *)

type t = {
  keys : int array;  (** Group key per slot. *)
  counts : int array;  (** COUNT per slot. *)
  sums : int array;  (** SUM(payload) per slot. *)
}

val groups : t -> int

val of_slots : lo:int -> counts:int array -> sums:int array option -> t
(** The groups of a direct slot array: slot [s] of [counts] (and of
    [sums]) holds key [lo + s].  Slots that counted nothing are dropped,
    so keys come out ascending; without [sums] every sum is zero.  The
    arrays may be reused in the result. *)

val to_sorted_alist : t -> (int * (int * int)) list
(** [(key, (count, sum))] sorted by key — canonical form for tests. *)

val equal : t -> t -> bool
(** Equality up to slot order. *)

val total_count : t -> int
(** Sum of all counts (= input cardinality). *)

val pp : Format.formatter -> t -> unit
