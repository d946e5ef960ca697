(** Selection over integer columns.

    Predicates evaluate per row and produce a selection vector of row
    ids, the form every downstream operator consumes. *)

type predicate =
  | Eq of int
  | Ne of int
  | Lt of int
  | Le of int
  | Gt of int
  | Ge of int
  | Between of int * int  (** Inclusive on both ends. *)

val eval : predicate -> int -> bool

val select : Dqo_data.Int_col.t -> predicate -> int array
(** [select column p] returns the row ids satisfying [p], ascending. *)

val selectivity : predicate -> lo:int -> hi:int -> float
(** Estimated fraction of a uniform [\[lo, hi\]] domain satisfying the
    predicate — used by the cardinality estimator. *)

val pp : Format.formatter -> predicate -> unit
