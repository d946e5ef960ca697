(** Selection over integer columns.

    Predicates evaluate per row into selection vectors: one per segment,
    read by the consuming operator in the same pass ({!iter_where}), or
    one over the whole column ({!select}). *)

type predicate =
  | Eq of int
  | Ne of int
  | Lt of int
  | Le of int
  | Gt of int
  | Ge of int
  | Between of int * int  (** Inclusive on both ends. *)

val eval : predicate -> int -> bool

val range : predicate -> int * int * bool
(** [range p] is [(lo, hi, negate)] such that [v] satisfies [p] iff
    [(lo <= v && v <= hi) <> negate] — every predicate as one closed
    range, negated for [Ne].  [Lt min_int], [Gt max_int] and
    [Between (a, b)] with [b < a] select nothing: an empty range. *)

type where = (Dqo_data.Int_col.t * predicate) list
(** A conjunctive WHERE over columns of one relation: a row qualifies
    when its value in each column satisfies the predicate beside it. *)

val iter_where :
  where ->
  Dqo_data.Int_col.t array ->
  f:(int -> int array -> int -> int array array -> int array -> unit) ->
  int array
(** [iter_where where cols ~f] scans [cols] and the columns of [where]
    (all of one length) in lock-step segments of a few thousand rows,
    without materialising anything: [f pos sel n bufs offs] gets the
    qualifying rows of the segment starting at row [pos] as offsets
    [sel.(0..n-1)], ascending, and reads [cols.(j)]'s row [pos + i] as
    [bufs.(j).(offs.(j) + i)] (as in {!Dqo_data.Int_col.iter_segn}).
    Every argument of [f] is borrowed.  Returns, for each predicate [j]
    of [where] in order, how many rows satisfy it and every predicate
    before it: the row counts of a chain of filters applied innermost
    first.
    @raise Invalid_argument on a length mismatch. *)

val select : Dqo_data.Int_col.t -> predicate -> int array
(** [select column p] returns the row ids satisfying [p], ascending. *)

val selectivity : predicate -> lo:int -> hi:int -> float
(** Estimated fraction of a uniform [\[lo, hi\]] domain satisfying the
    predicate — used by the cardinality estimator. *)

val pp : Format.formatter -> predicate -> unit
