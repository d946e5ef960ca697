(** DQO plan properties (paper §2.2).

    "Interesting orders" are one tiny special case: DQO also tracks any
    statistical or physical property of the data that a subcomponent may
    rely on — here sortedness, clustering, and key-domain density with
    bounds.  Properties propagate through operators and are pruned by
    dominance, exactly like interesting orders in classic dynamic
    programming, but over a richer vector. *)

type column = {
  dense : bool;  (** Key domain dense enough for SPH. *)
  lo : int;  (** Domain minimum (meaningful when [dense]). *)
  hi : int;  (** Domain maximum. *)
  distinct : int;  (** Known number of distinct values. *)
}

type t = {
  sorted_by : string option;
      (** Physical tuple order, by column name; [None] = unknown order. *)
  clustered_by : string option;
      (** Equal values contiguous; implied by [sorted_by] on the same
          column. *)
  columns : (string * column) list;
      (** Per-column domain knowledge, keyed by column name. *)
  co_ordered : (string * string) list;
      (** [(c1, c2)] — ordering the data by [c1] also clusters it by
          [c2] ([c2] is a monotone function of [c1], as with a key and a
          bucketised attribute).  This is what lets a merge-join output,
          sorted on the join key, still feed order-based grouping on
          another column — the paper's §4.3 setting. *)
}

val none : t
(** No knowledge at all. *)

val of_stats :
  ?name:string ->
  ?co_ordered:(string * string) list ->
  (string * Dqo_data.Col_stats.t) list ->
  t
(** [of_stats cols] builds base-relation properties from measured column
    statistics; [name] selects which sorted column (if several) defines
    tuple order — default: the first sorted column. *)

val column : t -> string -> column option
val sorted_on : t -> string -> bool
val clustered_on : t -> string -> bool
val dense_on : t -> string -> bool
val distinct_of : t -> string -> int option

val with_sort : t -> string -> t
(** Properties after sorting by the given column. *)

val without_order : t -> t
(** Properties after an order-destroying operator (e.g. hash join). *)

val rename_columns : t -> (string * string) list -> t
(** Apply output renaming [(old, new)] to column knowledge and order. *)

val restrict : t -> string list -> t
(** Keep knowledge only for the given output columns. *)

val union_columns : t -> t -> t
(** Merge the column knowledge of two inputs (for join outputs); order
    fields are reset to [None] — the join operator sets them. *)

val shallow : t -> t
(** The SQO projection: keep sortedness/clustering and distinct counts,
    forget density and domain bounds.  A shallow optimiser literally
    cannot see the property that makes perfect hashing applicable. *)

val dominates : t -> t -> bool
(** [dominates a b] — every guarantee [b] offers, [a] offers too.  Used
    by Pareto pruning: a plan with properties [a] and cost [<=] can
    replace one with [b]. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** Property vectors over a fixed column layout: the join DP's form of
    {!t}.

    A layout is a set of column names, one slot each.  A vector over
    it holds its column records as ints by slot, its orders as name
    ids, and its co-ordering pairs as a set of pair ids, so that
    {!union_columns} becomes an index-mapped copy, {!dominates} an
    element-wise compare and a column lookup an array read.  What else
    a {!t} carries, the list order of its columns and pairs, lives with
    the records in the vector's {e class}.  Vectors converted from lists
    that are physically the same, or derived from one another by an
    order ({!with_sort}), share their class physically, so "same class"
    is one physical comparison. *)
module Layout : sig
  type props = t

  type names
  (** Ids of column names and co-ordering pairs, shared by every layout
      of one search.  Register every name before vectors are read
      concurrently; lookups after that are read-only. *)

  val names : unit -> names
  val name_id : names -> string -> int
  (** The name's id, registering it if new. *)

  val name : names -> int -> string

  val name_count : names -> int
  (** How many names have ids: every id is below it. *)

  type cls
  (** Column records by slot, and the list order of the columns and
      co-ordering pairs. *)

  type layout

  type t = {
    cls : cls;
    sorted : int;  (** Name id of the sort order, or [-1]. *)
    clustered : int;  (** Name id of the clustering, or [-1]. *)
  }

  val layout : names -> int list -> layout
  (** The layout of the given name ids. *)

  val union_layout : names -> layout -> layout -> layout
  (** The layout of both layouts' names: what a join of the two holds. *)

  val slots_into : layout -> into:layout -> int array
  (** Each slot of [layout]'s slot in [into], which must hold every one
      of its names: the map {!union} takes. *)

  val has : layout -> t -> int -> bool
  (** Whether the vector knows the column with this name id. *)

  val dense_on : layout -> t -> int -> bool

  val distinct_or : layout -> t -> int -> int -> int
  (** [distinct_or l v id default]: the column's distinct count, or
      [default] when [v] lacks it. *)

  val with_sort : t -> int -> t
  (** {!Props.with_sort}: sorted and clustered on the name id. *)

  val co_partners : names -> t -> int -> int list
  (** [co_partners names v c]: the name ids [x] with [(c, x)] among
      [v]'s co-ordering pairs. *)

  val union : layout -> int array -> cls -> int array -> cls -> rows:int -> cls
  (** [union l map1 a map2 b ~rows] is {!union_columns} of [a] (left)
      and [b] over [l], with [a]'s slots mapped by [map1] and [b]'s by
      [map2] ({!slots_into}), and every distinct count capped at
      [rows].  Every union with no columns and no pairs returns one
      class per layout. *)

  val dominates : t -> t -> bool
  (** {!Props.dominates} on two vectors of one layout. *)

  val classes : t array -> int array * int
  (** Each vector's class id, numbered by first appearance, and the
      class count. *)

  val of_props : names -> props array -> layout * t array
  (** Vectors of the given property vectors over one layout, every name
      in their column lists; registers the names and pairs met.  Lists
      that are physically equal share one class. *)

  val exporter : names -> layout -> t -> props
  (** [exporter names l] converts vectors of [l] back, columns and
      pairs in their list order; vectors of one class get one physical
      column list. *)
end
