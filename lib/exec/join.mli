(** The five join implementations (algorithmic counterparts of the
    grouping variants, Table 2 of the paper).

    All joins are inner equi-joins on integer key columns
    ({!Dqo_data.Int_col.t} — any backend) and produce the matching
    row-id pairs; {!materialize} gathers them into an output
    relation.  Duplicate keys are supported on both sides (full
    many-to-many semantics). *)

type algorithm = HJ | SPHJ | OJ | SOJ | BSJ

type result = {
  left : int array;  (** Row ids into the build/left input. *)
  right : int array;  (** Row ids into the probe/right input, parallel. *)
}

val all : algorithm list
val name : algorithm -> string

val cardinality : result -> int

val slot_join : slots:int -> left:int array -> right:int array -> result
(** The exact-size emit behind HJ and SPHJ, over slots chosen by the
    caller: [left.(i)] is left row [i]'s slot in [\[0, slots)] and
    [right.(j)] is right row [j]'s slot, or [-1] for no match.  Pairs
    come out by right row, and within a slot by descending left row
    id.  The left rows are bucketed by slot (compressed sparse rows)
    and the output arrays are allocated once, at their exact size.
    @raise Invalid_argument if a left slot is outside [\[0, slots)]. *)

val hash_join :
  ?hash:Dqo_hash.Hash_fn.t ->
  ?table:Grouping.table_kind ->
  left:Dqo_data.Int_col.t ->
  right:Dqo_data.Int_col.t ->
  unit ->
  result
(** HJ: slots from the table's [find_or_add] on [left] and [find] on
    [right], joined by {!slot_join}. *)

val sph_join :
  lo:int -> hi:int -> left:Dqo_data.Int_col.t -> right:Dqo_data.Int_col.t -> result
(** SPHJ: the build side's key domain [\[lo, hi\]] is dense; a key's
    slot is [key - lo].  Probe keys outside the domain simply do not
    match.  Pairs come out in {!slot_join}'s order.
    @raise Invalid_argument if a {e left} key falls outside [\[lo, hi\]]. *)

type side = Left | Right

type group_join = {
  groups : Group_result.t;
  pairs : int;  (** The SPHJ's pair count. *)
  passed : int array * int array;
      (** Per side (left, right), {!Filter.iter_where}'s per-predicate
          row counts of that side's WHERE. *)
}

type group_slots =
  | Matched of (lo:int -> hi:int -> rows:int -> unit)
      (** Slots over the group keys of the matched rows: a first pass
          over the group side finds their bounds and the pair count,
          which the function sees before the slots are allocated; it
          raises to refuse. *)
  | Span of int * int
      (** Slots over [\[glo, ghi\]], which the caller knows holds
          every group key and is affordable: one pass over the group
          side, without a branch on whether a row matched. *)

val sph_group_join :
  lo:int ->
  hi:int ->
  left:Dqo_data.Int_col.t ->
  right:Dqo_data.Int_col.t ->
  where:Filter.where * Filter.where ->
  group:side ->
  gkeys:Dqo_data.Int_col.t ->
  sum:(side * Dqo_data.Int_col.t) option ->
  groups:group_slots ->
  group_join
(** The groupjoin: COUNT and SUM grouped by [gkeys] over the SPHJ of
    [left] and [right] (domain [\[lo, hi\]] as in {!sph_join}), without
    enumerating pairs, in O(|left| + |right|) plus the group key span.
    [where] holds each side's WHERE (left, right), tested in the first
    pass over that side ({!Filter.iter_where}); [\[\]] keeps every row.
    [gkeys] is a column of the [group] side; [sum], when present, is the
    SUM column and its side (COUNT only otherwise: sums are all zero).
    The side without the group key is counted per slot, and the group
    side adds each row's match count to its group, with [groups] setting
    the group slots.  The groups come out in ascending key order,
    never-hit keys dropped — exactly {!Grouping.sph_based} over
    {!sph_join}'s materialised pairs of the rows each side's WHERE
    keeps, whichever [groups].
    @raise Invalid_argument if a qualifying {e left} key falls outside
    [\[lo, hi\]], or a matched group key outside a [Span]. *)

val merge_join : left:Dqo_data.Int_col.t -> right:Dqo_data.Int_col.t -> result
(** OJ: both inputs must be sorted; emits pairs in key order.
    @raise Invalid_argument if either input is not sorted. *)

val sort_merge_join : left:Dqo_data.Int_col.t -> right:Dqo_data.Int_col.t -> result
(** SOJ: sorts row-id permutations of both sides, then merges.  Inputs
    are not modified; emitted row ids refer to the original positions. *)

val binary_search_join : left:Dqo_data.Int_col.t -> right:Dqo_data.Int_col.t -> result
(** BSJ: builds a sorted run-length index of the [left] keys, then binary
    searches it for every [right] tuple. *)

val run : algorithm -> left:Dqo_data.Int_col.t -> right:Dqo_data.Int_col.t -> result
(** Dispatch; SPHJ derives its domain from the left side's min/max.
    @raise Invalid_argument when the algorithm's precondition fails
    (OJ on unsorted inputs). *)

val materialize :
  ?keep:string list ->
  Dqo_data.Relation.t ->
  Dqo_data.Relation.t ->
  result ->
  Dqo_data.Relation.t
(** [materialize ?keep l r pairs] gathers the joined rows.  The output
    schema is the concatenation of the input schemas (right-side clashes
    renamed with ["'"]), restricted to the names in [keep] in schema
    order; only those columns are gathered.  Without [keep] every column
    is.  When [l] and [r] share a column name the renaming depends on
    the full input schemas, so a caller that prunes columns must pass
    both inputs whole and omit [keep] for such a join.  [keep] must name
    at least one output column. *)

val nested_loop_reference : left:Dqo_data.Int_col.t -> right:Dqo_data.Int_col.t -> result
(** O(n·m) reference implementation for the property-based tests. *)
