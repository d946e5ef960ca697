(** The five grouping implementations of the paper (§4.1).

    Every implementation consumes a key column plus an integer payload
    column of equal length ({!Dqo_data.Int_col.t} — any backend) and
    produces COUNT and SUM(payload) per distinct key (a
    {!Group_result.t}).  Streaming algorithms visit rows chunk by chunk;
    only SOG's sort materialises chunked storage.  Preconditions mirror the paper:

    {ul
    {- HG ({!hash_based}): none.}
    {- SPHG ({!sph_based}): keys lie in the dense domain [\[lo, hi\]].}
    {- OG ({!order_based}): input clustered (partitioned) by key.}
    {- SOG ({!sort_order_based}): none (sorts first).}
    {- BSG ({!binary_search_based}): the distinct keys are known in
       advance (the paper assumes the number of distinct values known).}}

    Each algorithm is a distinct point in the deep-query-optimisation
    design space; the optimiser's component table ([Granule]) records
    which of these requirements each one asks for. *)

type algorithm = HG | SPHG | OG | SOG | BSG

type table_kind = Chaining | Linear_probing | Robin_hood
(** Molecule-level choice of the hash table backing HG.  [Chaining] is
    the closest analogue of the paper's [std::unordered_map]. *)

val all : algorithm list
val name : algorithm -> string
val of_name : string -> algorithm option

val hash_based :
  ?hash:Dqo_hash.Hash_fn.t ->
  ?table:table_kind ->
  ?expected:int ->
  keys:Dqo_data.Int_col.t ->
  values:Dqo_data.Int_col.t ->
  unit ->
  Group_result.t
(** [hash_based ~keys ~values ()] — HG.  [expected] pre-sizes the table
    (the paper assumes the number of distinct values is known).
    @raise Invalid_argument on length mismatch. *)

val hash_based_boxed : keys:Dqo_data.Int_col.t -> values:Dqo_data.Int_col.t -> Group_result.t
(** Textbook HG over a node-based hash table with per-entry allocation
    ([Stdlib.Hashtbl]) — the closest analogue of the paper's
    [std::unordered_map].  Semantically identical to {!hash_based} but
    with the higher per-tuple constant of a pointer-chasing table; used
    by the benches to reproduce the paper's BSG-vs-HG crossover.
    @raise Invalid_argument on length mismatch. *)

val sph_based : lo:int -> hi:int -> keys:Dqo_data.Int_col.t -> values:Dqo_data.Int_col.t
  -> Group_result.t
(** [sph_based ~lo ~hi ~keys ~values] — SPHG.  The grouping key is used
    as the offset into the slot array.
    @raise Invalid_argument on length mismatch or a key outside
    [\[lo, hi\]]. *)

val sph_where :
  lo:int ->
  hi:int ->
  keys:Dqo_data.Int_col.t ->
  values:Dqo_data.Int_col.t option ->
  where:Filter.where ->
  Group_result.t * int array
(** [sph_where ~lo ~hi ~keys ~values ~where] — SPHG over the rows that
    satisfy [where], tested in the grouping's own pass
    ({!Filter.iter_where}): exactly {!sph_based} over the rows
    {!Filter.select} keeps, without gathering them.  [values = None]
    counts only (the result's sums are zeros).  Also returns
    {!Filter.iter_where}'s per-predicate row counts.
    @raise Invalid_argument on length mismatch or a qualifying key
    outside [\[lo, hi\]]. *)

val order_based : ?expected:int -> keys:Dqo_data.Int_col.t -> values:Dqo_data.Int_col.t
  -> unit -> Group_result.t
(** [order_based ~keys ~values ()] — OG.  Requires the input clustered by
    key; this is {e not} checked (it is the optimiser's job to only pick
    OG when the property holds).  On unclustered input the result splits
    groups, exactly like the real algorithm would.
    @raise Invalid_argument on length mismatch. *)

val sort_order_based : keys:Dqo_data.Int_col.t -> values:Dqo_data.Int_col.t -> Group_result.t
(** [sort_order_based ~keys ~values] — SOG: sort a copy, then OG.  The
    inputs are not modified.
    @raise Invalid_argument on length mismatch. *)

val binary_search_based :
  universe:int array -> keys:Dqo_data.Int_col.t -> values:Dqo_data.Int_col.t -> Group_result.t
(** [binary_search_based ~universe ~keys ~values] — BSG over the sorted
    array [universe] of distinct keys.
    @raise Invalid_argument on length mismatch, unsorted universe, or a
    key absent from the universe. *)

val run :
  algorithm ->
  dataset:Dqo_data.Datagen.grouping_dataset ->
  values:Dqo_data.Int_col.t ->
  Group_result.t
(** [run alg ~dataset ~values] dispatches to the right implementation,
    supplying SPHG's domain bounds / BSG's universe from the dataset.
    @raise Invalid_argument if [alg] is inapplicable to the dataset
    (e.g. SPHG on a sparse universe, OG on unsorted keys). *)

