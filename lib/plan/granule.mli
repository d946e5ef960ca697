(** The component table the optimiser searches (paper §2, Fig. 3, Table 1).

    Table 1 of the paper maps biology onto query optimisation.  The
    table has rows at two of its levels:

    {v
    organelle  ~ "physical" operator                 HG, OG, ..., HJ, OJ, ...
    molecule   ~ node type, hash function, probing   table layout x mixer
    v}

    An organelle row names an executor algorithm, the data properties it
    requires and the order its output has.  A hashed organelle (HG, HJ)
    is refined by the molecule rows.  {!Dqo_opt.Search} enumerates
    exactly {!candidates}, in that order, for every grouping and join it
    plans; unnesting is the cut [max_level]. *)

type level = Organelle | Molecule

val level_name : level -> string
val biology_analogue : level -> string

type requirement =
  | Requires_dense  (** Key domain dense (enables SPH). *)
  | Requires_clustered  (** Equal keys contiguous (enables OG). *)
  | Requires_sorted  (** Both join inputs sorted (enables OJ). *)
  | Requires_known_universe  (** Distinct keys known ahead (enables BS). *)

val requirement_name : requirement -> string

val all_requirements : requirement list

val bit : requirement -> int
(** A requirement's bit in an available-requirement mask. *)

type order =
  | Unordered  (** Assumed unordered, "to be on the safe side". *)
  | Input_order  (** Sorted on the key iff the input is. *)
  | Key_order  (** Sorted on the grouping key or the left join column. *)

val sorted_output : order -> input_sorted:bool -> bool
(** Whether the output is sorted on the key, given whether the input
    (the left one of a join) is. *)

type 'alg organelle = {
  alg : 'alg;
  name : string;  (** The executor's name, as plans print it. *)
  requires : requirement list;
  yields : order;
  hashed : bool;  (** Refined by the {!molecules}. *)
}

type molecule = {
  table : Dqo_exec.Grouping.table_kind;
  hash : Dqo_hash.Hash_fn.t;
  multiplier : float;
      (** The hash cost relative to chaining x murmur3, which a model
          that prices molecules applies to the hash constant. *)
}

type 'alg cell = { operator : string; organelles : 'alg organelle list }

val grouping : Dqo_exec.Grouping.algorithm cell
(** HG, OG, SOG, SPHG, BSG. *)

val join : Dqo_exec.Join.algorithm cell
(** HJ, OJ, SOJ, SPHJ, BSJ. *)

val molecules : molecule list
(** Three table layouts x three mixers, chaining x murmur3 first. *)

val applicable : 'alg cell -> 'alg -> available:requirement list -> bool
(** Whether [alg]'s row in [cell] asks only for requirements in
    [available]; [false] for an algorithm the cell has no row for. *)

val measured : clustered:bool -> dense:bool -> requirement list
(** What measured keys grant: a known universe (the distinct keys can
    be collected), and clustering and density as measured. *)

val candidates :
  max_level:level -> 'alg cell -> ('alg organelle * molecule) list
(** The operator's candidates in enumeration order: every organelle in
    row order, a hashed one once per molecule the cut reaches (only the
    first at [Organelle]), any other once with the first molecule. *)

type binding = (string * string) list
(** One candidate as decision path -> choice, e.g.
    [[("grouping.algorithm", "HG"); ("grouping.layout", "chaining");
      ("grouping.mixer", "murmur3")]]; molecule decisions appear only
    below the [Organelle] cut. *)

val enumerate :
  available:requirement list -> max_level:level -> 'alg cell -> binding list
(** The candidates whose requirements are all in [available]. *)

val count : available:requirement list -> max_level:level -> 'alg cell -> int

val pp : Format.formatter -> 'alg cell -> unit
(** The table: organelle rows, then the molecule rows. *)
