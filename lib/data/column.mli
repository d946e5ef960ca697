(** Typed columnar storage.

    A column holds one scalar type.  Integer columns are backed by
    {!Int_col.t}, which abstracts over the physical layout (flat OCaml
    array, chunked Bigarray morsels, mmap-ed file, constant).  Operators
    never see the backing store: they go through {!int_col} and the
    storage-agnostic accessors it provides (length/get/blit/segment
    iteration), or {!to_int_array} for an explicit materialised copy on
    cold paths. *)

type t =
  | Ints of Int_col.t
  | Floats of float array
  | Strings of string array

val of_ints : int array -> t
(** Flat integer column sharing the given array (caller must not mutate
    it afterwards). *)

val of_int_col : Int_col.t -> t

val length : t -> int

val ty : t -> Schema.ty

val get : t -> int -> Value.t
(** [get c i] boxes the [i]-th element. *)

val int_col : t -> Int_col.t
(** The storage-agnostic handle of an integer column (shared, O(1)).
    @raise Invalid_argument on non-integer columns. *)

val to_int_array : t -> int array
(** Materialised copy of an integer column — always fresh, whatever the
    backend.  For cold paths; hot code should iterate via {!int_col}.
    @raise Invalid_argument on non-integer columns. *)

val of_values : Schema.ty -> Value.t list -> t
(** Builds a column of the given type; [Null] is rejected.
    @raise Invalid_argument on a type mismatch or [Null]. *)

val take : t -> int array -> t
(** [take c idx] gathers [c] at positions [idx] (row-id selection).  The
    result is flat regardless of the source backend.  Integer columns
    are gathered by one allocation and a monomorphic loop: flat columns
    read their backing array, other backends go through
    {!Int_col.get}.
    @raise Invalid_argument if an id is outside [\[0, length c)]. *)

val sub : t -> pos:int -> len:int -> t

val equal : t -> t -> bool
(** Content equality; integer columns compare equal across backends. *)
