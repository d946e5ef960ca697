(** Algorithms over unboxed [int array]s.

    These are the low-level building blocks ("atoms" in the paper's
    living-cell analogy) used by the physical operators: sorting, searching,
    counting and prefix sums, all written against plain OCaml [int array]s
    to avoid boxing on the hot paths. *)

val is_sorted : int array -> bool
(** [is_sorted a] is [true] iff [a] is non-decreasing. *)

val min_max : int array -> (int * int) option
(** [min_max a] is [Some (min, max)] or [None] when [a] is empty. *)

val sort : int array -> unit
(** [sort a] sorts [a] in place, ascending.  Dispatches between LSD radix
    sort (large arrays) and bottom-up merge sort. *)

val sorted_copy : int array -> int array
(** [sorted_copy a] returns a fresh sorted copy, leaving [a] untouched. *)

val stable_permutation : int array -> int array
(** [stable_permutation keys] is the permutation [p] that sorts [keys]
    stably: [keys.(p.(0)) <= keys.(p.(1)) <= ...], equal keys in index
    order.  A stable order is unique, so [p] is exactly what [Array.sort]
    gives under the [(key, index)] comparison.  Linear time: an LSD
    radix sort over [key - min] in 11-bit digits, each key packed with
    its index into one word (identity without passes for non-decreasing
    input); that comparison sort when [max - min] and an index do not
    fit in 62 bits together, as when [max - min] overflows. *)

val sort_pairs : int array -> int array -> unit
(** [sort_pairs keys payload] co-sorts [payload] alongside [keys] by
    ascending key, stably (payloads of equal keys keep their order),
    through {!stable_permutation}.  Both arrays must have equal length.
    @raise Invalid_argument on length mismatch. *)

val radix_sort : int array -> unit
(** [radix_sort a] sorts non-negative [a] in place with an LSD byte-wise
    radix sort.
    @raise Invalid_argument if [a] contains a negative value. *)

val merge_sort : int array -> unit
(** [merge_sort a] sorts [a] in place (stable bottom-up merge sort). *)

val distinct_sorted : int array -> int array
(** [distinct_sorted a] returns the sorted array of distinct values of [a]. *)

val count_distinct : int array -> int
(** [count_distinct a] is the number of distinct values in [a]: one
    pass over a byte per domain value when [max - min < 8 * length a];
    otherwise an LSD radix sort of the offsets [v - min] in 11-bit
    digits (as many passes as the span needs), counted in runs, or a
    comparison sort when [max - min] overflows. *)

val binary_search : int array -> int -> int option
(** [binary_search a key] returns [Some i] with [a.(i) = key] for sorted
    [a], or [None].  Which index is returned among duplicates is
    unspecified. *)

val lower_bound : int array -> int -> int
(** [lower_bound a key] is the least [i] with [a.(i) >= key] (or
    [Array.length a] if none) for sorted [a]. *)

val upper_bound : int array -> int -> int
(** [upper_bound a key] is the least [i] with [a.(i) > key] (or
    [Array.length a] if none) for sorted [a]. *)

val prefix_sums : int array -> int array
(** [prefix_sums a] returns [p] of length [length a + 1] with
    [p.(i) = a.(0) + ... + a.(i-1)] (exclusive prefix sums). *)

val sum : int array -> int
(** [sum a] is the integer sum of all elements. *)

val swap : int array -> int -> int -> unit
(** [swap a i j] exchanges [a.(i)] and [a.(j)]. *)

val reverse : int array -> unit
(** [reverse a] reverses [a] in place. *)
