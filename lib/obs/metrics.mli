(** Runtime observability: named counters, span timers, and
    per-operator metrics (rows in/out, chunks, wall time).

    A registry is a cheap mutable sink threaded through the executor
    and the bench harness; everything it records can be exported as
    JSON via {!to_json}.  Times use the shared monotonic wall clock
    ([Dqo_util.Clock]), the same clock as [Dqo_util.Timer], so they
    stay correct when work runs on several domains at once.  Name
    lookups are hash-table backed; {!to_json} preserves first-insertion
    order. *)

type t
(** A metrics registry.  Single-domain mutable state: under parallel
    execution, give each domain its own registry and fold them together
    with {!merge} after the barrier. *)

val create : unit -> t

val now_ns : unit -> int
(** The registry clock ([Dqo_util.Clock.now_ns]), exposed so callers
    can time code regions consistently with {!span}. *)

(** {2 Counters} *)

val incr : ?by:int -> t -> string -> unit
(** Increment a named counter (created at zero on first use). *)

val counter : t -> string -> int
(** Current value; [0] for never-incremented names. *)

(** {2 Span timers} *)

val add_span_ns : t -> string -> int -> unit
(** Add elapsed nanoseconds to a named span. *)

val span : t -> string -> (unit -> 'a) -> 'a
(** [span t name f] runs [f ()], accumulating its elapsed time under
    [name] — also on exception. *)

val span_ns : t -> string -> int
(** Accumulated nanoseconds; [0] for unknown names. *)

(** {2 Per-operator metrics} *)

type op = {
  op_name : string;
  mutable invocations : int;
  mutable rows_in : int;
  mutable rows_out : int;
  mutable chunks : int;
  mutable wall_ns : int;
}

val op : t -> string -> op
(** Find-or-create the operator entry named [name]; entries keep
    insertion order. *)

val add_chunk : op -> rows:int -> unit
(** One pushed chunk: [chunks + 1], [rows_out + rows]. *)

val add_time : op -> int -> unit
val add_invocation : op -> unit

val record :
  t -> op:string -> rows_in:int -> rows_out:int -> wall_ns:int -> unit
(** Record one complete invocation of the named operator. *)

val find_op : t -> string -> op option
val ops : t -> op list

(** {2 Histograms}

    A histogram records every observation exactly (values are unit-free;
    the serving layer records milliseconds), so quantiles are exact
    nearest-rank statistics rather than bucket approximations.  Like the
    rest of a registry, a histogram is single-domain mutable state:
    synchronise externally or record per-domain and {!merge}. *)

type hist

val hist : t -> string -> hist
(** Find-or-create the histogram named [name]; insertion-ordered like
    counters and operators. *)

val observe : hist -> float -> unit

val hist_name : hist -> string
val hist_count : hist -> int

val hist_values : hist -> float array
(** A copy of the recorded observations, in recording order. *)

val hist_quantile : hist -> float -> float
(** Nearest-rank quantile ([0.5] = median, [1.0] = max); [nan] when the
    histogram is empty.
    @raise Invalid_argument if the rank is outside [[0, 1]]. *)

val hist_mean : hist -> float
(** Arithmetic mean; [nan] when empty. *)

val find_hist : t -> string -> hist option
val all_hists : t -> hist list

(** {2 Merging} *)

val merge : into:t -> t -> unit
(** [merge ~into src] folds every record of [src] into [into]:
    counters, spans, and operator fields accumulate, histogram samples
    concatenate; names unseen by [into] are appended in [src]'s
    insertion order.  This is how per-domain registries combine after a
    parallel region. *)

(** {2 Export} *)

val op_to_json : op -> Json.t

val hist_to_json : hist -> Json.t
(** [{"name", "count", "mean", "p50", "p95", "p99", "max"}]; the
    summary statistics are [null] for an empty histogram. *)

val to_json : t -> Json.t
(** [{"counters": {...}, "spans_ns": {...}, "operators": [...],
    "histograms": [...]}]. *)
