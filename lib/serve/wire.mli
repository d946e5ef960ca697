(** Line-oriented wire protocol for [dqo serve].

    One command per line on the input channel, one or more response
    lines on the output channel; every response batch is flushed before
    the next command is read, so the loop is drivable from a pipe.

    Commands (case-insensitive keyword, space-separated operands):

    - [open] → [ok session <sid>]
    - [close <sid>] → [ok closed <sid>]
    - [prepare <sid> <sql...>] → [ok stmt <id>] (the id is the
      server-wide cache entry: preparing the same SQL twice — from any
      session — returns the same id)
    - [exec <sid> <stmt>] → synchronous execution:
      [result rows=<n> cols=<k> sum=<digest>], then one tab-separated
      line per row, then [end]
    - [submit <sid> <stmt>] → [ok ticket <tid>] immediately (the
      request runs concurrently), or [error overloaded limit=<n>]
    - [wait <tid>] → [result ticket=<tid> rows=<n> cols=<k>
      sum=<digest>] (digest only — pair with [exec] to fetch rows)
    - [stats] → one [ok stats requests=... rejected=... replans=...
      feedback_replans=... rows_out=... p50_ms=... p95_ms=... p99_ms=...
      last_max_q=... advisor_installed=... advisor_evicted=...
      learner_observations=... learned_beam=...] line
      ([feedback_replans] counts drift-triggered re-optimisations;
      [last_max_q] is the worst per-node q-error of the latest
      execution the feedback loop learned from; the [advisor_*]
      counters track online AV materialisations and evictions, [0]
      when the advisor is off; [learner_observations] counts value-model
      training samples and [learned_beam] is the beam width currently
      gating planning — [0] when the learner is off, cold, or widened
      past the cap)
    - [advise] → force one advisor round and answer
      [ok advisor installed=<n> evicted=<n> bytes=<resident>], or
      [error ...] when the server was started without [--advisor]
    - [quit] → [ok bye] and the loop returns

    Malformed input answers a single [error <reason>] line and keeps
    serving.  [sum] is a deterministic hex digest of the full relation
    {e as a bag}: rows are canonically sorted before hashing, so two
    executions of the same statement digest identically even if a
    physical-design change between them (an advisor materialisation or
    eviction) legitimately reordered the output rows. *)

val digest : Dqo_data.Relation.t -> string
(** Deterministic content digest, rendered as hex: the row count, then
    every value in schema order, each prefixed by a type tag, with rows
    canonically sorted first.  The column count is not hashed. *)

val serve : Server.t -> in_channel -> out_channel -> unit
(** Run the command loop until [quit] or end of input.  The server is
    {e not} shut down on return — the caller owns its lifecycle. *)
