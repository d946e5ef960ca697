(** The serving front end: one long-lived pool, many concurrent
    prepared-statement executions.

    [Engine.execute] at [opts.threads = n] spins up and tears down an
    [n]-domain pool per call — fine for a one-shot CLI, wrong for a
    server.  A
    {!t} owns {e one} pool for its whole lifetime and multiplexes every
    request onto it: executor threads pull requests from a bounded
    queue and run them via [Engine.execute_prepared ~pool]; the pool
    itself serialises parallel regions (see [Dqo_par.Pool]), so
    requests interleave between regions and the [lib/par] determinism
    guarantee carries over — any request schedule, any pool size, and
    the sequential path all return byte-identical relations.

    {b Sessions} ({!open_session} / {!close_session}) are lightweight
    request scopes.  {b Prepared statements} live in a server-wide
    cache keyed by [(sql, mode)]; each cached plan carries the engine's
    AV-generation, and a statement whose generation lags the engine
    (after [install_av] / [register]) is transparently re-optimised
    before execution instead of silently serving a stale plan — the
    paper's optimise-once/execute-many analogy with an invalidation
    rule attached.

    {b Admission} is bounded: a request is {e in flight} from
    {!submit} until its result is collected by {!await}, and at most
    [max_inflight] requests may be in flight — the next one is rejected
    with {!Overloaded} rather than queueing without bound (results are
    buffered server-side until awaited, so the bound is what caps
    memory).

    {b Metrics}: every request records into the server's
    [Dqo_obs.Metrics] registry — latency and queue-wait histograms
    ([serve.latency_ms], [serve.queue_wait_ms]) plus counters
    ([serve.requests], [serve.rejected], [serve.rows_out],
    [serve.cache_hits], [serve.cache_misses], [serve.replans],
    [serve.sessions]).  With the engine's feedback option on, the
    cardinality-feedback loop adds [feedback.qerror] (per-observation
    histogram), [feedback.observations], and [feedback.replans] — the
    executor replans a cached statement transparently, before reuse,
    once its worst observed q-error crosses the engine's threshold
    (counted under both [serve.replans] and [feedback.replans]).

    {b Self-tuning}: with [?advisor], the server owns a
    [Dqo_advisor.Advisor] fed by every successful execution (SQL, mode,
    latency).  An {!advisor_tick} — forced, or fired every
    [advisor_interval] seconds by a background thread — {e quiesces}
    the executors (new executions pause, in-flight ones drain), runs
    one advisor round (evict stale views, materialise winners within
    the byte budget), and resumes.  Each physical-design change bumps
    the engine's AV generation, so cached statements transparently
    replan on their next execution ([serve.replans]).  Tick outcomes
    land in [advisor.ticks] / [advisor.installed] / [advisor.evicted].

    Manual engine DDL ([register] / [install_av]) remains
    unsynchronised with in-flight execution; quiesce the server (await
    all tickets) before changing the physical design by hand, then keep
    serving — the statement cache revalidates itself. *)

type t

val create :
  ?max_inflight:int ->
  ?workers:int ->
  ?threads:int ->
  ?advisor:Dqo_advisor.Advisor.config ->
  ?advisor_interval:float ->
  Dqo_engine.Engine.t ->
  t
(** [create engine] starts a server over [engine]: one pool of
    [threads] domains (default: the engine's [opts.threads]) plus
    [workers] executor threads (default 4) draining the request queue.
    [max_inflight] (default 64) bounds admission.  [advisor] enables
    the online AV advisor with that configuration;
    [advisor_interval > 0] (seconds, default 0) additionally starts a
    background thread ticking at that period — with the default 0 the
    advisor only runs when {!advisor_tick} is called (deterministic
    mode for tests, benches, and the wire [advise] command).
    @raise Invalid_argument if [max_inflight < 1], [workers < 1],
    [advisor_interval < 0], or the pool size is out of range. *)

val shutdown : t -> unit
(** Drain queued requests, join the executor threads, and shut the pool
    down.  Idempotent.  Outstanding tickets can still be {!await}ed
    afterwards; new submissions raise. *)

val engine : t -> Dqo_engine.Engine.t
val pool_size : t -> int
val max_inflight : t -> int

val in_flight : t -> int
(** Requests currently admitted and not yet collected. *)

val metrics : t -> Dqo_obs.Metrics.t
(** The server's registry (see the module preamble for the names). *)

val advisor : t -> Dqo_advisor.Advisor.t option
(** The online advisor, when enabled at {!create} time. *)

val advisor_tick : t -> Dqo_advisor.Advisor.tick_report option
(** Force one synchronous advisor round: quiesce the executors, run
    [Advisor.tick] against the engine, resume, and return the report.
    [None] when the advisor is disabled or the server is shutting
    down.  Safe to call concurrently with serving traffic (that is the
    point); concurrent ticks serialise. *)

(** {2 Sessions} *)

type session

exception Session_closed

val open_session : t -> session
val session_id : session -> int

val close_session : session -> unit
(** Further {!prepare}/{!submit}/{!execute} on the session raise
    {!Session_closed}; tickets already in flight stay awaitable.
    Idempotent. *)

(** {2 Prepared statements} *)

type stmt

val prepare :
  session -> ?mode:Dqo_engine.Engine.mode -> string -> stmt
(** Look up or create the server-wide cache entry for [(sql, mode)]
    ([mode] defaults to the engine's [opts.mode]).  A cache hit whose
    plan is stale is re-optimised here rather than at execution time.
    @raise Dqo_sql.Parser.Error / Dqo_sql.Binder.Error on bad SQL. *)

val stmt_id : stmt -> int
val stmt_sql : stmt -> string

val stmt_prepared : stmt -> Dqo_engine.Engine.prepared
(** The cached plan behind the statement, e.g. to inspect the entry the
    serve-pool search chose.  Shared and mutable: a stale statement is
    re-prepared in place. *)

(** {2 Execution} *)

type ticket

exception Overloaded of { limit : int }

val submit : session -> stmt -> ticket
(** Enqueue one execution of [stmt] and return immediately.
    @raise Overloaded when [max_inflight] requests are in flight.
    @raise Session_closed on a closed session. *)

val await : ticket -> Dqo_data.Relation.t
(** Block until the request finishes and collect its result (freeing
    its admission slot).  Re-raises the execution's exception, if any.
    Awaiting the same ticket again returns the cached outcome. *)

val execute : session -> stmt -> Dqo_data.Relation.t
(** [submit] + [await]: one synchronous closed-loop request. *)
