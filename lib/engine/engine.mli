(** The query path: one method dispatch plus an amortized multi-query
    cache.

    Every front end answers through {!query}. [netrel estimate] is a
    one-query run on a fresh engine; [netrel batch] and [netrel serve]
    keep one engine per session. The workload the paper's evaluation
    implies (Table 5 reuses one graph across hundreds of runs) is many
    [(terminals, eps)] queries against the {e same} uncertain graph.
    So the engine caches every artifact that is a pure deterministic
    function of its inputs, and an answer is {b bit-identical} whether
    its artifacts were cached or just built. It also memoizes full
    query results:

    {ul
    {- {b graph context} — keyed by a 62-bit content digest of the
       graph ({!digest}, built on {!Hash64.mix64});}
    {- {b Csr snapshot} — {!Kernel.Csr.t} built once per graph and
       passed to the samplers via their [?csr] parameter;}
    {- {b preprocessing outcome} — the extension pipeline
       ({!Preprocess.Pipeline.run}) once per (graph, terminals), with
       the per-subproblem BFS edge orderings computed alongside and
       replayed via [?prep] / [?orders] of {!Reliability.estimate} and
       {!Adaptive.reliability};}
    {- {b results} — one full answer per distinct query signature
       (terminals, method, budgets, seed, jobs, kernel, and the
       [?extension] switch of {!query}); a repeated
       query replays the stored answer and its stats verbatim;}
    {- {b client artifacts} — an untyped slot table ({!artifact}) so
       higher layers (e.g. [Uapps.Sampleset]) can share per-graph
       state through the engine without a dependency cycle.}}

    {b Cache key contract.} Cached artifacts are sound because every
    producer is deterministic: the pipeline emits subproblems in
    canonical (min-vertex-id) order, the transform preserves
    first-occurrence edge order, and orderings/seed-splitting are pure
    functions of the outcome. The graph digest folds the vertex count
    and the exact [(u, v, p)] bit patterns in edge order; two graphs
    with the same digest are treated as identical (a [2^-62]-grade
    collision risk, accepted as for the HT dedup tables).

    Cache traffic is counted on the engine observer under ["engine."]:
    [graph.hit/miss], [csr.hit/miss], [prep.hit/miss],
    [result.hit/miss], [artifact.hit/miss] and [queries] — the batch
    CLI's summary document exposes them, proving amortization. *)

type t

type method_ = Pro | Pro_ht | Sampling_mc | Sampling_ht

val method_name : method_ -> string
(** ["pro"] / ["pro-ht"] / ["sampling-mc"] / ["sampling-ht"] — the
    names {!Statsdoc} documents carry. *)

val method_of_name : string -> method_ option
(** Inverse of {!method_name}; also accepts the CLI aliases [mc] and
    [ht]. *)

type query = {
  terminals : int list;
  method_ : method_;
  samples : int;     (** fixed budget (Theorem 1 reduces it for Pro) *)
  width : int;       (** maximum S2BDD layer width *)
  ci_width : float option;
      (** adaptive sequential stopping instead of the fixed budget *)
  max_samples : int option;  (** cap for a [ci_width] run *)
  seed : int;
  jobs : int;
  kernel : Mcsampling.kernel_mode;  (** sampling-* methods only *)
}

val default : query
(** [terminals = []] (callers must fill it), method [Pro],
    [samples = 10_000], [width = 10_000], no stopping rule, seed 1,
    jobs 1, {!Mcsampling.Flat}. *)

type answer = {
  method_name : string;
  result : Obs.Json.t;   (** the {!Statsdoc} result section *)
  value : float;
  exact : bool;
  cached : bool;         (** served from the result memo *)
  obs : Obs.t;
      (** the query's observer (preprocess / construction / sampling
          phase accounts); replayed verbatim on a memo hit *)
}

val create : ?obs:Obs.t -> unit -> t
(** [obs] (default {!Obs.disabled}) receives the engine's cache
    counters; per-query observers are spawned from it
    ({!Obs.fresh_like}), so a disabled engine serves answers without
    recording stats. *)

val obs : t -> Obs.t

val digest : Ugraph.t -> int
(** Non-negative 62-bit content digest of a graph
    ([Bingraph.Digest.of_graph] — the same fold the binary container
    stores in its header). *)

val sample_limit : int
(** {!Mcsampling.sample_limit}: the largest [samples] / [max_samples] a
    query may ask for. *)

val validate : query -> unit
(** The query checks every front end shares, run by {!query} before
    the memo is consulted: [jobs >= 1], [width >= 1] for every method,
    [max_samples] only with [ci_width], and both budgets at most
    {!sample_limit}.
    [samples <= 0] is left to the estimators, which raise it after
    preprocessing. @raise Invalid_argument with the reason. *)

val query :
  ?digest:int -> ?trace:Trace.t -> ?extension:bool -> t -> Ugraph.t ->
  query -> answer
(** Serve one query, reusing every cached artifact for the graph. The
    estimate is bit-identical to a direct call of the estimator at the
    same seed/jobs/kernel (the regression suite pins this at jobs
    1/2/8). [?digest] supplies the graph's content digest when the
    caller already holds it (read from a [Bingraph] header), skipping
    the O(m) re-hash per query — counted under
    [engine.digest_from_header]. It is trusted as the cache key, so it
    must be {!digest} of [g]. [?trace] receives the run's spans
    (preprocessing when the prep cache misses, subproblems, chunks) and
    the whole-query GC counter events. [?extension] (default [true])
    set to [false] runs Pro without the extension technique and
    bypasses the prep cache; it is a per-call switch of the CLI, not a
    query key. @raise Invalid_argument on a query {!validate} rejects,
    invalid terminals, or budgets the underlying estimator rejects. *)

val counters : t -> (string * int) list
(** Snapshot of the cache counters (missing ones read 0), in a fixed
    order — [queries] first, then the [hit]/[miss] pairs. *)

val summary_json : t -> Obs.Json.t
(** [{"engine": {counters...}}] — the batch CLI's closing document. *)

val artifact : t -> Ugraph.t -> key:string -> build:(unit -> exn) -> exn
(** Per-graph client artifact slots, exn-as-universal-type: the caller
    wraps its value in a private exception constructor and unwraps the
    returned one. [build] runs once per (graph digest, [key]); later
    calls return the stored value ([artifact.hit]). *)
