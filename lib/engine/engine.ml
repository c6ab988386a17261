module P = Preprocess.Pipeline
module S = Netrel.S2bdd
module R = Netrel.Reliability
module SD = Netrel.Statsdoc
module O = Graphalgo.Ordering
module J = Obs.Json

type method_ = Pro | Pro_ht | Sampling_mc | Sampling_ht

let method_name = function
  | Pro -> "pro"
  | Pro_ht -> "pro-ht"
  | Sampling_mc -> "sampling-mc"
  | Sampling_ht -> "sampling-ht"

let method_of_name s =
  match String.lowercase_ascii s with
  | "pro" -> Some Pro
  | "pro-ht" -> Some Pro_ht
  | "sampling-mc" | "mc" -> Some Sampling_mc
  | "sampling-ht" | "ht" -> Some Sampling_ht
  | _ -> None

type query = {
  terminals : int list;
  method_ : method_;
  samples : int;
  width : int;
  ci_width : float option;
  max_samples : int option;
  seed : int;
  jobs : int;
  kernel : Mcsampling.kernel_mode;
}

let default =
  {
    terminals = [];
    method_ = Pro;
    samples = 10_000;
    width = 10_000;
    ci_width = None;
    max_samples = None;
    seed = 1;
    jobs = 1;
    kernel = Mcsampling.Flat;
  }

type answer = {
  method_name : string;
  result : J.t;
  value : float;
  exact : bool;
  cached : bool;
  obs : Obs.t;
}

(* A preprocessing outcome plus everything derived from it that later
   queries replay: the per-subproblem BFS edge orderings (what [`Auto]
   would recompute) and the observer that recorded the pipeline's phase
   account, merged into every consumer query's observer so cached and
   fresh documents carry the same preprocess section. *)
type prep_entry = {
  outcome : P.outcome;
  orders : int array array;
  pobs : Obs.t;
}

type ctx = {
  graph : Ugraph.t;
  mutable csr : Kernel.Csr.t option;
  preps : (string, prep_entry) Hashtbl.t;
  memo : (string, answer) Hashtbl.t;
  slots : (string, exn) Hashtbl.t;
}

type t = {
  obs : Obs.t;
  eo : Obs.t; (* Obs.sub obs "engine": the cache counters *)
  ctxs : (int, ctx) Hashtbl.t;
  mutable last : (Ugraph.t * int) option; (* the last graph hashed, by identity *)
}

let create ?(obs = Obs.disabled) () =
  { obs; eo = Obs.sub obs "engine"; ctxs = Hashtbl.create 4; last = None }

let obs t = t.obs

(* ---- graph digest ---- *)

(* Chained splitmix64 over the graph content: vertex count, then the
   exact (u, v, p) bit patterns in edge order. Edge order is part of
   the identity on purpose — every downstream artifact (Csr layout,
   orderings, seed consumption) depends on it. The fold itself lives in
   Bingraph.Digest (one implementation for the engine key and the
   binary-container header, which must stay bit-compatible). *)
let digest = Bingraph.Digest.of_graph

(* [?digest] lets a caller that already knows the graph's content
   digest (read from a binary-container header) skip the O(m) re-hash
   on every query. Trusted like any other cache key: a wrong digest
   aliases two graphs, so only header digests that were computed by
   Bingraph over the same edge array belong here. A [Ugraph.t] is
   immutable, so the digest of the last graph hashed is reused while
   the same graph (physically) keeps coming back: a session over a
   text-loaded graph hashes it once, not once per query. *)
let context ?digest:(d0 = None) t g =
  let d =
    match (d0, t.last) with
    | Some d, _ ->
      Obs.incr t.eo "digest_from_header";
      d
    | None, Some (g', d) when g' == g -> d
    | None, _ ->
      let d = digest g in
      t.last <- Some (g, d);
      d
  in
  match Hashtbl.find_opt t.ctxs d with
  | Some ctx ->
    Obs.incr t.eo "graph.hit";
    ctx
  | None ->
    Obs.incr t.eo "graph.miss";
    let ctx =
      { graph = g; csr = None; preps = Hashtbl.create 8;
        memo = Hashtbl.create 16; slots = Hashtbl.create 4 }
    in
    Hashtbl.replace t.ctxs d ctx;
    ctx

let csr t ctx =
  match ctx.csr with
  | Some c ->
    Obs.incr t.eo "csr.hit";
    c
  | None ->
    Obs.incr t.eo "csr.miss";
    let c = Kernel.Csr.of_graph ctx.graph in
    ctx.csr <- Some c;
    c

let terminals_key ts = String.concat "," (List.map string_of_int ts)

let prep t ctx ~trace ~terminals =
  let key = terminals_key terminals in
  match Hashtbl.find_opt ctx.preps key with
  | Some pe ->
    Obs.incr t.eo "prep.hit";
    pe
  | None ->
    Obs.incr t.eo "prep.miss";
    let pobs = Obs.fresh_like t.obs in
    let outcome = P.run ~obs:pobs ~trace ctx.graph ~terminals in
    let orders =
      match outcome with
      | P.Trivial _ -> [||]
      | P.Reduced { subproblems; _ } ->
        subproblems
        |> List.map (fun (sp : P.subproblem) ->
               O.order_edges (O.Bfs_from sp.P.terminals) sp.P.graph)
        |> Array.of_list
    in
    let pe = { outcome; orders; pobs } in
    Hashtbl.replace ctx.preps key pe;
    pe

(* ---- queries ---- *)

let sample_limit = Mcsampling.sample_limit

(* The one query validator, ahead of the memo. [samples <= 0] is left
   to the estimators, which raise it after preprocessing. The width is
   checked for every method and graph: a query whose answer happens not
   to need an S2BDD (a bridge-only Pro query, a sampling method) gets
   the same error as one that does. *)
let validate q =
  if q.jobs < 1 then invalid_arg "Engine.query: jobs < 1";
  if q.width < 1 then
    invalid_arg (Printf.sprintf "width must be >= 1 (got %d)" q.width);
  (match (q.ci_width, q.max_samples) with
  | None, Some _ -> invalid_arg "--max-samples requires --ci-width"
  | _, Some n -> Mcsampling.check_budget "max-samples" n
  | _, None -> ());
  Mcsampling.check_budget "samples" q.samples

let memo_key ~extension q =
  Printf.sprintf "t=%s;m=%s;s=%d;w=%d;cw=%s;ms=%s;seed=%d;jobs=%d;k=%s;x=%b"
    (terminals_key q.terminals) (method_name q.method_) q.samples q.width
    (match q.ci_width with None -> "-" | Some w -> Printf.sprintf "%.17g" w)
    (match q.max_samples with None -> "-" | Some n -> string_of_int n)
    q.seed q.jobs
    (Mcsampling.kernel_mode_name q.kernel)
    extension

(* The one method dispatch: estimate, batch, serve and the bench all
   map a query to its estimator here. The cached Csr / prep / orders
   slot into the estimators' pure-reuse parameters, so an answer is
   bit-identical whether its artifacts were cached or just built. *)
let dispatch t ctx ~trace ~extension qobs q =
  let g = ctx.graph and ts = q.terminals in
  let name = method_name q.method_ in
  let adaptive (r : Adaptive.result) =
    (name, Adaptive.result_doc r, r.Adaptive.value, r.Adaptive.exact)
  in
  match q.method_ with
  | Pro | Pro_ht -> (
    let estimator =
      if q.method_ = Pro_ht then S.Horvitz_thompson else S.Monte_carlo
    in
    let config =
      { S.default_config with S.samples = q.samples; S.width = q.width;
        S.estimator; S.seed = q.seed }
    in
    let prep, orders =
      if not extension then (None, None)
      else begin
        let pe = prep t ctx ~trace ~terminals:ts in
        Obs.merge ~into:qobs pe.pobs;
        (Some pe.outcome, Some pe.orders)
      end
    in
    match q.ci_width with
    | Some w ->
      adaptive
        (Adaptive.reliability ~obs:qobs ~trace ~config ~extension ~jobs:q.jobs
           ?prep ?orders ?max_samples:q.max_samples g ~terminals:ts ~ci_width:w)
    | None ->
      let rep =
        R.estimate ~obs:qobs ~trace ~config ~extension ~jobs:q.jobs ?prep
          ?orders g ~terminals:ts
      in
      (name, SD.result_of_report rep, rep.R.value, rep.R.exact))
  | Sampling_mc | Sampling_ht -> (
    let csr = csr t ctx and mc = q.method_ = Sampling_mc in
    match q.ci_width with
    | Some w ->
      let run = if mc then Adaptive.monte_carlo else Adaptive.horvitz_thompson in
      adaptive
        (run ~obs:qobs ~trace ~seed:q.seed ~jobs:q.jobs ~kernel:q.kernel ~csr
           ?max_samples:q.max_samples g ~terminals:ts ~ci_width:w)
    | None ->
      let run =
        if mc then Mcsampling.monte_carlo else Mcsampling.horvitz_thompson
      in
      let e =
        run ~obs:qobs ~trace ~seed:q.seed ~jobs:q.jobs ~kernel:q.kernel ~csr g
          ~terminals:ts ~samples:q.samples
      in
      (name, SD.result_of_estimate e, e.Mcsampling.value, false))

let query ?digest ?(trace = Trace.disabled) ?(extension = true) t g q =
  validate q;
  let ctx = context ~digest t g in
  Obs.incr t.eo "queries";
  let key = memo_key ~extension q in
  match Hashtbl.find_opt ctx.memo key with
  | Some a ->
    Obs.incr t.eo "result.hit";
    { a with cached = true }
  | None ->
    Obs.incr t.eo "result.miss";
    Ugraph.validate_terminals g q.terminals;
    let qobs = Obs.fresh_like t.obs in
    (* The whole-query GC account, also streamed as trace counters. *)
    let emit = if Trace.enabled trace then Some (Trace.counter trace) else None in
    let method_name, result, value, exact =
      Obs.gc_phase qobs ?emit "gc" @@ fun () ->
      dispatch t ctx ~trace ~extension qobs q
    in
    let a = { method_name; result; value; exact; cached = false; obs = qobs } in
    Hashtbl.replace ctx.memo key a;
    a

(* ---- counters / summary ---- *)

let counter_names =
  [
    "queries"; "digest_from_header"; "graph.hit"; "graph.miss"; "csr.hit";
    "csr.miss"; "prep.hit"; "prep.miss"; "result.hit"; "result.miss";
    "artifact.hit"; "artifact.miss";
  ]

let counters t =
  List.map
    (fun k ->
      let full = "engine." ^ k in
      (k, if Obs.mem t.obs full then Obs.counter_value t.obs full else 0))
    counter_names

let summary_json t =
  J.Obj
    [ ("engine", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) (counters t))) ]

(* ---- client artifact slots ---- *)

let artifact t g ~key ~build =
  let ctx = context t g in
  match Hashtbl.find_opt ctx.slots key with
  | Some e ->
    Obs.incr t.eo "artifact.hit";
    e
  | None ->
    Obs.incr t.eo "artifact.miss";
    let e = build () in
    Hashtbl.replace ctx.slots key e;
    e
