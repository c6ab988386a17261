(* The benchmark's in-process half.

     tracer gen DATASET SCALE TEXT NRB
       Write a built-in synthetic dataset, at its library seed, as a
       text edge list (TEXT) and as a binary container (NRB).

     tracer replay GRAPH TEXT NRB QUERIES SPANS
       Load GRAPH the way `netrel serve -g GRAPH` does and serve every
       line of QUERIES twice in one process: through [Engine.query]
       (untraced, exactly what serve runs) and through a copy of the
       engine's query path written here, with a span around each call
       into a layer's public function. Then run fixed-size probes of
       the loaders, bridges, samplers and kernel. Prints one JSON
       object (answers, per-layer metrics, checks) on stdout and writes
       the spans to SPANS as JSON lines.

   Time comes from the monotonic clock, allocation from [Gc.counters]
   (minor + major - promoted words) read around each call; at jobs 1
   the word counts repeat exactly for the same inputs. *)

module P = Preprocess.Pipeline
module S = Netrel.S2bdd
module R = Netrel.Reliability
module SD = Netrel.Statsdoc
module O = Graphalgo.Ordering
module J = Obs.Json

let clock = Obs.default_clock ()

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* ---- spans, kept in memory and written out at the end ---- *)

type span = {
  id : int;
  parent : int;  (* -1: a root or a probe *)
  query : int;   (* -1: not part of a query *)
  name : string;
  t0 : float;
  t1 : float;
  words : float;
}

let spans = ref []
let n_spans = ref 0

let span ?(parent = -1) ?(query = -1) name f =
  let id = !n_spans in
  incr n_spans;
  let w0 = alloc_words () in
  let t0 = clock () in
  let r = f id in
  let t1 = clock () in
  let w1 = alloc_words () in
  spans := { id; parent; query; name; t0; t1; words = w1 -. w0 } :: !spans;
  r

let dur s = s.t1 -. s.t0

let write_spans path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"query\":%d,\"name\":%S,\"start_ns\":%.0f,\
         \"dur_ns\":%.0f,\"words\":%.0f}\n"
        s.id s.parent s.query s.name (s.t0 *. 1e9) (dur s *. 1e9) s.words)
    (List.rev !spans);
  close_out oc

(* ---- query lines (the `netrel serve` protocol subset the benchmark
   generates) ---- *)

let parse_query line =
  let field q tok =
    match String.index_opt tok '=' with
    | None -> failwith ("bad query token " ^ tok)
    | Some i -> (
      let v = String.sub tok (i + 1) (String.length tok - i - 1) in
      match String.sub tok 0 i with
      | "terminals" ->
        { q with
          Engine.terminals =
            List.map int_of_string (String.split_on_char ',' v) }
      | "method" -> (
        match Engine.method_of_name v with
        | Some m -> { q with Engine.method_ = m }
        | None -> failwith ("unknown method " ^ v))
      | "samples" -> { q with Engine.samples = int_of_string v }
      | "width" -> { q with Engine.width = int_of_string v }
      | "seed" -> { q with Engine.seed = int_of_string v }
      | "kernel" ->
        { q with
          Engine.kernel =
            (if v = "bitsliced" then Mcsampling.Bitsliced else Mcsampling.Flat) }
      | k -> failwith ("unknown query key " ^ k))
  in
  String.split_on_char ' ' (String.trim line)
  |> List.filter (fun s -> s <> "")
  |> List.fold_left field { Engine.default with Engine.jobs = 1 }

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l ->
      let t = String.trim l in
      go (if t = "" || t.[0] = '#' then acc else t :: acc)
    | exception End_of_file -> close_in ic; List.rev acc
  in
  go []

let terminals_key ts = String.concat "," (List.map string_of_int ts)

let memo_key (q : Engine.query) =
  Printf.sprintf "%s;%s;%d;%d;%d;%s" (terminals_key q.Engine.terminals)
    (Engine.method_name q.Engine.method_) q.Engine.samples q.Engine.width
    q.Engine.seed (Mcsampling.kernel_mode_name q.Engine.kernel)

let render ~graph_name (q : Engine.query) ~method_name ~obs result =
  let run =
    { SD.command = "serve"; method_ = method_name; graph = graph_name;
      terminals = q.Engine.terminals; seed = q.Engine.seed; jobs = 1;
      samples = q.Engine.samples; width = q.Engine.width }
  in
  J.to_string (SD.build ~obs ~run ~seconds:0. ~result)

(* ---- the traced copy of Engine.query ----

   Same caches (preprocessing + orderings per terminal set, one Csr per
   graph, a result memo per query signature), same entry points, same
   configurations; the replay checks every answer against the real
   engine's, so a divergence shows as a mismatch. [Reliability.estimate]
   is split into construction (the [construction.build] timer S2bdd
   records on the observer passed in) and descents (the rest of the
   call). *)

type prep_entry = { outcome : P.outcome; orders : int array array; pobs : Obs.t }

type replica = {
  g : Ugraph.t;
  graph_name : string;
  preps : (string, prep_entry) Hashtbl.t;
  memo : (string, string) Hashtbl.t;
  mutable csr : Kernel.Csr.t option;
  mutable transform_s : float;  (* the pipeline's own transform timer *)
  mutable subresults : S.result list;
  mutable construct_s : float;
  mutable constructs : int;
  mutable construct_words : float;
  mutable descent_ns : float;
}

let estimator (q : Engine.query) =
  if q.Engine.method_ = Engine.Pro_ht then S.Horvitz_thompson else S.Monte_carlo

let replica_query st ~qid (q : Engine.query) =
  let ts = q.Engine.terminals in
  let key = memo_key q in
  span ~query:qid "query" @@ fun root ->
  let child name f = span ~parent:root ~query:qid name (fun _ -> f ()) in
  match child "engine.memo" (fun () -> Hashtbl.find_opt st.memo key) with
  | Some r -> r
  | None ->
    let qobs = Obs.create () in
    let method_name, result =
      match q.Engine.method_ with
      | Engine.Pro | Engine.Pro_ht ->
        let tkey = terminals_key ts in
        let pe =
          match Hashtbl.find_opt st.preps tkey with
          | Some pe -> pe
          | None ->
            let pobs = Obs.create () in
            let outcome =
              child "preprocess" (fun () -> P.run ~obs:pobs st.g ~terminals:ts)
            in
            st.transform_s <-
              st.transform_s +. Obs.timer_seconds pobs "preprocess.transform";
            let orders =
              child "ordering" (fun () ->
                  match outcome with
                  | P.Trivial _ -> [||]
                  | P.Reduced { subproblems; _ } ->
                    Array.of_list
                      (List.map
                         (fun (sp : P.subproblem) ->
                           O.order_edges (O.Bfs_from sp.P.terminals) sp.P.graph)
                         subproblems))
            in
            let pe = { outcome; orders; pobs } in
            Hashtbl.replace st.preps tkey pe;
            pe
        in
        Obs.merge ~into:qobs pe.pobs;
        let config =
          { S.default_config with S.samples = q.Engine.samples;
            S.width = q.Engine.width; S.estimator = estimator q;
            S.seed = q.Engine.seed }
        in
        let rep =
          child "reliability" (fun () ->
              R.estimate ~obs:qobs ~config ~jobs:1 ~prep:pe.outcome
                ~orders:pe.orders st.g ~terminals:ts)
        in
        (* Split the call with the construction timer and GC account
           that S2bdd records on the observer passed in. *)
        let rel = List.hd !spans in
        let build = Obs.timer_seconds qobs "construction.build" in
        let gc k = float_of_int (Obs.counter_value qobs ("construction.gc." ^ k)) in
        let build_words = gc "minor_words" +. gc "major_words" -. gc "promoted_words" in
        st.construct_s <- st.construct_s +. build;
        st.constructs <- st.constructs + Obs.timer_count qobs "construction.build";
        st.construct_words <- st.construct_words +. build_words;
        st.descent_ns <- st.descent_ns +. ((dur rel -. build) *. 1e9);
        st.subresults <- rep.R.subresults @ st.subresults;
        (Engine.method_name q.Engine.method_, SD.result_of_report rep)
      | Engine.Sampling_mc | Engine.Sampling_ht ->
        let csr =
          match st.csr with
          | Some c -> c
          | None ->
            let c = child "kernel.csr" (fun () -> Kernel.Csr.of_graph st.g) in
            st.csr <- Some c;
            c
        in
        let sampler =
          if q.Engine.method_ = Engine.Sampling_mc then Mcsampling.monte_carlo
          else Mcsampling.horvitz_thompson
        in
        let e =
          child "mcsampling" (fun () ->
              sampler ~obs:qobs ~seed:q.Engine.seed ~jobs:1
                ~kernel:q.Engine.kernel ~csr st.g ~terminals:ts
                ~samples:q.Engine.samples)
        in
        (Engine.method_name q.Engine.method_, SD.result_of_estimate e)
    in
    child "statsdoc" (fun () ->
        ignore (render ~graph_name:st.graph_name q ~method_name ~obs:qobs result));
    let r = J.to_string result in
    Hashtbl.replace st.memo key r;
    r

(* ---- probes ---- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* [f ()] under one span; returns its (seconds, words). *)
let measure name f =
  span name (fun _ -> ignore (Sys.opaque_identity (f ())));
  let s = List.hd !spans in
  (dur s, s.words)

let timed_median ~reps name f = median (List.init reps (fun _ -> fst (measure name f)))

let ratio a b = if b = 0. then 0. else a /. b

(* ---- replay ---- *)

let replay ~graph ~text ~nrb ~queries ~spans_out =
  let g, digest =
    if Bingraph.is_binary_file graph then begin
      let bg = Bingraph.load graph in
      Bingraph.validate bg;
      (Bingraph.to_graph bg, Some (Bingraph.digest bg))
    end
    else (Ugraph.of_file graph, None)
  in
  let graph_name = Filename.basename graph in
  let m = float_of_int (Ugraph.n_edges g) in
  let lines = read_lines queries in
  let qs = List.map parse_query lines in
  let eng = Engine.create ~obs:(Obs.create ()) () in
  let st =
    { g; graph_name; preps = Hashtbl.create 64; memo = Hashtbl.create 256;
      csr = None; transform_s = 0.; subresults = []; construct_s = 0.;
      constructs = 0; construct_words = 0.; descent_ns = 0. }
  in
  let engine_call q =
    let t0 = clock () in
    let a = Engine.query ?digest eng g q in
    let t1 = clock () in
    ignore
      (render ~graph_name q ~method_name:a.Engine.method_name ~obs:a.Engine.obs
         a.Engine.result);
    let t2 = clock () in
    (a, t1 -. t0, t2 -. t0)
  in
  let hit_s = ref [] and miss_s = ref [] and engine_total = ref 0. in
  let mismatches = ref 0 and memo_miss_ids = ref [] in
  let answers =
    List.mapi
      (fun qid q ->
        (* Alternate which side runs first, so neither always meets the
           caches and heap the other has just warmed. *)
        let replica () = replica_query st ~qid q in
        let r0 = if qid mod 2 = 1 then Some (replica ()) else None in
        let a, tq, ttot = engine_call q in
        engine_total := !engine_total +. ttot;
        if a.Engine.cached then hit_s := tq :: !hit_s
        else begin
          miss_s := tq :: !miss_s;
          memo_miss_ids := qid :: !memo_miss_ids
        end;
        let r = match r0 with Some r -> r | None -> replica () in
        if r <> J.to_string a.Engine.result then incr mismatches;
        let num k =
          match J.member k a.Engine.result with
          | Some (J.Float f) -> f
          | Some (J.Int i) -> float_of_int i
          | _ -> Float.nan
        in
        (num "value", num "lower", num "upper"))
      qs
  in
  let counters = Engine.counters eng in
  let counter k = float_of_int (List.assoc k counters) in
  (* Every distinct query once more: all result-memo hits. *)
  List.iter
    (fun q ->
      let a, tq, _ = engine_call q in
      if a.Engine.cached then hit_s := tq :: !hit_s)
    (List.sort_uniq compare qs);
  (* Probes. *)
  let ugraph_load = timed_median ~reps:3 "probe.ugraph.load" (fun () -> Ugraph.of_file text) in
  let bingraph_load =
    timed_median ~reps:5 "probe.bingraph.load" (fun () ->
        let bg = Bingraph.load nrb in
        Bingraph.validate bg;
        Bingraph.to_graph bg)
  in
  let bridges = timed_median ~reps:3 "probe.bridges" (fun () -> Graphalgo.Bridges.bridge_eids g) in
  let csr = Kernel.Csr.of_graph g in
  let probe_sets =
    List.sort_uniq compare (List.map (fun q -> q.Engine.terminals) qs)
    |> List.filteri (fun i _ -> i < 3)
  in
  let n_samples = max 16 (int_of_float (ceil (2e6 /. m))) in
  let sampler name f =
    List.fold_left
      (fun (t, w, n) ts ->
        let dt, dw = measure name (fun () -> f csr ~terminals:ts ~samples:n_samples) in
        (t +. dt, w +. dw, n + n_samples))
      (0., 0., 0) probe_sets
  in
  let per_sample (t, w, n) = (t *. 1e9 /. float_of_int n, w /. float_of_int n) in
  let mc_ns, mc_w =
    per_sample
      (sampler "probe.mcsampling.mc" (fun c ~terminals ~samples ->
           Mcsampling.monte_carlo_csr ~seed:1 ~jobs:1 c ~terminals ~samples))
  in
  let ht_ns, ht_w =
    per_sample
      (sampler "probe.mcsampling.ht" (fun c ~terminals ~samples ->
           Mcsampling.horvitz_thompson_csr ~seed:1 ~jobs:1 c ~terminals ~samples))
  in
  let bs_ns, _ =
    per_sample
      (sampler "probe.mcsampling.bitsliced" (fun c ~terminals ~samples ->
           Mcsampling.monte_carlo_csr ~seed:1 ~jobs:1 ~kernel:Mcsampling.Bitsliced c
             ~terminals ~samples))
  in
  (* Descents: the largest preprocessed subproblem, prepared at a small
     width so that most of its mass is left to strata, then a fixed
     number of descents per stratum ([S2bdd.draw_stratum]). A probe, so
     the per-descent cost is measured even where queries draw none. *)
  let descent_t, descent_w, descent_n =
    let subs =
      Hashtbl.fold
        (fun _ pe acc ->
          match pe.outcome with
          | P.Trivial _ -> acc
          | P.Reduced { subproblems; _ } ->
            List.mapi (fun i sp -> (sp, pe.orders.(i))) subproblems @ acc)
        st.preps []
      |> List.sort (fun ((a : P.subproblem), _) ((b : P.subproblem), _) ->
             compare (Ugraph.n_edges b.P.graph) (Ugraph.n_edges a.P.graph))
    in
    match subs with
    | [] -> (0., 0., 0)
    | (sp, order) :: _ -> (
      let config =
        { S.default_config with S.width = 64; S.seed = 1; S.order = `Explicit order }
      in
      match S.prepare ~config sp.P.graph ~terminals:sp.P.terminals with
      | S.Exact _ -> (0., 0., 0)
      | S.Sampling plan ->
        let strata = min 32 (S.n_strata plan) and per = 4 in
        let t, w =
          measure "probe.s2bdd.descents" (fun () ->
              for i = 0 to strata - 1 do S.draw_stratum plan i ~n:per done)
        in
        (t, w, strata * per))
  in
  let scratch = Kernel.create () and rng = Prng.create 7 in
  let draws = max 8 (int_of_float (ceil (5e6 /. m))) in
  let tarr = Array.of_list (List.hd probe_sets) in
  let draw_t = ref 0. and draw_w = ref 0. and conn_t = ref 0. and conn_w = ref 0. in
  for _ = 1 to draws do
    let dt, dw = measure "probe.kernel.draw" (fun () -> Kernel.draw scratch csr rng) in
    let ct, cw =
      measure "probe.kernel.connectivity" (fun () ->
          Kernel.connected_terminals scratch csr tarr)
    in
    draw_t := !draw_t +. dt;
    draw_w := !draw_w +. dw;
    conn_t := !conn_t +. ct;
    conn_w := !conn_w +. cw
  done;
  write_spans spans_out;
  (* Aggregation over the replay's spans. *)
  let all = !spans in
  let named n = List.filter (fun s -> s.name = n) all in
  let total l = List.fold_left (fun a s -> a +. dur s) 0. l in
  let words l = List.fold_left (fun a s -> a +. s.words) 0. l in
  let count l = float_of_int (List.length l) in
  let roots = named "query" in
  let root_t = total roots in
  let root_ids = List.map (fun s -> s.id) roots in
  let children = List.filter (fun s -> List.mem s.parent root_ids) all in
  let pre = named "preprocess" and ord = named "ordering" in
  let rel = named "reliability" in
  let sampl = named "mcsampling" in
  let n_pre = count pre and n_rel = count rel in
  let drawn =
    float_of_int (List.fold_left (fun a r -> a + r.S.samples_drawn) 0 st.subresults)
  in
  let n_sub = float_of_int (List.length st.subresults) in
  let mean_sub f =
    ratio (float_of_int (List.fold_left (fun a r -> a + f r) 0 st.subresults)) n_sub
  in
  let miss_roots = List.filter (fun s -> List.mem s.query !memo_miss_ids) roots in
  let constructs = float_of_int st.constructs in
  let descent_s = st.descent_ns /. 1e9 in
  let hits = List.length !hit_s in
  let widths =
    List.fold_left (fun a (_, l, u) -> a +. (u -. l)) 0. answers
    /. float_of_int (max 1 (List.length answers))
  in
  let metrics =
    [
      ("ugraph.load_ms", "ms", ugraph_load *. 1e3);
      ("ugraph.load_ns_per_edge", "ns", ugraph_load *. 1e9 /. m);
      ("bingraph.load_ms", "ms", bingraph_load *. 1e3);
      ("bingraph.load_ns_per_edge", "ns", bingraph_load *. 1e9 /. m);
      ("preprocess.ms_per_query", "ms", ratio (total pre *. 1e3) n_pre);
      ("preprocess.ns_per_edge", "ns", ratio (total pre *. 1e9) (n_pre *. m));
      ("preprocess.words_per_edge", "words", ratio (words pre) (n_pre *. m));
      ("preprocess.share", "ratio", ratio (total pre) root_t);
      ("preprocess.transform_ms", "ms", ratio (st.transform_s *. 1e3) n_pre);
      ("graphalgo.bridges_ms", "ms", bridges *. 1e3);
      ("ordering.ms_per_query", "ms", ratio (total ord *. 1e3) n_pre);
      ("s2bdd.construct_ms", "ms", ratio (st.construct_s *. 1e3) constructs);
      ("s2bdd.construct_words", "words", ratio st.construct_words constructs);
      ("s2bdd.layers", "count", mean_sub (fun r -> r.S.layers_built));
      ("s2bdd.max_width", "count", mean_sub (fun r -> r.S.max_width));
      ("s2bdd.construct_share", "ratio", ratio st.construct_s root_t);
      ("s2bdd.descent_ms", "ms", ratio (descent_s *. 1e3) n_rel);
      ("s2bdd.descents", "count", ratio drawn n_rel);
      ("s2bdd.ns_per_descent", "ns", ratio (descent_t *. 1e9) (float_of_int descent_n));
      ("s2bdd.words_per_descent", "words", ratio descent_w (float_of_int descent_n));
      ("mcsampling.mc_ns_per_sample", "ns", mc_ns);
      ("mcsampling.ht_ns_per_sample", "ns", ht_ns);
      ("mcsampling.bitsliced_ns_per_sample", "ns", bs_ns);
      ("mcsampling.mc_words_per_sample", "words", mc_w);
      ("mcsampling.ht_words_per_sample", "words", ht_w);
      ("kernel.draw_ns_per_edge", "ns", !draw_t *. 1e9 /. (float_of_int draws *. m));
      ("kernel.draw_words_per_edge", "words", !draw_w /. (float_of_int draws *. m));
      ("kernel.connectivity_ns_per_edge", "ns", !conn_t *. 1e9 /. (float_of_int draws *. m));
      ("kernel.connectivity_words_per_edge", "words", !conn_w /. (float_of_int draws *. m));
      ("engine.hit_us", "us", ratio (List.fold_left ( +. ) 0. !hit_s *. 1e6) (float_of_int hits));
      ("engine.miss_ms", "ms",
       ratio (List.fold_left ( +. ) 0. !miss_s *. 1e3)
         (float_of_int (List.length !miss_s)));
      ("engine.result_hit_ratio", "ratio", ratio (counter "result.hit") (counter "queries"));
      ("engine.prep_hit_ratio", "ratio",
       ratio (counter "prep.hit") (counter "prep.hit" +. counter "prep.miss"));
      ("trace.overhead_frac", "ratio", ratio root_t !engine_total -. 1.);
      ("trace.self_time_coverage", "ratio", ratio (total children) root_t);
      ("answers.interval_width_mean", "prob", widths);
      (* purpose checks of the three workloads *)
      ("share.sampling", "ratio", ratio (descent_s +. total sampl) root_t);
      ("share.construct_of_miss", "ratio", ratio st.construct_s (total miss_roots));
    ]
  in
  let f x = J.Float x in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("queries", J.Int (List.length qs));
            ("replica_mismatches", J.Int !mismatches);
            ("answers",
             J.List (List.map (fun (v, l, u) -> J.List [ f v; f l; f u ]) answers));
            ("metrics",
             J.Obj
               (List.map
                  (fun (k, u, v) -> (k, J.Obj [ ("value", f v); ("unit", J.Str u) ]))
                  metrics));
          ]))

let gen ~dataset ~scale ~text ~nrb =
  let module D = Workload.Datasets in
  let d =
    match dataset with
    | "nyc" -> D.nyc ~scale ()
    | "dblp1" -> D.dblp1 ~scale ()
    | "dblp2" -> D.dblp2 ~scale ()
    | s -> failwith ("unknown dataset " ^ s)
  in
  Ugraph.to_file text d.D.graph;
  Bingraph.to_file nrb (Bingraph.of_graph d.D.graph)

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "gen"; dataset; scale; text; nrb ] ->
    gen ~dataset ~scale:(float_of_string scale) ~text ~nrb
  | [ "replay"; graph; text; nrb; queries; spans_out ] ->
    replay ~graph ~text ~nrb ~queries ~spans_out
  | _ ->
    prerr_endline
      "usage: tracer gen DATASET SCALE TEXT NRB\n\
      \       tracer replay GRAPH TEXT NRB QUERIES SPANS";
    exit 2
