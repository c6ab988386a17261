open Testutil
module BF = Bddbase.Bruteforce
module T = Preprocess.Transform
module P = Preprocess.Pipeline

let exact g ~terminals =
  match Bddbase.Exact.reliability_float g ~terminals with
  | Ok r -> r
  | Error _ -> Alcotest.fail "unexpected DNF"

(* Evaluate a pipeline outcome exactly, to compare with direct R. *)
let outcome_reliability = function
  | P.Trivial r -> Xprob.to_float_exn r
  | P.Reduced { pb; subproblems; _ } ->
    List.fold_left
      (fun acc (sp : P.subproblem) -> acc *. exact sp.P.graph ~terminals:sp.P.terminals)
      (Xprob.to_float_exn pb)
      subproblems

(* ---- transform ---- *)

let t_transform_series () =
  (* Path 0-1-2-3 with terminals {0,3}: collapses to one edge p^3. *)
  let tr = T.run (path4 0.8) ~terminals:[ 0; 3 ] in
  Alcotest.(check int) "two vertices" 2 (Ugraph.n_vertices tr.T.graph);
  Alcotest.(check int) "one edge" 1 (Ugraph.n_edges tr.T.graph);
  check_close "probability" (0.8 ** 3.) (Ugraph.edge tr.T.graph 0).Ugraph.p

let t_transform_parallel () =
  let g = graph ~n:2 [ (0, 1, 0.5); (0, 1, 0.4); (0, 1, 0.3) ] in
  let tr = T.run g ~terminals:[ 0; 1 ] in
  Alcotest.(check int) "one edge" 1 (Ugraph.n_edges tr.T.graph);
  check_close "combined probability"
    (1. -. (0.5 *. 0.6 *. 0.7))
    (Ugraph.edge tr.T.graph 0).Ugraph.p

let t_transform_loop () =
  let g = graph ~n:2 [ (0, 0, 0.9); (0, 1, 0.5) ] in
  let tr = T.run g ~terminals:[ 0; 1 ] in
  Alcotest.(check int) "loop dropped" 1 (Ugraph.n_edges tr.T.graph)

let t_transform_ear () =
  (* Terminals {0,3} on a path, plus an ear 1-4-5-1: the ear collapses
     to a self-loop and disappears. *)
  let g =
    graph ~n:6
      [ (0, 1, 0.5); (1, 2, 0.5); (2, 3, 0.5); (1, 4, 0.6); (4, 5, 0.6); (5, 1, 0.6) ]
  in
  let tr = T.run g ~terminals:[ 0; 3 ] in
  Alcotest.(check int) "collapses to single edge" 1 (Ugraph.n_edges tr.T.graph);
  check_close "p = 0.5^3" (0.5 ** 3.) (Ugraph.edge tr.T.graph 0).Ugraph.p

let t_transform_floating_cycle () =
  (* A terminal edge plus an unreachable terminal-free triangle. *)
  let g =
    graph ~n:5 [ (0, 1, 0.5); (2, 3, 0.6); (3, 4, 0.6); (4, 2, 0.6) ]
  in
  let tr = T.run g ~terminals:[ 0; 1 ] in
  Alcotest.(check int) "cycle deleted" 1 (Ugraph.n_edges tr.T.graph);
  Alcotest.(check int) "vertices compacted" 2 (Ugraph.n_vertices tr.T.graph)

let t_transform_dangling () =
  (* Pendant path 2-3-4 off a terminal edge 0-1 (attached at 1). *)
  let g = graph ~n:5 [ (0, 1, 0.5); (1, 2, 0.6); (2, 3, 0.6); (3, 4, 0.6) ] in
  let tr = T.run g ~terminals:[ 0; 1 ] in
  Alcotest.(check int) "pendants dropped" 1 (Ugraph.n_edges tr.T.graph)

let t_transform_keeps_terminal_degree2 () =
  (* A degree-2 terminal must not be contracted away. *)
  let tr = T.run (path4 0.8) ~terminals:[ 0; 1; 3 ] in
  Alcotest.(check int) "terminal 1 kept" 3 (Ugraph.n_vertices tr.T.graph);
  Alcotest.(check int) "edges merged around it" 2 (Ugraph.n_edges tr.T.graph)

let t_transform_parallel_stub () =
  (* A degree-2 non-terminal attached by two parallel edges to the same
     endpoint: the contraction walk's dead-edge stub branch. The stub
     can never reach a terminal, so it must vanish without touching
     R. *)
  let g = graph ~n:3 [ (0, 1, 0.5); (1, 2, 0.7); (1, 2, 0.6) ] in
  let direct = BF.reliability g ~terminals:[ 0; 1 ] in
  let tr = T.run g ~terminals:[ 0; 1 ] in
  Alcotest.(check int) "stub dropped" 1 (Ugraph.n_edges tr.T.graph);
  check_close ~eps:1e-12 "R preserved" direct
    (BF.reliability tr.T.graph ~terminals:tr.T.terminals)

let t_transform_nonterminal_closed_cycle () =
  (* A cycle of non-terminals hanging off a terminal: the chain walk
     returns to its anchor (a = b), leaving a self-loop that must then
     drop. *)
  let g =
    graph ~n:4 [ (0, 1, 0.5); (1, 2, 0.6); (2, 3, 0.6); (3, 1, 0.6) ]
  in
  let direct = BF.reliability g ~terminals:[ 0; 1 ] in
  let tr = T.run g ~terminals:[ 0; 1 ] in
  Alcotest.(check int) "cycle gone" 1 (Ugraph.n_edges tr.T.graph);
  check_close ~eps:1e-12 "R preserved" direct
    (BF.reliability tr.T.graph ~terminals:tr.T.terminals)

let t_transform_parallel_merge_order () =
  (* Regression: the stage-2 parallel-edge merge used to emit merged
     edges in Hashtbl bucket order, which depends on the key hash. The
     contract is first-occurrence order of the (normalized) endpoint
     pair in the input edge list. All vertices are terminals so no
     other rewrite reorders anything. *)
  let g =
    graph ~n:4 [ (2, 3, 0.5); (0, 1, 0.4); (3, 2, 0.5); (1, 0, 0.4); (1, 2, 0.3) ]
  in
  let tr = T.run g ~terminals:[ 0; 1; 2; 3 ] in
  Alcotest.(check int) "three merged edges" 3 (Ugraph.n_edges tr.T.graph);
  let pairs =
    List.init 3 (fun i ->
        let e = Ugraph.edge tr.T.graph i in
        (e.Ugraph.u, e.Ugraph.v))
  in
  Alcotest.(check (list (pair int int)))
    "first-occurrence order" [ (2, 3); (0, 1); (1, 2) ] pairs;
  check_close "merged p" (1. -. (0.5 *. 0.5)) (Ugraph.edge tr.T.graph 0).Ugraph.p

let t_transform_idempotent () =
  let g = two_triangles 0.5 in
  let tr = T.run g ~terminals:[ 0; 4 ] in
  let tr2 = T.run tr.T.graph ~terminals:tr.T.terminals in
  Alcotest.(check int) "second run is identity (edges)"
    (Ugraph.n_edges tr.T.graph) (Ugraph.n_edges tr2.T.graph);
  Alcotest.(check int) "second run took zero rounds... or one no-op" 0 tr2.T.rounds

(* ---- pipeline ---- *)

let t_pipeline_two_triangles () =
  let g = two_triangles 0.5 in
  match P.run g ~terminals:[ 0; 4 ] with
  | P.Trivial _ -> Alcotest.fail "expected reduction"
  | P.Reduced { pb; subproblems; stats } ->
    check_close "bridge probability" 0.5 (Xprob.to_float_exn pb);
    Alcotest.(check int) "two subproblems" 2 (List.length subproblems);
    Alcotest.(check int) "bridges" 1 stats.P.n_bridges;
    (* Each triangle with two terminals transforms: the two-path side
       becomes parallel edges which merge into one; so 2 or fewer edges
       per side. *)
    List.iter
      (fun (sp : P.subproblem) ->
        Alcotest.(check bool) "small subproblem" true (Ugraph.n_edges sp.P.graph <= 2))
      subproblems;
    Alcotest.(check bool) "ratio < 1" true (P.reduction_ratio stats < 1.)

let t_pipeline_trivial_cases () =
  let g = path4 0.5 in
  (match P.run g ~terminals:[ 2 ] with
  | P.Trivial r -> check_close "k=1" 1. (Xprob.to_float_exn r)
  | P.Reduced _ -> Alcotest.fail "expected trivial");
  let disconnected = graph ~n:4 [ (0, 1, 0.9); (2, 3, 0.9) ] in
  (match P.run disconnected ~terminals:[ 0; 3 ] with
  | P.Trivial r -> check_close "separated" 0. (Xprob.to_float_exn r)
  | P.Reduced _ -> Alcotest.fail "expected trivial");
  let isolated = graph ~n:3 [ (0, 1, 0.5) ] in
  match P.run isolated ~terminals:[ 0; 2 ] with
  | P.Trivial r -> check_close "isolated" 0. (Xprob.to_float_exn r)
  | P.Reduced _ -> Alcotest.fail "expected trivial"

let t_pipeline_path_fully_decomposes () =
  (* A pure path between the terminals decomposes into bridges only:
     no subproblems remain and pb is the whole reliability. *)
  let g = path4 0.8 in
  match P.run g ~terminals:[ 0; 3 ] with
  | P.Trivial _ -> Alcotest.fail "expected reduction"
  | P.Reduced { pb; subproblems; _ } ->
    Alcotest.(check int) "no subproblems" 0 (List.length subproblems);
    check_close "pb = p^3" (0.8 ** 3.) (Xprob.to_float_exn pb)

let t_pipeline_subproblem_order () =
  (* Regression: decompose used to list subproblems in Hashtbl bucket
     order of their component roots. The contract is ascending minimum
     original vertex id. Triangle {0,1,2} (p = 0.3) and 4-cycle
     {3,4,5,6} (p = 0.9) hang off the bridge 2-3; the triangle's
     component holds vertex 0 so it must come first, recognizable after
     transformation by its merged edge probability. *)
  let g =
    graph ~n:7
      [ (0, 1, 0.3); (1, 2, 0.3); (2, 0, 0.3); (2, 3, 0.8);
        (3, 4, 0.9); (4, 5, 0.9); (5, 6, 0.9); (6, 3, 0.9) ]
  in
  match P.run g ~terminals:[ 0; 1; 3; 5 ] with
  | P.Trivial _ -> Alcotest.fail "expected reduction"
  | P.Reduced { subproblems; _ } ->
    Alcotest.(check int) "two subproblems" 2 (List.length subproblems);
    (match subproblems with
    | [ tri; cyc ] ->
      (* The triangle survives the transform untouched (vertex 2 has
         degree 3 before the bridge splits off); the cycle's two
         degree-2 corners contract into one merged edge. *)
      Alcotest.(check int) "triangle first" 3 (Ugraph.n_edges tri.P.graph);
      check_close "triangle p" 0.3 (Ugraph.edge tri.P.graph 0).Ugraph.p;
      Alcotest.(check int) "cycle second" 1 (Ugraph.n_edges cyc.P.graph);
      check_close "cycle merged p"
        (1. -. ((1. -. (0.9 *. 0.9)) ** 2.))
        (Ugraph.edge cyc.P.graph 0).Ugraph.p
    | _ -> assert false)

let t_pipeline_preserves_reliability_known () =
  List.iter
    (fun (name, g, ts) ->
      let direct = BF.reliability g ~terminals:ts in
      let via = outcome_reliability (P.run g ~terminals:ts) in
      check_close ~eps:1e-9 name direct via)
    [
      ("fig1", fig1 (), [ 0; 3; 4 ]);
      ("two triangles", two_triangles 0.6, [ 0; 4 ]);
      ("cycle", cycle4 0.5, [ 0; 2 ]);
      ("path k=3", path4 0.7, [ 0; 2; 3 ]);
      ( "barbell with pendant",
        graph ~n:8
          [ (0, 1, 0.5); (1, 2, 0.5); (2, 0, 0.5); (2, 3, 0.9); (3, 4, 0.8);
            (4, 5, 0.5); (5, 6, 0.5); (6, 4, 0.5); (5, 7, 0.4) ],
        [ 0; 6 ] );
    ]

(* ---- property tests ---- *)

let arb = Test_bddbase.arb_graph_ts

let prop_transform_preserves_reliability =
  QCheck.Test.make ~name:"transform preserves R exactly" ~count:300
    (arb ~max_n:8 ~max_m:12 ~max_k:4) (fun (n, es, ts) ->
      let g = graph ~n es in
      let direct = BF.reliability g ~terminals:ts in
      let tr = T.run g ~terminals:ts in
      QCheck.assume (Ugraph.n_edges tr.T.graph <= BF.max_edges);
      let after = BF.reliability tr.T.graph ~terminals:tr.T.terminals in
      Float.abs (direct -. after) <= 1e-9)

let prop_pipeline_preserves_reliability =
  QCheck.Test.make ~name:"pipeline preserves R = pb * prod Ri" ~count:300
    (arb ~max_n:9 ~max_m:13 ~max_k:4) (fun (n, es, ts) ->
      let g = graph ~n es in
      let direct = BF.reliability g ~terminals:ts in
      let via = outcome_reliability (P.run g ~terminals:ts) in
      Float.abs (direct -. via) <= 1e-9)

(* Random base graph with a planted walk corner-case gadget anchored at
   a base vertex: an ear whose contraction walk returns to its anchor
   (a = b), a parallel stub (the dead-edge branch), or a floating cycle
   of non-terminals. Terminals come from the base alone, so the gadget
   is always pure non-terminal structure the transform must erase or
   contract without moving R. *)
let arb_with_gadget =
  let gen =
    QCheck.Gen.(
      int_range 2 6 >>= fun n ->
      int_range 1 8 >>= fun m ->
      int_range 0 2 >>= fun gadget ->
      int_range 0 (n - 1) >>= fun anchor ->
      let edge =
        map3
          (fun u v p -> (u mod n, v mod n, float_of_int (p mod 11) /. 10.))
          small_nat small_nat small_nat
      in
      list_repeat m edge >>= fun es ->
      map2
        (fun seed praw ->
          let p = 0.1 +. (0.08 *. float_of_int (praw mod 11)) in
          let gadget_es, extra =
            match gadget with
            | 0 -> ([ (anchor, n, p); (n, n + 1, p); (n + 1, anchor, p) ], 2)
            | 1 -> ([ (anchor, n, p); (anchor, n, p) ], 1)
            | _ -> ([ (n, n + 1, p); (n + 1, n + 2, p); (n + 2, n, p) ], 3)
          in
          let perm = Array.init n Fun.id in
          Prng.shuffle (Prng.create seed) perm;
          (n + extra, es @ gadget_es, [ perm.(0); perm.(1) ]))
        int small_nat)
  in
  QCheck.make
    ~print:(fun (n, es, ts) ->
      Printf.sprintf "n=%d ts=[%s] es=[%s]" n
        (String.concat ";" (List.map string_of_int ts))
        (String.concat " "
           (List.map (fun (u, v, p) -> Printf.sprintf "(%d,%d,%.2f)" u v p) es)))
    gen

let prop_transform_preserves_reliability_gadgets =
  QCheck.Test.make ~name:"transform preserves R through walk corners" ~count:300
    arb_with_gadget (fun (n, es, ts) ->
      let g = graph ~n es in
      let direct = BF.reliability g ~terminals:ts in
      let tr = T.run g ~terminals:ts in
      QCheck.assume (Ugraph.n_edges tr.T.graph <= BF.max_edges);
      let after = BF.reliability tr.T.graph ~terminals:tr.T.terminals in
      Float.abs (direct -. after) <= 1e-9)

(* The full public exact path — Pipeline.run inside Reliability.exact,
   extension on — against brute force on random <= 10-vertex graphs
   (self-loops and parallel edges included by construction of the
   generator). *)
let prop_reliability_exact_extension_differential =
  QCheck.Test.make ~name:"Reliability.exact (ext) = brute force" ~count:300
    (arb ~max_n:10 ~max_m:14 ~max_k:4) (fun (n, es, ts) ->
      let g = graph ~n es in
      let direct = BF.reliability g ~terminals:ts in
      match Netrel.Reliability.exact ~extension:true g ~terminals:ts with
      | Error _ -> false
      | Ok r -> Float.abs (r -. direct) <= 1e-9)

let prop_pipeline_shrinks =
  QCheck.Test.make ~name:"pipeline never grows the problem" ~count:200
    (arb ~max_n:9 ~max_m:13 ~max_k:3) (fun (n, es, ts) ->
      let g = graph ~n es in
      match P.run g ~terminals:ts with
      | P.Trivial _ -> true
      | P.Reduced { stats; _ } ->
        stats.P.max_subproblem_edges <= stats.P.original_edges
        && stats.P.pruned_edges <= stats.P.original_edges
        && stats.P.final_edges <= stats.P.pruned_edges)


(* ---- pinned structure ---- *)

(* The array pipeline must reproduce the subproblems of the list-based
   pipeline it replaced bit for bit: numbering, edge order, probability
   bits, terminal order, [pb] and every stats counter. Each outcome is
   reduced to an MD5 over [pb]'s mantissa bits and exponent, the stats,
   and every subproblem's [Bingraph.Digest] and terminal list; the
   expected values below were recorded from the list-based code. *)
let outcome_fingerprint = function
  | P.Trivial x ->
    let m, e = Xprob.mantissa_exponent x in
    Printf.sprintf "T:%Lx:%d" (Int64.bits_of_float m) e
  | P.Reduced { pb; subproblems; stats = s } ->
    let b = Buffer.create 256 in
    let m, e = Xprob.mantissa_exponent pb in
    Printf.bprintf b "R:%Lx:%d;%d,%d,%d,%d,%d,%d,%d,%d,%d" (Int64.bits_of_float m) e
      s.P.original_vertices s.P.original_edges s.P.pruned_vertices s.P.pruned_edges
      s.P.n_bridges s.P.n_subproblems s.P.final_edges s.P.max_subproblem_edges
      s.P.transform_rounds;
    List.iter
      (fun (sp : P.subproblem) ->
        Printf.bprintf b ";%x:%s" (Bingraph.Digest.of_graph sp.P.graph)
          (String.concat "," (List.map string_of_int sp.P.terminals)))
      subproblems;
    Digest.to_hex (Digest.string (Buffer.contents b))

(* [k] terminals spread evenly over the vertex ids, offset by [salt]:
   distinct for any [k <= n]. *)
let spread n k salt = List.init k (fun i -> (salt + (i * (n / k))) mod n)

let pinned_fingerprints =
  [
    ("karate", 2, 0, "f5aa918c81db721f70aa200b03ec82b0");
    ("karate", 2, 5, "6064d9f125d77f5da06b34320d63509a");
    ("karate", 5, 3, "176cff2c2477ee52f23287016e8ed1c6");
    ("karate", 10, 7, "3bb91294dc56868a80662e2ced61b3e6");
    ("karate", 20, 11, "126ed5e203469f2ecd7852aed5832709");
    ("am-rv", 2, 0, "867725e75a2ceb2d7585a1f871e59f3e");
    ("am-rv", 2, 5, "eec7b13d30c0925987b373642cc57eaf");
    ("am-rv", 5, 3, "e0039be780d534dfbc59f276fbbf4bc1");
    ("am-rv", 10, 7, "bef90e56471ee7ddc89c069ebb23cdc9");
    ("am-rv", 20, 11, "594a64c710aa133a3d6eb2d1f1f50523");
    ("tokyo", 2, 0, "9e149d00a18c7b239fd1ca25ced98c16");
    ("tokyo", 2, 5, "edd309590ffbc394719c3c6d89b3dab0");
    ("tokyo", 5, 3, "9ac756ee3360608cbde12ab94553ea8c");
    ("tokyo", 10, 7, "8316f74a43a5974647e51a660b560bf7");
    ("tokyo", 20, 11, "be3101dca01d0d8647c47de14289f8be");
    ("dblp1", 2, 0, "59d3e2235966f67cc9a93e4fc82076e9");
    ("dblp1", 2, 5, "755be91b4f6a9b7b9646076933b6001d");
    ("dblp1", 5, 3, "843e27ae560a3b3fee26af3a3db16923");
    ("dblp1", 10, 7, "c4f5753932bb2dfceaf7b811a4f048f2");
    ("dblp1", 20, 11, "68e361b7fcdad4b867a5195421bd4d2f");
    ("hit-d", 2, 0, "d238eed236f2c51ea459ccb2077b743b");
    ("hit-d", 2, 5, "ad7a3a8587ab562f15829e5300f7ac55");
    ("hit-d", 5, 3, "5acfa0b222210d6359bddf32d686a545");
    ("hit-d", 10, 7, "cb66e637682264c3e217c50cc728724a");
    ("hit-d", 20, 11, "f0af3735eaaf30d0beb073b28915a97b");
    ("nyc", 2, 0, "90d7cd9d0386eb72e1de643e9b6e671d");
    ("nyc", 2, 5, "861715e2884c812ade4983551eb1e561");
    ("nyc", 5, 3, "3a4040cb317dd76208da0f85a9ec08e6");
    ("nyc", 10, 7, "a2965887edbd42b9071471c3e83c3f63");
    ("nyc", 20, 11, "391f1f53fad10d16f3844f933533af16");
    ("nyc16", 2, 0, "fc38cb0f4da6fc621a8e4ad7327bdfe7");
    ("nyc16", 2, 5, "33193e1218158d3273079d204bde4db9");
    ("nyc16", 5, 3, "8e253e202a9cfd6b08b5e0f3c7a89790");
    ("nyc16", 10, 7, "02cd895a5117ecb06d272b4eb14964ba");
    ("nyc16", 20, 11, "e28e3da22a59b0d5d58b34580bcf1ffa");
  ]

let t_pipeline_pinned_fingerprints () =
  let module D = Workload.Datasets in
  let graphs =
    [ ("karate", lazy (D.karate ()).D.graph); ("am-rv", lazy (D.am_rv ()).D.graph);
      ("tokyo", lazy (D.tokyo ()).D.graph); ("dblp1", lazy (D.dblp1 ()).D.graph);
      ("hit-d", lazy (D.hit_direct ()).D.graph); ("nyc", lazy (D.nyc ()).D.graph);
      ("nyc16", lazy (D.nyc ~scale:16. ()).D.graph) ]
  in
  List.iter
    (fun (name, k, salt, expected) ->
      let g = Lazy.force (List.assoc name graphs) in
      let ts = spread (Ugraph.n_vertices g) k salt in
      Alcotest.(check string)
        (Printf.sprintf "%s k=%d salt=%d" name k salt)
        expected
        (outcome_fingerprint (P.run g ~terminals:ts)))
    pinned_fingerprints

(* Allocation gate: a pipeline run allocates at most 75 words per input
   edge (minor + major - promoted, from its own [preprocess.gc]
   account). Allocation does not depend on the machine, so the gate is
   tight; the list-based pipeline allocated about 290 words per edge. *)
let t_pipeline_allocation () =
  let g = (Workload.Datasets.nyc ~scale:4. ()).Workload.Datasets.graph in
  let n = Ugraph.n_vertices g and m = float_of_int (Ugraph.n_edges g) in
  List.iter
    (fun (k, salt) ->
      let obs = Obs.create () in
      ignore (P.run ~obs g ~terminals:(spread n k salt));
      let c key = float_of_int (Obs.counter_value obs ("preprocess.gc." ^ key)) in
      let words = c "minor_words" +. c "major_words" -. c "promoted_words" in
      if words <= 0. then Alcotest.fail "preprocess.gc account is not live";
      let per_edge = words /. m in
      if per_edge > 75. then
        Alcotest.failf "k=%d: %.1f words per input edge > 75" k per_edge)
    [ (2, 0); (5, 3); (20, 11) ]

(* The array transform against the list-based transform it replaced
   (kept in [Transform_ref]): same vertex count, edges in the same
   order with the same probability bits, same terminals, renumbering
   and round count. *)
let same_as_reference g ts =
  let a = T.run g ~terminals:ts and r = Transform_ref.run g ~terminals:ts in
  let edges g =
    List.init (Ugraph.n_edges g) (fun i ->
        let e = Ugraph.edge g i in
        (e.Ugraph.u, e.Ugraph.v, Int64.bits_of_float e.Ugraph.p))
  in
  Ugraph.n_vertices a.T.graph = Ugraph.n_vertices r.Transform_ref.graph
  && edges a.T.graph = edges r.Transform_ref.graph
  && a.T.terminals = r.Transform_ref.terminals
  && a.T.old_of_new = r.Transform_ref.old_of_new
  && a.T.rounds = r.Transform_ref.rounds

let t_transform_edgeless () =
  let g = graph ~n:3 [] in
  Alcotest.(check bool) "same as the list transform" true
    (same_as_reference g [ 0; 2 ]);
  Alcotest.(check int) "terminals kept" 2 (Ugraph.n_vertices (T.run g ~terminals:[ 0; 2 ]).T.graph)

let prop_transform_matches_reference =
  QCheck.Test.make ~name:"array transform = list transform" ~count:500
    (arb ~max_n:14 ~max_m:30 ~max_k:4) (fun (n, es, ts) ->
      same_as_reference (graph ~n es) ts)

(* Sparse graphs, average degree about 2.5: long chains, several
   contractions per round and several rounds. *)
let prop_transform_matches_reference_sparse =
  QCheck.Test.make ~name:"array = list transform: sparse" ~count:200
    (arb ~max_n:60 ~max_m:80 ~max_k:6) (fun (n, es, ts) ->
      same_as_reference (graph ~n es) ts)

let prop_transform_matches_reference_gadgets =
  QCheck.Test.make ~name:"array = list transform: gadgets" ~count:300
    arb_with_gadget (fun (n, es, ts) -> same_as_reference (graph ~n es) ts)

let suite =
  ( "preprocess",
    [
      Alcotest.test_case "transform: series chain" `Quick t_transform_series;
      Alcotest.test_case "transform: parallel edges" `Quick t_transform_parallel;
      Alcotest.test_case "transform: self loop" `Quick t_transform_loop;
      Alcotest.test_case "transform: ear" `Quick t_transform_ear;
      Alcotest.test_case "transform: floating cycle" `Quick t_transform_floating_cycle;
      Alcotest.test_case "transform: dangling path" `Quick t_transform_dangling;
      Alcotest.test_case "transform: keeps degree-2 terminal" `Quick t_transform_keeps_terminal_degree2;
      Alcotest.test_case "transform: parallel stub" `Quick t_transform_parallel_stub;
      Alcotest.test_case "transform: non-terminal closed cycle" `Quick t_transform_nonterminal_closed_cycle;
      Alcotest.test_case "transform: parallel merge order" `Quick t_transform_parallel_merge_order;
      Alcotest.test_case "transform: idempotent" `Quick t_transform_idempotent;
      Alcotest.test_case "pipeline: two triangles" `Quick t_pipeline_two_triangles;
      Alcotest.test_case "pipeline: trivial cases" `Quick t_pipeline_trivial_cases;
      Alcotest.test_case "pipeline: subproblem order" `Quick t_pipeline_subproblem_order;
      Alcotest.test_case "pipeline: path decomposes fully" `Quick t_pipeline_path_fully_decomposes;
      Alcotest.test_case "pipeline preserves R (known)" `Quick t_pipeline_preserves_reliability_known;
    ]
    @ qtests
        [
          prop_transform_preserves_reliability;
          prop_transform_preserves_reliability_gadgets;
          prop_reliability_exact_extension_differential;
          prop_pipeline_preserves_reliability;
          prop_pipeline_shrinks;
        ]
    @ [
        Alcotest.test_case "pipeline: pinned fingerprints" `Quick t_pipeline_pinned_fingerprints;
        Alcotest.test_case "pipeline: allocation gate" `Quick t_pipeline_allocation;
        Alcotest.test_case "transform: edgeless graph" `Quick t_transform_edgeless;
      ]
    @ qtests
        [
          prop_transform_matches_reference;
          prop_transform_matches_reference_gadgets;
          prop_transform_matches_reference_sparse;
        ] )
