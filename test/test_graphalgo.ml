open Testutil
module C = Graphalgo.Connectivity
module B = Graphalgo.Bridges
module BT = Graphalgo.Blocktree
module O = Graphalgo.Ordering

(* ---- connectivity ---- *)

let t_is_connected () =
  Alcotest.(check bool) "fig1 connected" true (C.is_connected (fig1 ()));
  let disconnected = graph ~n:4 [ (0, 1, 0.5); (2, 3, 0.5) ] in
  Alcotest.(check bool) "two pairs" false (C.is_connected disconnected);
  Alcotest.(check bool) "empty graph" true (C.is_connected (graph ~n:0 []));
  Alcotest.(check bool) "single vertex" true (C.is_connected (graph ~n:1 []))

let t_components () =
  let g = graph ~n:5 [ (0, 1, 0.5); (3, 4, 0.5) ] in
  let comp, count = C.components g in
  Alcotest.(check int) "count" 3 count;
  Alcotest.(check (array int)) "labels" [| 0; 0; 1; 2; 2 |] comp

let t_terminals_connected () =
  let g = path4 0.5 in
  let all = Array.make 3 true in
  Alcotest.(check bool) "path connects ends" true
    (C.terminals_connected g ~present:all [ 0; 3 ]);
  let broken = [| true; false; true |] in
  Alcotest.(check bool) "cut middle" false
    (C.terminals_connected g ~present:broken [ 0; 3 ]);
  Alcotest.(check bool) "cut middle, near pair" true
    (C.terminals_connected g ~present:broken [ 0; 1 ]);
  Alcotest.(check bool) "single terminal" true
    (C.terminals_connected g ~present:broken [ 2 ])

let t_terminals_connected_dsu_agrees () =
  let g = two_triangles 0.5 in
  let dsu = Dsu.create (Ugraph.n_vertices g) in
  let r = rng () in
  for _ = 1 to 200 do
    let present = Array.init (Ugraph.n_edges g) (fun _ -> Prng.bool r) in
    let ts = [ 0; 4 ] in
    Alcotest.(check bool) "bfs = dsu"
      (C.terminals_connected g ~present ts)
      (C.terminals_connected_dsu dsu g ~present ts)
  done

(* ---- bridges ---- *)

let t_bridges_two_triangles () =
  let g = two_triangles 0.5 in
  let b = B.bridges g in
  Alcotest.(check (array bool)) "only the middle edge"
    [| false; false; false; true; false; false; false |]
    b;
  Alcotest.(check (list int)) "bridge eids" [ 3 ] (B.bridge_eids g)

let t_bridges_path () =
  let g = path4 0.5 in
  Alcotest.(check (array bool)) "every path edge" [| true; true; true |] (B.bridges g)

let t_bridges_cycle () =
  let g = cycle4 0.5 in
  Alcotest.(check (array bool)) "no bridge in a cycle"
    [| false; false; false; false |]
    (B.bridges g)

let t_bridges_parallel () =
  (* A path whose middle edge is doubled: the doubled pair is not a
     bridge, the outer edges are. *)
  let g = graph ~n:4 [ (0, 1, 0.5); (1, 2, 0.5); (1, 2, 0.6); (2, 3, 0.5) ] in
  Alcotest.(check (array bool)) "parallel pair not bridges"
    [| true; false; false; true |]
    (B.bridges g)

let t_bridges_self_loop () =
  let g = graph ~n:2 [ (0, 0, 0.5); (0, 1, 0.5) ] in
  Alcotest.(check (array bool)) "loop not a bridge" [| false; true |] (B.bridges g)

let t_articulations () =
  let g = two_triangles 0.5 in
  Alcotest.(check (array bool)) "bridge endpoints"
    [| false; false; true; true; false; false |]
    (B.articulation_points g);
  let star = graph ~n:4 [ (0, 1, 0.5); (0, 2, 0.5); (0, 3, 0.5) ] in
  Alcotest.(check (array bool)) "star centre" [| true; false; false; false |]
    (B.articulation_points star)

let t_two_edge_components () =
  let g = two_triangles 0.5 in
  let comp, count = B.two_edge_components g in
  Alcotest.(check int) "two components" 2 count;
  Alcotest.(check (array int)) "labels" [| 0; 0; 0; 1; 1; 1 |] comp

let arb_graph = Test_ugraph.arb_graph

let prop_bridges_match_naive =
  QCheck.Test.make ~name:"tarjan bridges = naive bridges" ~count:300
    (arb_graph ~max_n:12 ~max_m:25) (fun (n, es) ->
      let g = graph ~n es in
      B.bridges g = B.naive_bridges g)

let prop_articulations_match_naive =
  QCheck.Test.make ~name:"articulation points = naive" ~count:200
    (arb_graph ~max_n:10 ~max_m:20) (fun (n, es) ->
      let g = graph ~n es in
      let fast = B.articulation_points g in
      (* Naive: removing v increases the component count among the
         remaining vertices. *)
      let _, base_count = C.components g in
      let naive v =
        let others = Array.of_list (List.filter (fun u -> u <> v) (List.init n Fun.id)) in
        let sub, _ = Ugraph.induced g others in
        let _, cnt = C.components sub in
        (* v contributed one component if isolated; adjust. *)
        let base_without_v =
          if Ugraph.degree g v = 0 then base_count - 1 else base_count
        in
        cnt > base_without_v
      in
      List.for_all (fun v -> fast.(v) = naive v) (List.init n Fun.id))

(* ---- block tree / steiner ---- *)

let t_blocktree_basic () =
  let g = two_triangles 0.5 in
  let bt = BT.build g ~terminals:[ 0; 4 ] in
  Alcotest.(check int) "two supernodes" 2 bt.BT.n_comps;
  Alcotest.(check bool) "not separated" false (BT.terminals_separated bt);
  let keep = BT.steiner_keep bt in
  Alcotest.(check (array bool)) "both kept" [| true; true |] keep;
  let kv = BT.kept_vertices bt keep in
  Alcotest.(check (array bool)) "all vertices kept" (Array.make 6 true) kv;
  Alcotest.(check int) "bridge kept" 1 (Array.length (BT.kept_bridges bt keep))

let t_blocktree_prunes_dangling () =
  (* Triangle 0-1-2 with pendant path 2-3-4; terminals inside the
     triangle: the pendant path must be pruned. *)
  let g = graph ~n:5 [ (0, 1, 0.5); (1, 2, 0.5); (2, 0, 0.5); (2, 3, 0.5); (3, 4, 0.5) ] in
  let bt = BT.build g ~terminals:[ 0; 1 ] in
  let keep = BT.steiner_keep bt in
  let kv = BT.kept_vertices bt keep in
  Alcotest.(check (array bool)) "pendant pruned" [| true; true; true; false; false |] kv;
  Alcotest.(check int) "no bridge kept" 0 (Array.length (BT.kept_bridges bt keep))

let t_blocktree_keeps_connecting_path () =
  (* Terminals at the two ends of two_triangles keep the bridge; a
     terminal pair inside one triangle drops the other. *)
  let g = two_triangles 0.5 in
  let bt = BT.build g ~terminals:[ 0; 1 ] in
  let keep = BT.steiner_keep bt in
  Alcotest.(check (array bool)) "second triangle pruned"
    [| true; true; true; false; false; false |]
    (BT.kept_vertices bt keep)

let t_blocktree_separated () =
  let g = graph ~n:4 [ (0, 1, 0.5); (2, 3, 0.5) ] in
  let bt = BT.build g ~terminals:[ 0; 3 ] in
  Alcotest.(check bool) "separated" true (BT.terminals_separated bt);
  let bt2 = BT.build g ~terminals:[ 0; 1 ] in
  Alcotest.(check bool) "same side fine" false (BT.terminals_separated bt2)

(* ---- ordering ---- *)

let t_order_permutations () =
  let g = two_triangles 0.5 in
  let m = Ugraph.n_edges g in
  List.iter
    (fun s ->
      let o = O.order_edges s g in
      let sorted = Array.copy o in
      Array.sort compare sorted;
      Alcotest.(check (array int))
        (O.strategy_name s ^ " is a permutation")
        (Array.init m Fun.id) sorted)
    O.all_strategies

let t_frontier_plan_path () =
  let g = path4 0.5 in
  let plan = O.Frontier.plan g (O.order_edges O.Natural g) in
  (* Path: after edge 0 frontier {1}; after edge 1 {2}; after edge 2 {}. *)
  Alcotest.(check (array int)) "widths" [| 1; 1; 0 |] plan.O.Frontier.width;
  Alcotest.(check int) "max width" 1 plan.O.Frontier.max_width

let t_frontier_bfs_beats_random_on_grid () =
  (* 6x6 grid: a random order produces much wider frontiers than BFS. *)
  let n = 36 in
  let idx r c = (r * 6) + c in
  let es = ref [] in
  for r = 0 to 5 do
    for c = 0 to 5 do
      if c < 5 then es := (idx r c, idx r (c + 1), 0.5) :: !es;
      if r < 5 then es := (idx r c, idx (r + 1) c, 0.5) :: !es
    done
  done;
  let g = graph ~n !es in
  let bfs_w = O.Frontier.max_width_of g O.Bfs in
  let rand_w = O.Frontier.max_width_of g (O.Random 7) in
  Alcotest.(check bool)
    (Printf.sprintf "bfs %d < random %d" bfs_w rand_w)
    true (bfs_w < rand_w)

let t_best_order_valid () =
  let g = two_triangles 0.5 in
  let o = O.best_order g in
  let sorted = Array.copy o in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 7 Fun.id) sorted

let prop_frontier_width_bounded =
  QCheck.Test.make ~name:"frontier width <= n" ~count:200 (arb_graph ~max_n:12 ~max_m:30)
    (fun (n, es) ->
      let g = graph ~n es in
      List.for_all
        (fun s -> O.Frontier.max_width_of g s <= n)
        O.all_strategies)

let prop_plan_first_last_consistent =
  QCheck.Test.make ~name:"frontier first/last positions consistent" ~count:200
    (arb_graph ~max_n:10 ~max_m:25) (fun (n, es) ->
      let g = graph ~n es in
      let plan = O.Frontier.plan g (O.order_edges O.Bfs g) in
      List.for_all
        (fun v ->
          let f = plan.O.Frontier.first_pos.(v) and l = plan.O.Frontier.last_pos.(v) in
          if Ugraph.degree g v = 0 then f = -1 && l = -1 else 0 <= f && f <= l)
        (List.init n Fun.id))

(* The 2-edge-connected labelling read off the Tarjan DFS equals the
   components left after deleting the (naively computed) bridges, with
   ids in increasing order of smallest member vertex. *)
let prop_two_edge_components_match_naive =
  QCheck.Test.make ~name:"2-edge components = components minus bridges" ~count:300
    (arb_graph ~max_n:12 ~max_m:25) (fun (n, es) ->
      let g = graph ~n es in
      let b = B.naive_bridges g in
      let dsu = Dsu.create n in
      Ugraph.iter_edges
        (fun eid (e : Ugraph.edge) -> if not b.(eid) then ignore (Dsu.union dsu e.u e.v))
        g;
      let expected = Array.make n (-1) and count = ref 0 in
      let id_of_root = Array.make n (-1) in
      for v = 0 to n - 1 do
        let r = Dsu.find dsu v in
        if id_of_root.(r) < 0 then begin
          id_of_root.(r) <- !count;
          incr count
        end;
        expected.(v) <- id_of_root.(r)
      done;
      B.two_edge_components g = (expected, !count))

let suite =
  ( "graphalgo",
    [
      Alcotest.test_case "is_connected" `Quick t_is_connected;
      Alcotest.test_case "components" `Quick t_components;
      Alcotest.test_case "terminals_connected" `Quick t_terminals_connected;
      Alcotest.test_case "bfs vs dsu connectivity" `Quick t_terminals_connected_dsu_agrees;
      Alcotest.test_case "bridges: two triangles" `Quick t_bridges_two_triangles;
      Alcotest.test_case "bridges: path" `Quick t_bridges_path;
      Alcotest.test_case "bridges: cycle" `Quick t_bridges_cycle;
      Alcotest.test_case "bridges: parallel edges" `Quick t_bridges_parallel;
      Alcotest.test_case "bridges: self loop" `Quick t_bridges_self_loop;
      Alcotest.test_case "articulation points" `Quick t_articulations;
      Alcotest.test_case "2-edge components" `Quick t_two_edge_components;
      Alcotest.test_case "block tree basics" `Quick t_blocktree_basic;
      Alcotest.test_case "block tree prunes dangling" `Quick t_blocktree_prunes_dangling;
      Alcotest.test_case "block tree keeps needed path" `Quick t_blocktree_keeps_connecting_path;
      Alcotest.test_case "block tree separated terminals" `Quick t_blocktree_separated;
      Alcotest.test_case "orders are permutations" `Quick t_order_permutations;
      Alcotest.test_case "frontier plan on path" `Quick t_frontier_plan_path;
      Alcotest.test_case "bfs narrower than random on grid" `Quick t_frontier_bfs_beats_random_on_grid;
      Alcotest.test_case "best_order valid" `Quick t_best_order_valid;
    ]
    @ qtests
        [
          prop_bridges_match_naive;
          prop_articulations_match_naive;
          prop_frontier_width_bounded;
          prop_plan_first_last_consistent;
          prop_two_edge_components_match_naive;
        ] )
