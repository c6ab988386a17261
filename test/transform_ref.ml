(* The list-based "Transform" phase that [Preprocess.Transform]
   replaced, kept only as the reference oracle for the property that the
   array implementation reproduces it exactly (test_preprocess.ml). *)

type result = {
  graph : Ugraph.t;
  terminals : int list;
  old_of_new : int array;
  rounds : int;
}

(* One fixpoint round over a plain edge list (u, v, p), vertices in
   [0, n). Returns (edges', changed). The rewrites within a round are
   staged — loops, then parallels, then chains, then dangling vertices —
   so each stage works on the previous stage's output; rewrites enabled
   by a later stage fire in the next round. *)
let round n is_terminal edges =
  let changed = ref false in
  (* Stage 1: drop self-loops. *)
  let edges =
    List.filter
      (fun (u, v, _) ->
        if u = v then begin
          changed := true;
          false
        end
        else true)
      edges
  in
  (* Stage 2: merge parallel edges; a single edge survives per vertex
     pair with failure probabilities multiplied. *)
  (* Keys are the packed vertex pair [min * 2^31 + max] — an immediate
     int, so lookups hash a machine word instead of walking a boxed
     tuple through the polymorphic hash (measurable at 10^6 edges;
     vertex ids fit 31 bits long before anything else here does). *)
  let pair_fail : (int, float) Hashtbl.t = Hashtbl.create (List.length edges) in
  let pack u v = if u < v then (u lsl 31) lor v else (v lsl 31) lor u in
  (* [order] keeps first-occurrence key order: rebuilding the surviving
     edges from a [Hashtbl.fold] would emit them in hash-bucket order,
     making downstream edge orderings (and any digest over them) depend
     on [Hashtbl] internals rather than the input. *)
  let order = ref [] in
  List.iter
    (fun (u, v, p) ->
      let key = pack u v in
      match Hashtbl.find_opt pair_fail key with
      | None ->
        order := key :: !order;
        Hashtbl.add pair_fail key (1. -. p)
      | Some q ->
        changed := true;
        Hashtbl.replace pair_fail key (q *. (1. -. p)))
    edges;
  let edges =
    List.rev_map
      (fun key -> (key lsr 31, key land 0x7FFFFFFF, 1. -. Hashtbl.find pair_fail key))
      !order
  in
  (* Stage 3: contract chains through degree-2 non-terminal vertices. *)
  let edge_arr = Array.of_list edges in
  let m = Array.length edge_arr in
  let adj = Array.make n [] in
  Array.iteri
    (fun i (u, v, _) ->
      adj.(u) <- (i, v) :: adj.(u);
      adj.(v) <- (i, u) :: adj.(v))
    edge_arr;
  let deg = Array.map List.length adj in
  let eligible v = deg.(v) = 2 && not is_terminal.(v) in
  let edge_dead = Array.make m false in
  let visited = Array.make n false in
  let extra = ref [] in
  (* Walk away from [start] through [via] until a non-eligible vertex
     (or back to [start], meaning a closed cycle of eligible
     vertices). Marks traversed edges dead and interior vertices
     visited. *)
  let walk start via0 =
    let rec go cur_v (eidx, w) p_acc =
      let _, _, p = edge_arr.(eidx) in
      edge_dead.(eidx) <- true;
      let p_acc = p_acc *. p in
      ignore cur_v;
      if w = start then `Cycle
      else if eligible w then begin
        visited.(w) <- true;
        match List.find_opt (fun (e', _) -> not edge_dead.(e')) adj.(w) with
        | Some next -> go w next p_acc
        | None -> `End (w, p_acc) (* parallel stub: treat as chain end *)
      end
      else `End (w, p_acc)
    in
    go start via0 1.0
  in
  for v = 0 to n - 1 do
    if eligible v && not visited.(v) then begin
      visited.(v) <- true;
      match adj.(v) with
      | [ e1; e2 ] -> (
        changed := true;
        match walk v e1 with
        | `Cycle ->
          (* A floating cycle of non-terminals: both edges of [v] are
             already dead; nothing replaces them. *)
          ()
        | `End (a, pa) -> (
          match walk v e2 with
          | `Cycle ->
            (* Cannot happen: the first walk consumed one of v's edges. *)
            assert false
          | `End (b, pb) ->
            (* The chain a -...- v -...- b becomes one edge; a = b gives
               an ear, i.e. a self-loop removed next round. *)
            extra := (a, b, pa *. pb) :: !extra))
      | _ -> assert false
    end
  done;
  let edges =
    !extra
    @ List.filteri (fun i _ -> not edge_dead.(i)) (Array.to_list edge_arr)
  in
  (* Stage 4: drop edges incident to dangling non-terminals. *)
  let deg = Array.make n 0 in
  List.iter
    (fun (u, v, _) ->
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1)
    edges;
  let dangling v = (not is_terminal.(v)) && deg.(v) <= 1 in
  let edges =
    List.filter
      (fun (u, v, _) ->
        if (u <> v && dangling u) || (u <> v && dangling v) then begin
          changed := true;
          false
        end
        else true)
      edges
  in
  (edges, !changed)

let run g ~terminals =
  Ugraph.validate_terminals g terminals;
  let n = Ugraph.n_vertices g in
  let is_terminal = Array.make n false in
  List.iter (fun t -> is_terminal.(t) <- true) terminals;
  let edges =
    Ugraph.fold_edges (fun acc _ (e : Ugraph.edge) -> (e.u, e.v, e.p) :: acc) [] g
  in
  let rec fixpoint edges rounds =
    let edges', changed = round n is_terminal edges in
    if changed then fixpoint edges' (rounds + 1) else (edges', rounds)
  in
  let edges, rounds = fixpoint edges 0 in
  (* Compact: keep terminals and any vertex still carrying an edge. *)
  let keep = Array.copy is_terminal in
  List.iter
    (fun (u, v, _) ->
      keep.(u) <- true;
      keep.(v) <- true)
    edges;
  let old_of_new =
    Array.of_list (List.filter (fun v -> keep.(v)) (List.init n Fun.id))
  in
  let new_of_old = Array.make n (-1) in
  Array.iteri (fun nw old -> new_of_old.(old) <- nw) old_of_new;
  let graph =
    Ugraph.create ~n:(Array.length old_of_new)
      (List.rev_map
         (fun (u, v, p) -> { Ugraph.u = new_of_old.(u); v = new_of_old.(v); p })
         edges)
  in
  let terminals = List.map (fun t -> new_of_old.(t)) terminals in
  { graph; terminals; old_of_new; rounds }
