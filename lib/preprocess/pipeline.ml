module BT = Graphalgo.Blocktree

type subproblem = {
  graph : Ugraph.t;
  terminals : int list;
}

type stats = {
  original_vertices : int;
  original_edges : int;
  pruned_vertices : int;
  pruned_edges : int;
  n_bridges : int;
  n_subproblems : int;
  final_edges : int;
  max_subproblem_edges : int;
  transform_rounds : int;
}

type outcome =
  | Trivial of Xprob.t
  | Reduced of {
      pb : Xprob.t;
      subproblems : subproblem list;
      stats : stats;
    }

let reduction_ratio st =
  if st.original_edges = 0 then 0.
  else float_of_int st.max_subproblem_edges /. float_of_int st.original_edges

(* The prune, decompose and transform stages run over int arrays
   indexed by the input's vertex and edge ids; no intermediate graph is
   built. Bridges are computed once, on the input: the Steiner prune
   keeps or drops whole 2-edge-connected components, so the pruned
   graph's bridges are exactly the input's bridges between kept
   components, and its bridge-free components are the kept
   components. *)

(* Prune: restrict to the Steiner subtree of the block forest. [None]
   when the terminals lie in different trees. Otherwise the supernode
   keep-mask and the pruned graph's vertex and edge counts. *)
let prune g ~terminals =
  let bt = BT.build g ~terminals in
  let keep = BT.steiner_keep bt in
  let comp = bt.BT.comp_of_vertex in
  (* [steiner_keep] keeps nothing when the terminals are separated,
     and every terminal's supernode otherwise. *)
  if not keep.(comp.(List.hd terminals)) then None
  else begin
    let vertices = ref 0 and edges = ref 0 in
    Array.iter (fun c -> if keep.(c) then incr vertices) comp;
    Ugraph.iter_edges
      (fun _ (e : Ugraph.edge) ->
        if keep.(comp.(e.u)) && keep.(comp.(e.v)) then incr edges)
      g;
    Some (bt, keep, !vertices, !edges)
  end

(* A subproblem before the transform: the slice [first, first + len)
   of the packed edge arrays, in the component's own numbering. *)
type packed = { n : int; first : int; len : int; ts : int list }

(* Decompose the pruned graph at its bridges. Bridge endpoints become
   mandatory terminals of their side (Lemma 5.1). Returns the bridge
   probability product (in edge order), the bridge count, the packed
   edge arrays and one packed subproblem per kept component that holds
   at least two mandatory terminals, in ascending order of its smallest
   vertex (component ids follow that order). A component's vertices
   are numbered in increasing input order, its edges keep input order,
   and its terminals are listed in increasing order. *)
let decompose g bt keep ~terminals =
  let n = Ugraph.n_vertices g and nc = bt.BT.n_comps in
  let comp = bt.BT.comp_of_vertex in
  let bridges = BT.kept_bridges bt keep in
  let must = Bytes.make n '\000' in
  List.iter (fun t -> Bytes.set must t '\001') terminals;
  let pb =
    Array.fold_left
      (fun pb eid ->
        let e = Ugraph.edge g eid in
        Bytes.set must e.u '\001';
        Bytes.set must e.v '\001';
        Xprob.mul pb (Xprob.of_float e.p))
      Xprob.one bridges
  in
  let local = Array.make n (-1) in
  let size = Array.make nc 0 and musts = Array.make nc 0 in
  for v = 0 to n - 1 do
    let c = comp.(v) in
    if keep.(c) then begin
      local.(v) <- size.(c);
      size.(c) <- size.(c) + 1;
      if Bytes.get must v <> '\000' then musts.(c) <- musts.(c) + 1
    end
  done;
  let sub c = keep.(c) && musts.(c) >= 2 in
  (* Group the edges inside subproblem components by component; an
     edge is inside one iff it is not a bridge. *)
  let inside (e : Ugraph.edge) =
    let c = comp.(e.u) in
    if c = comp.(e.v) && sub c then c else -1
  in
  let first = Array.make (nc + 1) 0 in
  Ugraph.iter_edges
    (fun _ e ->
      let c = inside e in
      if c >= 0 then first.(c + 1) <- first.(c + 1) + 1)
    g;
  for c = 0 to nc - 1 do
    first.(c + 1) <- first.(c + 1) + first.(c)
  done;
  let total = first.(nc) in
  let eu = Array.make total 0 and ev = Array.make total 0 in
  let ep = Array.make total 0. in
  let cursor = Array.sub first 0 nc in
  Ugraph.iter_edges
    (fun _ e ->
      let c = inside e in
      if c >= 0 then begin
        let i = cursor.(c) in
        eu.(i) <- local.(e.u);
        ev.(i) <- local.(e.v);
        ep.(i) <- e.p;
        cursor.(c) <- i + 1
      end)
    g;
  let ts = Array.make nc [] in
  for v = n - 1 downto 0 do
    let c = comp.(v) in
    if sub c && Bytes.get must v <> '\000' then ts.(c) <- local.(v) :: ts.(c)
  done;
  let subs = ref [] in
  for c = nc - 1 downto 0 do
    if sub c then
      subs :=
        { n = size.(c); first = first.(c); len = first.(c + 1) - first.(c); ts = ts.(c) }
        :: !subs
  done;
  (pb, Array.length bridges, (eu, ev, ep), !subs)

(* Whether the subproblem's terminals lie in one component. *)
let connected sp =
  let dsu = Dsu.create (Ugraph.n_vertices sp.graph) in
  Ugraph.iter_edges (fun _ (e : Ugraph.edge) -> ignore (Dsu.union dsu e.u e.v)) sp.graph;
  Dsu.all_connected dsu sp.terminals

(* Record the per-phase reduction account under "preprocess.". *)
let observe_stats o st =
  Obs.add o "original_vertices" st.original_vertices;
  Obs.add o "original_edges" st.original_edges;
  Obs.add o "pruned_vertices" st.pruned_vertices;
  Obs.add o "pruned_edges" st.pruned_edges;
  Obs.add o "bridges" st.n_bridges;
  Obs.add o "subproblems" st.n_subproblems;
  Obs.add o "final_edges" st.final_edges;
  Obs.add o "transform_rounds" st.transform_rounds;
  Obs.gauge o "reduction_ratio" (reduction_ratio st)

let run ?(obs = Obs.disabled) ?(trace = Trace.disabled) g ~terminals =
  Ugraph.validate_terminals g terminals;
  let o = Obs.sub obs "preprocess" in
  let t_pre = Trace.now trace in
  (* Every return path closes the covering "preprocess" span, so traces
     carry the outcome even when the pipeline resolves trivially. *)
  let finish outcome extra =
    Trace.complete trace ~ts:t_pre "preprocess"
      ~args:(("outcome", Trace.Str outcome) :: extra)
  in
  let trivial label x =
    Obs.text o "outcome" label;
    finish label [];
    Trivial x
  in
  if List.length terminals < 2 then trivial "trivial_one" Xprob.one
  else if List.exists (fun t -> Ugraph.degree g t = 0) terminals then
    trivial "trivial_zero" Xprob.zero
  else begin
    (* Allocation accounting covers the whole non-trivial pipeline: the
       trivial returns above never build intermediate graphs, so their
       GC deltas would only be noise. *)
    let emit =
      if Trace.enabled trace then
        Some (fun k v -> Trace.counter trace ("preprocess." ^ k) v)
      else None
    in
    Obs.gc_phase o ?emit "gc" @@ fun () ->
    let pruned =
      Trace.span trace "prune" @@ fun () ->
      Obs.time o "prune" @@ fun () -> prune g ~terminals
    in
    match pruned with
    | None -> trivial "trivial_zero" Xprob.zero
    | Some (bt, keep, pruned_vertices, pruned_edges) ->
      (* Decompose at the surviving bridges. *)
      let pb, n_bridges, (eu, ev, ep), raw_subs =
        Trace.span trace "decompose" @@ fun () ->
        Obs.time o "decompose" @@ fun () -> decompose g bt keep ~terminals
      in
      (* Transform each subproblem, reusing one set of work buffers. *)
      let rounds = ref 0 in
      let subproblems =
        Trace.span trace "transform" @@ fun () ->
        Obs.time o "transform" @@ fun () ->
        let s = Transform.scratch () in
        List.filter_map
          (fun r ->
            let tr =
              Transform.run_packed s ~n:r.n ~eu ~ev ~ep ~first:r.first ~len:r.len
                ~terminals:r.ts
            in
            rounds := !rounds + tr.Transform.rounds;
            if List.length tr.Transform.terminals < 2 then None
            else
              Some { graph = tr.Transform.graph; terminals = tr.Transform.terminals })
          raw_subs
      in
      (* A transform can only isolate a terminal if it was never
         connectable; the Steiner prune precludes that, but check. *)
      let zero = List.exists (fun sp -> not (connected sp)) subproblems in
      if zero then trivial "trivial_zero" Xprob.zero
      else begin
        let final_edges =
          List.fold_left (fun acc sp -> acc + Ugraph.n_edges sp.graph) 0 subproblems
        in
        let max_sub =
          List.fold_left (fun acc sp -> max acc (Ugraph.n_edges sp.graph)) 0 subproblems
        in
        let stats =
          {
            original_vertices = Ugraph.n_vertices g;
            original_edges = Ugraph.n_edges g;
            pruned_vertices;
            pruned_edges;
            n_bridges;
            n_subproblems = List.length subproblems;
            final_edges;
            max_subproblem_edges = max_sub;
            transform_rounds = !rounds;
          }
        in
        Obs.text o "outcome" "reduced";
        observe_stats o stats;
        finish "reduced"
          [
            ("subproblems", Trace.Int stats.n_subproblems);
            ("bridges", Trace.Int stats.n_bridges);
            ("final_edges", Trace.Int stats.final_edges);
          ];
        Reduced { pb; subproblems; stats }
      end
  end
