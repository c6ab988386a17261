type result = {
  is_bridge : bool array;
  is_articulation : bool array;
  comp : int array;
  n_comps : int;
}

(* Iterative Tarjan low-link DFS. The explicit stack stores, per frame:
   the vertex, the edge id used to enter it (-1 at a root), and a cursor
   into its incidence list. Low-link propagation to the parent happens at
   frame pop.

   Every bridge is a DFS tree edge, and the 2-edge-connected components
   are the pieces of the DFS forest cut at its bridges. So [top] records,
   at pop, the vertex's tree parent when the entering edge is not a
   bridge, and the vertex itself when it is (or when it is a root);
   resolving these links in discovery order, where a parent precedes its
   children, maps every vertex to the topmost vertex of its piece. *)
let run g =
  let n = Ugraph.n_vertices g and m = Ugraph.n_edges g in
  let disc = Array.make n (-1) in
  let low = Array.make n max_int in
  let is_bridge = Array.make m false in
  let is_articulation = Array.make n false in
  let top = Array.init n Fun.id in
  let time = ref 0 in
  (* Frame stacks; a DFS path never exceeds n frames. *)
  let st_v = Array.make (n + 1) 0 in
  let st_eid = Array.make (n + 1) (-1) in
  let st_idx = Array.make (n + 1) 0 in
  for root = 0 to n - 1 do
    if disc.(root) < 0 then begin
      let root_children = ref 0 in
      let sp = ref 0 in
      let push v eid =
        st_v.(!sp) <- v;
        st_eid.(!sp) <- eid;
        st_idx.(!sp) <- 0;
        incr sp;
        disc.(v) <- !time;
        low.(v) <- !time;
        incr time
      in
      push root (-1);
      while !sp > 0 do
        let fr = !sp - 1 in
        let v = st_v.(fr) in
        if st_idx.(fr) < Ugraph.degree g v then begin
          let i = st_idx.(fr) in
          st_idx.(fr) <- i + 1;
          let eid = Ugraph.incident_eid g v i and w = Ugraph.incident_nbr g v i in
          if eid <> st_eid.(fr) && w <> v then begin
            if disc.(w) < 0 then begin
              if v = root then incr root_children;
              push w eid
            end
            else if disc.(w) < low.(v) then low.(v) <- disc.(w)
          end
        end
        else begin
          (* Pop and propagate to the parent frame, if any. *)
          decr sp;
          if !sp > 0 then begin
            let u = st_v.(!sp - 1) in
            if low.(v) < low.(u) then low.(u) <- low.(v);
            if low.(v) > disc.(u) then is_bridge.(st_eid.(fr)) <- true
            else top.(v) <- u;
            if u <> root && low.(v) >= disc.(u) then is_articulation.(u) <- true
          end
        end
      done;
      if !root_children >= 2 then is_articulation.(root) <- true
    end
  done;
  (* [st_v] becomes the discovery order; component ids then follow the
     smallest member vertex. *)
  Array.iteri (fun v d -> st_v.(d) <- v) disc;
  for d = 0 to n - 1 do
    let v = st_v.(d) in
    top.(v) <- top.(top.(v))
  done;
  let id = Array.make n (-1) and comp = Array.make n 0 in
  let n_comps = ref 0 in
  for v = 0 to n - 1 do
    let t = top.(v) in
    if id.(t) < 0 then begin
      id.(t) <- !n_comps;
      incr n_comps
    end;
    comp.(v) <- id.(t)
  done;
  { is_bridge; is_articulation; comp; n_comps = !n_comps }

let bridges g = (run g).is_bridge
let articulation_points g = (run g).is_articulation

let bridge_eids g =
  let b = bridges g in
  let acc = ref [] in
  for i = Array.length b - 1 downto 0 do
    if b.(i) then acc := i :: !acc
  done;
  !acc

let two_edge_components g =
  let r = run g in
  (r.comp, r.n_comps)

let naive_bridges g =
  let m = Ugraph.n_edges g in
  let out = Array.make m false in
  let present = Array.make m true in
  for eid = 0 to m - 1 do
    let e = Ugraph.edge g eid in
    if e.Ugraph.u <> e.Ugraph.v then begin
      present.(eid) <- false;
      out.(eid) <-
        not (Connectivity.terminals_connected g ~present [ e.Ugraph.u; e.Ugraph.v ]);
      present.(eid) <- true
    end
  done;
  out
