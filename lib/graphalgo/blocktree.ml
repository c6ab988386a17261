type t = {
  comp_of_vertex : int array;
  n_comps : int;
  bridges : int array;
  bridge_comps : int array;
  forest_off : int array;
  forest_adj : int array;
  terminal_count : int array;
}

let build g ~terminals =
  Ugraph.validate_terminals g terminals;
  let { Bridges.is_bridge; comp = comp_of_vertex; n_comps; _ } = Bridges.run g in
  let n_bridges = Array.fold_left (fun c b -> if b then c + 1 else c) 0 is_bridge in
  let bridges = Array.make n_bridges 0 in
  let bridge_comps = Array.make (2 * n_bridges) 0 in
  let forest_off = Array.make (n_comps + 1) 0 in
  let b = ref 0 in
  Array.iteri
    (fun eid is_b ->
      if is_b then begin
        let e = Ugraph.edge g eid in
        let cu = comp_of_vertex.(e.Ugraph.u) and cv = comp_of_vertex.(e.Ugraph.v) in
        bridges.(!b) <- eid;
        bridge_comps.(2 * !b) <- cu;
        bridge_comps.((2 * !b) + 1) <- cv;
        forest_off.(cu + 1) <- forest_off.(cu + 1) + 1;
        forest_off.(cv + 1) <- forest_off.(cv + 1) + 1;
        incr b
      end)
    is_bridge;
  for c = 0 to n_comps - 1 do
    forest_off.(c + 1) <- forest_off.(c + 1) + forest_off.(c)
  done;
  let forest_adj = Array.make (2 * n_bridges) 0 in
  let cursor = Array.sub forest_off 0 n_comps in
  for b = 0 to n_bridges - 1 do
    let put c =
      forest_adj.(cursor.(c)) <- b;
      cursor.(c) <- cursor.(c) + 1
    in
    put bridge_comps.(2 * b);
    put bridge_comps.((2 * b) + 1)
  done;
  let terminal_count = Array.make n_comps 0 in
  List.iter
    (fun t ->
      let c = comp_of_vertex.(t) in
      terminal_count.(c) <- terminal_count.(c) + 1)
    terminals;
  { comp_of_vertex; n_comps; bridges; bridge_comps; forest_off; forest_adj;
    terminal_count }

let across bt b c = bt.bridge_comps.(2 * b) + bt.bridge_comps.((2 * b) + 1) - c

(* The tree of the forest holding the first terminal-bearing supernode,
   as a mask, and whether some terminal-bearing supernode lies outside
   it. *)
let terminal_tree bt =
  let in_tree = Array.make bt.n_comps false in
  let stack = Array.make (max bt.n_comps 1) 0 in
  let first = ref (-1) in
  Array.iteri (fun c k -> if k > 0 && !first < 0 then first := c) bt.terminal_count;
  if !first >= 0 then begin
    in_tree.(!first) <- true;
    stack.(0) <- !first;
    let sp = ref 1 in
    while !sp > 0 do
      decr sp;
      let c = stack.(!sp) in
      for i = bt.forest_off.(c) to bt.forest_off.(c + 1) - 1 do
        let c' = across bt bt.forest_adj.(i) c in
        if not in_tree.(c') then begin
          in_tree.(c') <- true;
          stack.(!sp) <- c';
          incr sp
        end
      done
    done
  end;
  let separated = ref false in
  Array.iteri
    (fun c k -> if k > 0 && not in_tree.(c) then separated := true)
    bt.terminal_count;
  (in_tree, !separated)

let terminals_separated bt = snd (terminal_tree bt)

let steiner_keep bt =
  let keep, separated = terminal_tree bt in
  if separated then Array.make bt.n_comps false
  else begin
    (* Iteratively strip terminal-free leaves of the kept tree. Every
       neighbour of a tree node is in the tree, so its live degree
       starts at its forest degree. A supernode is pushed at most once
       initially and once per lost neighbour. *)
    let live = Array.init bt.n_comps (fun c -> bt.forest_off.(c + 1) - bt.forest_off.(c)) in
    let strippable c = keep.(c) && live.(c) <= 1 && bt.terminal_count.(c) = 0 in
    let stack = Array.make (bt.n_comps + Array.length bt.forest_adj) 0 in
    let sp = ref 0 in
    let push c =
      stack.(!sp) <- c;
      incr sp
    in
    for c = 0 to bt.n_comps - 1 do
      if strippable c then push c
    done;
    while !sp > 0 do
      decr sp;
      let c = stack.(!sp) in
      if strippable c then begin
        keep.(c) <- false;
        for i = bt.forest_off.(c) to bt.forest_off.(c + 1) - 1 do
          let c' = across bt bt.forest_adj.(i) c in
          if keep.(c') then begin
            live.(c') <- live.(c') - 1;
            if strippable c' then push c'
          end
        done
      end
    done;
    keep
  end

let kept_vertices bt keep =
  Array.map (fun c -> keep.(c)) bt.comp_of_vertex

let kept_bridges bt keep =
  let kept b = keep.(bt.bridge_comps.(2 * b)) && keep.(bt.bridge_comps.((2 * b) + 1)) in
  let count = ref 0 in
  Array.iteri (fun b _ -> if kept b then incr count) bt.bridges;
  let out = Array.make !count 0 in
  let j = ref 0 in
  Array.iteri
    (fun b eid ->
      if kept b then begin
        out.(!j) <- eid;
        incr j
      end)
    bt.bridges;
  out
