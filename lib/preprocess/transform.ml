type result = {
  graph : Ugraph.t;
  terminals : int list;
  old_of_new : int array;
  rounds : int;
}

(* Work buffers, grown on demand and reused across rounds and across
   the subproblems of one pipeline run. The current edge list lives in
   [eu/ev/ep] (list order); stage 2 writes the merged list to
   [mu/mv/mp]; stage 3 writes the next list back to [eu/ev/ep]. *)
type scratch = {
  mutable eu : int array;
  mutable ev : int array;
  mutable ep : float array;
  mutable mu : int array;
  mutable mv : int array;
  mutable mp : float array;
  mutable table : int array;  (* open addressing: 1 + merged index, 0 = empty *)
  mutable adj : int array;    (* merged edge indices, descending per vertex *)
  mutable dead : Bytes.t;     (* per merged edge *)
  mutable off : int array;    (* n + 1 CSR offsets into [adj] *)
  mutable cursor : int array; (* per vertex: fill cursor, then stage-4 degree *)
  mutable terminal : Bytes.t;
  mutable visited : Bytes.t;
  acc : float array;          (* the two walks' probability products *)
}

let scratch () =
  { eu = [||]; ev = [||]; ep = [||]; mu = [||]; mv = [||]; mp = [||];
    table = [||]; adj = [||]; dead = Bytes.empty; off = [||]; cursor = [||];
    terminal = Bytes.empty; visited = Bytes.empty; acc = [| 0.; 0. |] }

let rec pow2_at_least x k = if k >= x then k else pow2_at_least x (2 * k)

let ensure s ~n ~m =
  if Array.length s.eu < m then begin
    s.eu <- Array.make m 0;
    s.ev <- Array.make m 0;
    s.ep <- Array.make m 0.;
    s.mu <- Array.make m 0;
    s.mv <- Array.make m 0;
    s.mp <- Array.make m 0.;
    s.adj <- Array.make (2 * m) 0;
    s.dead <- Bytes.create m
  end;
  let table = pow2_at_least (2 * m) 2 in
  if Array.length s.table < table then s.table <- Array.make table 0;
  if Array.length s.cursor < n then begin
    s.off <- Array.make (n + 1) 0;
    s.cursor <- Array.make n 0;
    s.terminal <- Bytes.create n;
    s.visited <- Bytes.create n
  end

let is_set b i = Bytes.unsafe_get b i <> '\000'

(* One fixpoint round over the [k] edges in [s.eu/ev/ep], vertices in
   [0, n). Leaves the next list in the same buffers and returns its
   length and whether anything fired. The rewrites within a round are
   staged — loops, then parallels, then chains, then dangling vertices —
   so each stage works on the previous stage's output; rewrites enabled
   by a later stage fire in the next round. *)
let round s n k =
  let eu = s.eu and ev = s.ev and ep = s.ep in
  let mu = s.mu and mv = s.mv and mp = s.mp in
  let changed = ref false in
  (* Stage 1: drop self-loops, in place. *)
  let k1 = ref 0 in
  for i = 0 to k - 1 do
    let u = eu.(i) and v = ev.(i) in
    if u = v then changed := true
    else begin
      eu.(!k1) <- u;
      ev.(!k1) <- v;
      ep.(!k1) <- ep.(i);
      incr k1
    end
  done;
  let k1 = !k1 in
  (* Stage 2: merge parallel edges; a single edge survives per vertex
     pair, normalised to (min, max), with failure probabilities
     multiplied. Survivors keep first-occurrence order, so the output
     depends on the input alone, never on the table layout. *)
  let size = pow2_at_least (2 * k1) 2 in
  let shift =
    let rec log2 x acc = if x <= 1 then acc else log2 (x lsr 1) (acc + 1) in
    63 - log2 size 0
  in
  let table = s.table in
  Array.fill table 0 size 0;
  let k2 = ref 0 in
  for i = 0 to k1 - 1 do
    let u = eu.(i) and v = ev.(i) in
    let a = if u < v then u else v and b = if u < v then v else u in
    let h = ref ((((a lsl 31) lor b) * 0x1E3779B97F4A7C15) lsr shift) in
    while
      let j = table.(!h) in
      j <> 0 && (mu.(j - 1) <> a || mv.(j - 1) <> b)
    do
      h := (!h + 1) land (size - 1)
    done;
    let j = table.(!h) in
    if j = 0 then begin
      table.(!h) <- !k2 + 1;
      mu.(!k2) <- a;
      mv.(!k2) <- b;
      mp.(!k2) <- 1. -. ep.(i);
      incr k2
    end
    else begin
      changed := true;
      mp.(j - 1) <- mp.(j - 1) *. (1. -. ep.(i))
    end
  done;
  let k2 = !k2 in
  for j = 0 to k2 - 1 do
    mp.(j) <- 1. -. mp.(j)
  done;
  (* Stage 3: contract chains through degree-2 non-terminal vertices.
     Each vertex's adjacency lists its merged edges in descending
     index order. *)
  let off = s.off and cursor = s.cursor and adj = s.adj in
  Array.fill off 0 (n + 1) 0;
  for j = 0 to k2 - 1 do
    off.(mu.(j) + 1) <- off.(mu.(j) + 1) + 1;
    off.(mv.(j) + 1) <- off.(mv.(j) + 1) + 1
  done;
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v + 1) + off.(v);
    cursor.(v) <- off.(v)
  done;
  for j = k2 - 1 downto 0 do
    let u = mu.(j) and v = mv.(j) in
    adj.(cursor.(u)) <- j;
    cursor.(u) <- cursor.(u) + 1;
    adj.(cursor.(v)) <- j;
    cursor.(v) <- cursor.(v) + 1
  done;
  let dead = s.dead and visited = s.visited and terminal = s.terminal in
  Bytes.fill dead 0 k2 '\000';
  Bytes.fill visited 0 n '\000';
  let eligible v = off.(v + 1) - off.(v) = 2 && not (is_set terminal v) in
  (* Walk away from [start] through edge [e0] until a non-eligible
     vertex (returned, with the product of the walked probabilities in
     [s.acc.(slot)]) or back to [start] (-1: a closed cycle of eligible
     vertices). Marks traversed edges dead and interior vertices
     visited. *)
  let walk start e0 slot =
    let e = ref e0 and w = ref (mu.(e0) + mv.(e0) - start) in
    let p_acc = ref 1.0 and stop = ref (-2) in
    while !stop = -2 do
      Bytes.unsafe_set dead !e '\001';
      p_acc := !p_acc *. mp.(!e);
      let wv = !w in
      if wv = start then stop := -1
      else if eligible wv then begin
        Bytes.unsafe_set visited wv '\001';
        let next = ref (-1) in
        for i = off.(wv + 1) - 1 downto off.(wv) do
          if not (is_set dead adj.(i)) then next := adj.(i)
        done;
        if !next < 0 then stop := wv (* parallel stub: treat as chain end *)
        else begin
          e := !next;
          w := mu.(!next) + mv.(!next) - wv
        end
      end
      else stop := wv
    done;
    s.acc.(slot) <- !p_acc;
    !stop
  in
  (* Replacement edges are generated into the front of [eu/ev/ep] and
     then reversed: they precede the surviving edges, newest first. *)
  let x = ref 0 in
  for v = 0 to n - 1 do
    if eligible v && not (is_set visited v) then begin
      Bytes.unsafe_set visited v '\001';
      changed := true;
      let e1 = adj.(off.(v)) and e2 = adj.(off.(v) + 1) in
      let a = walk v e1 0 in
      if a >= 0 then begin
        let b = walk v e2 1 in
        (* The first walk consumed one of v's edges, so the second
           cannot close a cycle. *)
        assert (b >= 0);
        (* The chain a -...- v -...- b becomes one edge; a = b gives an
           ear, i.e. a self-loop removed next round. *)
        eu.(!x) <- a;
        ev.(!x) <- b;
        ep.(!x) <- s.acc.(0) *. s.acc.(1);
        incr x
      end
    end
  done;
  let x = !x in
  for i = 0 to (x / 2) - 1 do
    let j = x - 1 - i in
    let u = eu.(i) and v = ev.(i) and p = ep.(i) in
    eu.(i) <- eu.(j);
    ev.(i) <- ev.(j);
    ep.(i) <- ep.(j);
    eu.(j) <- u;
    ev.(j) <- v;
    ep.(j) <- p
  done;
  let k3 = ref x in
  for j = 0 to k2 - 1 do
    if not (is_set dead j) then begin
      eu.(!k3) <- mu.(j);
      ev.(!k3) <- mv.(j);
      ep.(!k3) <- mp.(j);
      incr k3
    end
  done;
  let k3 = !k3 in
  (* Stage 4: drop edges incident to dangling non-terminals, in place.
     A self-loop counts twice towards its vertex's degree. *)
  let deg = cursor in
  Array.fill deg 0 n 0;
  for i = 0 to k3 - 1 do
    deg.(eu.(i)) <- deg.(eu.(i)) + 1;
    deg.(ev.(i)) <- deg.(ev.(i)) + 1
  done;
  let dangling v = (not (is_set terminal v)) && deg.(v) <= 1 in
  let k4 = ref 0 in
  for i = 0 to k3 - 1 do
    let u = eu.(i) and v = ev.(i) in
    if u <> v && (dangling u || dangling v) then changed := true
    else begin
      eu.(!k4) <- u;
      ev.(!k4) <- v;
      ep.(!k4) <- ep.(i);
      incr k4
    end
  done;
  (!k4, !changed)

(* Load the edges in reverse order (the order the rewrites start
   from), rewrite to fixpoint, then compact: keep terminals and any
   vertex still carrying an edge. The graph lists the final edges in
   reverse list order. *)
let run_packed s ~n ~eu ~ev ~ep ~first ~len ~terminals =
  ensure s ~n ~m:len;
  for i = 0 to len - 1 do
    let j = first + len - 1 - i in
    s.eu.(i) <- eu.(j);
    s.ev.(i) <- ev.(j);
    s.ep.(i) <- ep.(j)
  done;
  Bytes.fill s.terminal 0 n '\000';
  List.iter (fun t -> Bytes.set s.terminal t '\001') terminals;
  let rec fixpoint k rounds =
    let k', changed = round s n k in
    if changed then fixpoint k' (rounds + 1) else (k', rounds)
  in
  let k, rounds = fixpoint len 0 in
  let new_of_old = Array.make n (-1) in
  List.iter (fun t -> new_of_old.(t) <- 0) terminals;
  for i = 0 to k - 1 do
    new_of_old.(s.eu.(i)) <- 0;
    new_of_old.(s.ev.(i)) <- 0
  done;
  let n' = ref 0 in
  for v = 0 to n - 1 do
    if new_of_old.(v) = 0 then begin
      new_of_old.(v) <- !n';
      incr n'
    end
  done;
  let old_of_new = Array.make !n' 0 in
  Array.iteri (fun old nw -> if nw >= 0 then old_of_new.(nw) <- old) new_of_old;
  let eu = s.eu and ev = s.ev and ep = s.ep in
  let graph =
    Ugraph.init ~n:!n' k (fun i ->
        let j = k - 1 - i in
        { Ugraph.u = new_of_old.(eu.(j)); v = new_of_old.(ev.(j)); p = ep.(j) })
  in
  let terminals = List.map (fun t -> new_of_old.(t)) terminals in
  { graph; terminals; old_of_new; rounds }

let run g ~terminals =
  Ugraph.validate_terminals g terminals;
  let m = Ugraph.n_edges g in
  let field f = Array.init m (fun i -> f (Ugraph.edge g i)) in
  run_packed (scratch ()) ~n:(Ugraph.n_vertices g)
    ~eu:(field (fun e -> e.Ugraph.u)) ~ev:(field (fun e -> e.Ugraph.v))
    ~ep:(field (fun e -> e.Ugraph.p)) ~first:0 ~len:m ~terminals
