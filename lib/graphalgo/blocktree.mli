(** The bridge/block tree used by the paper's extension technique
    (Section 5, "Prune"): contract every 2-edge-connected component to a
    supernode; bridges become tree edges, so the contracted graph is a
    forest. The minimal Steiner subtree spanning the terminal-bearing
    supernodes identifies exactly the vertices and edges that can affect
    the network reliability. *)

type t = {
  comp_of_vertex : int array;
      (** 2ECC id of every original vertex, ids in increasing order of
          smallest member vertex *)
  n_comps : int;
  bridges : int array;  (** bridge edge ids, increasing *)
  bridge_comps : int array;
      (** [2b], [2b+1]: the supernodes of the endpoints of [bridges.(b)] *)
  forest_off : int array;
  forest_adj : int array;
      (** the forest in CSR form: the tree edges of supernode [c] are the
          bridge indices [forest_adj.(forest_off.(c) .. forest_off.(c+1) - 1)] *)
  terminal_count : int array;  (** per supernode, set by {!build} *)
}

val build : Ugraph.t -> terminals:int list -> t
(** Contract 2ECCs and record which supernodes host terminals. One
    {!Bridges.run} pass supplies both the bridges and the component
    labelling. *)

val steiner_keep : t -> bool array
(** [steiner_keep bt] marks the supernodes of the minimal subtree
    spanning all terminal-bearing supernodes: iteratively strips
    terminal-free leaves, then drops everything not in the terminal
    component.

    If the terminal supernodes lie in different trees of the forest, the
    terminals can never be connected; every supernode is then marked
    [false] — callers must detect this case via {!terminals_separated}
    before pruning. *)

val terminals_separated : t -> bool
(** [true] when terminal-bearing supernodes fall in two or more distinct
    trees of the forest (reliability is exactly zero). *)

val kept_vertices : t -> bool array -> bool array
(** Expand a supernode keep-mask back to original vertices. *)

val kept_bridges : t -> bool array -> int array
(** Bridge edge ids, increasing, whose both endpoints' supernodes are
    kept (the tree edges of the Steiner subtree). *)
