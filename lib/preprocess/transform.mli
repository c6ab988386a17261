(** The "Transform" phase of the paper's extension technique (Section 5):
    reliability-preserving local rewrites applied to fixpoint.

    - {e Loop}: a self-loop never affects connectivity; delete it.
    - {e Parallel edges}: replace edges [e, e'] between the same pair by
      one edge with [p = 1 - (1 - p(e)) * (1 - p(e'))].
    - {e Sequential edges}: a non-terminal vertex [v] of degree two with
      edges [(v, v'), (v, v'')] is replaced by the single edge
      [(v', v'')] with [p = p(e) * p(e')]; whole chains collapse in one
      round. A chain closing on itself (an ear) becomes a self-loop and
      dies the next round; a floating terminal-free cycle is deleted.
    - {e Dangling}: a non-terminal vertex of degree at most one cannot
      lie on any terminal–terminal path; delete it and its edge.

    Every rewrite preserves [R[G, T]] exactly (checked against brute
    force in the test suite). *)

type result = {
  graph : Ugraph.t;        (** transformed graph, vertices renumbered *)
  terminals : int list;    (** terminals in the new numbering *)
  old_of_new : int array;  (** original vertex id per new vertex id *)
  rounds : int;            (** fixpoint iterations performed *)
}

val run : Ugraph.t -> terminals:int list -> result
(** Apply all rewrites until none fires. Terminal vertices are always
    retained, even if the rewrites isolate them (which signals overall
    reliability zero to the caller).

    The rewrites run over packed int/float edge arrays: an
    open-addressing table over packed vertex pairs merges parallel
    edges, and a CSR adjacency drives the chain walks. Only the final
    edge set becomes a [Ugraph.t]. The output is a fixed function of the
    input edge order: parallel edges merge in first-occurrence order,
    every surviving edge is normalised to [(min, max)], and contracted
    chains precede the surviving edges. *)

type scratch
(** Work buffers for {!run_packed}, grown on demand and reused across
    rounds and across calls. Not safe to share between domains. *)

val scratch : unit -> scratch

val run_packed :
  scratch -> n:int -> eu:int array -> ev:int array -> ep:float array ->
  first:int -> len:int -> terminals:int list -> result
(** {!run} on the graph with [n] vertices whose edge [i] is
    [(eu.(first + i), ev.(first + i), ep.(first + i))], for [i] in
    [[0, len)]. Equal to {!run} on that graph. Edges and terminals are
    trusted: the caller has validated them. *)
