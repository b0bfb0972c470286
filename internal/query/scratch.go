package query

// scratch is all the per-call mutable state of the query phase: the
// G-representation paths, the glued search graph, BFS queues, the
// Dijkstra heap, the neighbor accumulation buffer. The compiled
// Engine itself is immutable, so one scratch per in-flight query (or
// skeleton pass) is the only mutable memory it touches; scratches are
// recycled through Engine.pool, making the steady state of a
// long-lived server allocation-light (TestNeighborsAllocationBudget
// pins the Neighbors/Locate paths).
//
// Search-graph nodes are int64 names: derived IDs in a query's path
// expansion, rule NodeIDs in a bottom-up skeleton pass. Maps are
// cleared on release rather than reallocated, so their buckets
// survive between queries; the adjacency value slices are rebuilt per
// query (they are the per-query graph itself).
type scratch struct {
	loc1, loc2 Location
	out        []int64

	// Min-plus search graph (Reachable, Distance, distance skeletons):
	// arcs, distances (BFS hop counts for Reachable), and the Dijkstra
	// heap of (node, tentative distance) entries.
	adj   map[int64][]arc
	dist  map[int64]int64
	heap  []arc
	queue []int64

	// NFA product search graph (RPQ skeletons, Matches).
	padj   map[pstate][]pstate
	pseen  map[pstate]bool
	pqueue []pstate
}

func newScratch() *scratch {
	return &scratch{
		adj:   map[int64][]arc{},
		dist:  map[int64]int64{},
		padj:  map[pstate][]pstate{},
		pseen: map[pstate]bool{},
	}
}

// getScratch takes a scratch from the pool (or makes one). Callers
// must release with putScratch on every path; the scratch must not be
// touched after release.
func (e *Engine) getScratch() *scratch {
	if s, ok := e.pool.Get().(*scratch); ok {
		return s
	}
	return newScratch()
}

// putScratch clears the scratch's per-query state and returns it to
// the pool. Clearing happens here, on release, so pooled scratches
// hold no references into finished queries (the adjacency slices
// become collectable immediately).
func (e *Engine) putScratch(s *scratch) {
	s.out = s.out[:0]
	s.heap = s.heap[:0]
	s.queue = s.queue[:0]
	s.pqueue = s.pqueue[:0]
	clear(s.adj)
	clear(s.dist)
	clear(s.padj)
	clear(s.pseen)
	e.pool.Put(s)
}
