package query

import (
	"context"
	"fmt"

	"graphrepair/internal/hypergraph"
)

// part is one graph glued into a search graph: a right-hand side in a
// bottom-up skeleton pass (loc == nil: nodes are named by their rule
// NodeID), or one instance of a query's path expansion (nodes are
// named by derived ID, so the external nodes an instance shares with
// its parent get the parent's name for free). skip holds the
// instance's nonterminal edges that are expanded as child instances
// and so contribute no skeleton arcs.
type part struct {
	h     *hypergraph.Graph
	loc   *Location
	level int
	skip  [2]hypergraph.EdgeID
}

// name returns the search-graph name of node v of p.
func (e *Engine) name(p *part, v hypergraph.NodeID) int64 {
	if p.loc == nil {
		return int64(v)
	}
	return e.resolveUp(p.loc, p.level, v)
}

// expanded reports whether nonterminal edge id of p is expanded as a
// child instance.
func (p *part) expanded(id hypergraph.EdgeID) bool {
	return id == p.skip[0] || id == p.skip[1]
}

// rulePart is a right-hand side in a bottom-up skeleton pass.
func rulePart(h *hypergraph.Graph) part {
	return part{h: h, skip: [2]hypergraph.EdgeID{hypergraph.NoEdge, hypergraph.NoEdge}}
}

// expandPaths glues the right-hand sides along the G-representations
// l1 and l2 (Thm. 6): it calls emit for every level of l1, then for
// the levels of l2 below their common path prefix (the levels down to
// the prefix are l1's instances too, emitted once). Each instance
// skips the on-path edge of each location leaving it — at most two
// edges, and only shared instances have two.
func (e *Engine) expandPaths(l1, l2 *Location, emit func(*part)) {
	cp := 0
	for cp < len(l1.Path) && cp < len(l2.Path) && l1.Path[cp] == l2.Path[cp] {
		cp++
	}
	onPath := func(l *Location, i int) hypergraph.EdgeID {
		if i < len(l.Path) {
			return l.Path[i]
		}
		return hypergraph.NoEdge
	}
	for i, h := range l1.Graphs {
		p := part{h: h, loc: l1, level: i, skip: [2]hypergraph.EdgeID{onPath(l1, i), hypergraph.NoEdge}}
		if i <= cp {
			p.skip[1] = onPath(l2, i)
		}
		emit(&p)
	}
	for i := cp + 1; i < len(l2.Graphs); i++ {
		emit(&part{h: l2.Graphs[i], loc: l2, level: i, skip: [2]hypergraph.EdgeID{onPath(l2, i), hypergraph.NoEdge}})
	}
}

// Reachable reports whether derived node v is reachable from derived
// node u in val(G), evaluated in O(|G|) on the grammar (Thm. 6): the
// right-hand sides along both G-representations are glued into one
// "path-expanded" graph (with skeletons standing in for unexpanded
// subtrees, and instances shared along the common prefix), and a
// single BFS answers the query. This also covers the case where both
// nodes lie in the same derivation subtree. The reachability skeleton
// is the finite part of the min-plus one (see distSkeletons).
func (e *Engine) Reachable(u, v int64) (bool, error) {
	return e.ReachableContext(context.Background(), u, v)
}

// ReachableContext is Reachable with cooperative cancellation: ctx is
// polled during the skeleton precomputation and at BFS frontier
// expansions, so a per-query deadline bounds even adversarial
// grammars whose path expansions are large.
func (e *Engine) ReachableContext(ctx context.Context, u, v int64) (bool, error) {
	if u == v {
		return true, nil
	}
	key := cacheKey{op: opReach, a: u, b: v}
	if e.cache != nil {
		if cv, ok := e.cache.get(key); ok {
			return cv.ok, nil
		}
	}
	s := e.getScratch()
	defer e.putScratch(s)
	if err := e.glueMinPlus(ctx, s, u, v); err != nil {
		return false, err
	}
	tk := ticker{ctx: ctx}
	found, err := s.reach(&tk, u, v)
	if err != nil {
		return false, err
	}
	if e.cache != nil {
		e.cache.put(key, cacheVal{ok: found})
	}
	return found, nil
}

// reach reports whether dst is reachable from src over s.adj (arc
// weights ignored), by BFS; s.dist records hop counts.
func (s *scratch) reach(tk *ticker, src, dst int64) (bool, error) {
	s.dist[src] = 0
	s.queue = append(s.queue[:0], src)
	for head := 0; head < len(s.queue); head++ {
		if err := tk.check("query: reachable"); err != nil {
			return false, err
		}
		x := s.queue[head]
		if x == dst {
			return true, nil
		}
		for _, a := range s.adj[x] {
			if _, ok := s.dist[a.to]; !ok {
				s.dist[a.to] = s.dist[x] + 1
				s.queue = append(s.queue, a.to)
			}
		}
	}
	return false, nil
}

// ComponentCount returns the number of weakly connected components of
// val(G), computed in one bottom-up pass (a "compatible"/CMSO-style
// speed-up query, Sec. V): every nonterminal contributes the partition
// its derivation induces on its attachment nodes plus the count of
// derived components that touch no external node. The pass runs once
// per engine; subsequent calls return the memoized count.
func (e *Engine) ComponentCount() int64 {
	c, _ := e.comp.get(func() (int64, error) {
		return e.componentCount(), nil
	})
	return c
}

func (e *Engine) componentCount() int64 {
	type info struct {
		part     []int // partition: ext position → group id
		enclosed int64 // components with no external node, incl. nested
	}
	infos := make(map[hypergraph.Label]info, e.g.NumRules())

	analyze := func(h *hypergraph.Graph, get func(hypergraph.Label) info) (map[hypergraph.NodeID]hypergraph.NodeID, int64) {
		parent := make(map[hypergraph.NodeID]hypergraph.NodeID, h.NumNodes())
		var find func(hypergraph.NodeID) hypergraph.NodeID
		find = func(x hypergraph.NodeID) hypergraph.NodeID {
			for parent[x] != x {
				parent[x] = parent[parent[x]]
				x = parent[x]
			}
			return x
		}
		union := func(a, b hypergraph.NodeID) {
			ra, rb := find(a), find(b)
			if ra != rb {
				parent[ra] = rb
			}
		}
		for _, v := range h.Nodes() {
			parent[v] = v
		}
		var nested int64
		for id := range h.EdgesSeq() {
			ed := h.Edge(id)
			att := h.Att(id)
			if e.g.IsTerminal(ed.Label) {
				union(att[0], att[1])
				continue
			}
			in := get(ed.Label)
			nested += in.enclosed
			// Union attachment nodes in the same partition group.
			first := map[int]hypergraph.NodeID{}
			for pos, g := range in.part {
				if f, ok := first[g]; ok {
					union(f, att[pos])
				} else {
					first[g] = att[pos]
				}
			}
		}
		roots := make(map[hypergraph.NodeID]hypergraph.NodeID, h.NumNodes())
		for _, v := range h.Nodes() {
			roots[v] = find(v)
		}
		return roots, nested
	}

	for _, nt := range e.bottomUp {
		rhs := e.g.Rule(nt)
		roots, nested := analyze(rhs, func(l hypergraph.Label) info { return infos[l] })
		// Partition of ext positions; count root classes without ext.
		groupOf := map[hypergraph.NodeID]int{}
		part := make([]int, rhs.Rank())
		for i, x := range rhs.Ext() {
			r := roots[x]
			g, ok := groupOf[r]
			if !ok {
				g = len(groupOf)
				groupOf[r] = g
			}
			part[i] = g
		}
		var enclosed int64
		seen := map[hypergraph.NodeID]bool{}
		for _, v := range rhs.Nodes() {
			r := roots[v]
			if seen[r] {
				continue
			}
			seen[r] = true
			if _, hasExt := groupOf[r]; !hasExt {
				enclosed++
			}
		}
		infos[nt] = info{part: part, enclosed: enclosed + nested}
	}

	roots, nested := analyze(e.g.Start, func(l hypergraph.Label) info { return infos[l] })
	seen := map[hypergraph.NodeID]bool{}
	var top int64
	for _, r := range roots {
		if !seen[r] {
			seen[r] = true
			top++
		}
	}
	return top + nested
}

// DegreeStats returns the minimum and maximum degree over all nodes of
// val(G) in the given direction, in one bottom-up pass (a CMSO-style
// function query the paper lists as evaluable on the grammar). It
// returns (0, 0) for a graph with no nodes. Each direction's pass
// runs once per engine; subsequent calls return the memoized pair.
func (e *Engine) DegreeStats(dir Direction) (min, max int64, err error) {
	if e.total == 0 {
		return 0, 0, nil
	}
	mm, err := e.deg[dir].get(func() ([2]int64, error) {
		return e.degreeStats(dir)
	})
	if err != nil {
		return 0, 0, err
	}
	return mm[0], mm[1], nil
}

func (e *Engine) degreeStats(dir Direction) ([2]int64, error) {
	var min, max int64
	type info struct {
		extDeg   []int64 // degree contribution per attachment position
		min, max int64   // over derived internal nodes
		hasInt   bool
	}
	infos := make(map[hypergraph.Label]info, e.g.NumRules())

	contrib := func(h *hypergraph.Graph) (map[hypergraph.NodeID]int64, int64, int64, bool) {
		deg := make(map[hypergraph.NodeID]int64, h.NumNodes())
		for _, v := range h.Nodes() {
			deg[v] = 0
		}
		var nmin, nmax int64
		nested := false
		for id := range h.EdgesSeq() {
			ed := h.Edge(id)
			att := h.Att(id)
			if e.g.IsTerminal(ed.Label) {
				switch dir {
				case Out:
					deg[att[0]]++
				case In:
					deg[att[1]]++
				case Both:
					deg[att[0]]++
					deg[att[1]]++
				}
				continue
			}
			in := infos[ed.Label]
			for pos, d := range in.extDeg {
				deg[att[pos]] += d
			}
			if in.hasInt {
				if !nested || in.min < nmin {
					nmin = in.min
				}
				if !nested || in.max > nmax {
					nmax = in.max
				}
				nested = true
			}
		}
		return deg, nmin, nmax, nested
	}

	for _, nt := range e.bottomUp {
		rhs := e.g.Rule(nt)
		deg, nmin, nmax, nested := contrib(rhs)
		in := info{extDeg: make([]int64, rhs.Rank()), min: nmin, max: nmax, hasInt: nested}
		for i, x := range rhs.Ext() {
			in.extDeg[i] = deg[x]
		}
		for _, v := range rhs.Nodes() {
			if rhs.IsExternal(v) {
				continue
			}
			if !in.hasInt || deg[v] < in.min {
				in.min = deg[v]
			}
			if !in.hasInt || deg[v] > in.max {
				in.max = deg[v]
			}
			in.hasInt = true
		}
		infos[nt] = in
	}

	deg, nmin, nmax, nested := contrib(e.g.Start)
	first := true
	for _, v := range e.g.Start.Nodes() {
		d := deg[v]
		if first || d < min {
			min = d
		}
		if first || d > max {
			max = d
		}
		first = false
	}
	if nested {
		if first || nmin < min {
			min = nmin
		}
		if first || nmax > max {
			max = nmax
		}
		first = false
	}
	if first {
		return [2]int64{}, fmt.Errorf("query: DegreeStats on empty graph")
	}
	return [2]int64{min, max}, nil
}
