package query

import (
	"context"
	"math"

	"graphrepair/internal/govern"
	"graphrepair/internal/hypergraph"
)

// Distances generalize the paper's reachability skeletons (Thm. 6) to
// the min-plus semiring: dsk(A)[i][j] is the length of a shortest
// directed path from external node i to external node j inside
// val(A), or noPath if none exists. Shortest-path distance is a
// "compatible" function in the sense of Sec. V (Courcelle–Mosbah
// evaluations), so it admits the same one-pass bottom-up treatment.
// Reachability is the finite part of this skeleton: entry (i, j),
// i ≠ j, is finite iff external node j is reachable from i.

// Unreachable is returned by Distance when no directed path exists.
const Unreachable = int64(-1)

// noPath is the min-plus "infinity". The engine refuses grammars with
// MaxInt64 or more derived nodes (see NewWithOptions), so every real
// distance is below it, and relaxations saturate into it.
const noPath = int64(math.MaxInt64)

// arc is a weighted arc of a search graph; the Dijkstra heap reuses it
// as a (node, tentative distance) entry.
type arc struct {
	to, w int64
}

// distSkeletons returns the min-plus skeletons, rule-indexed,
// computing them bottom-up on first use (eagerly under
// EngineOptions.Precompute). The pass polls ctx between rules; a
// canceled build is not memoized, so the next query retries.
func (e *Engine) distSkeletons(ctx context.Context) ([][][]int64, error) {
	return e.dskel.get(func() ([][][]int64, error) {
		dskel := make([][][]int64, len(e.rules))
		s := e.getScratch()
		defer e.putScratch(s)
		tk := ticker{ctx: ctx}
		var rhsTk ticker // rules are small: poll between them only
		for _, nt := range e.bottomUp {
			if err := tk.check("query: distance skeletons"); err != nil {
				return nil, err
			}
			rhs := e.rule(nt).rhs
			clear(s.adj)
			p := rulePart(rhs)
			e.minPlusArcs(s.adj, &p, dskel)
			ext := rhs.Ext()
			sk := make([][]int64, len(ext))
			for i, src := range ext {
				clear(s.dist)
				_, _ = s.shortest(&rhsTk, int64(src), 0) // 0 names no node; a zero ticker never fails
				sk[i] = make([]int64, len(ext))
				for j, dst := range ext {
					sk[i][j] = s.distTo(int64(dst))
				}
			}
			dskel[e.ruleIdx(nt)] = sk
		}
		return dskel, nil
	})
}

// minPlusArcs adds the weighted arcs of p to adj: weight 1 per
// terminal edge, and every finite off-diagonal skeleton entry of each
// nonterminal edge not expanded as a child instance (dskel may still
// be under construction during the bottom-up pass).
func (e *Engine) minPlusArcs(adj map[int64][]arc, p *part, dskel [][][]int64) {
	for id := range p.h.EdgesSeq() {
		lab, att := p.h.Label(id), p.h.Att(id)
		if e.g.IsTerminal(lab) {
			a := e.name(p, att[0])
			adj[a] = append(adj[a], arc{e.name(p, att[1]), 1})
			continue
		}
		if p.expanded(id) {
			continue
		}
		for i, row := range dskel[e.ruleIdx(lab)] {
			for j, d := range row {
				if i != j && d != noPath {
					a := e.name(p, att[i])
					adj[a] = append(adj[a], arc{e.name(p, att[j]), d})
				}
			}
		}
	}
}

// glueMinPlus locates derived nodes u and v and builds their
// path-expanded min-plus graph in s.adj, nodes named by derived ID.
func (e *Engine) glueMinPlus(ctx context.Context, s *scratch, u, v int64) error {
	if err := e.locateInto(&s.loc1, u); err != nil {
		return err
	}
	if err := e.locateInto(&s.loc2, v); err != nil {
		return err
	}
	dskel, err := e.distSkeletons(ctx)
	if err != nil {
		return err
	}
	e.expandPaths(&s.loc1, &s.loc2, func(p *part) { e.minPlusArcs(s.adj, p, dskel) })
	return nil
}

// distTo returns the distance s.dist holds for n, or noPath.
func (s *scratch) distTo(n int64) int64 {
	if d, ok := s.dist[n]; ok {
		return d
	}
	return noPath
}

// shortest runs Dijkstra from src over s.adj with a binary heap,
// stopping once dst is settled, and returns dst's distance or noPath.
// When dst is never reached, s.dist ends up exact for every node.
func (s *scratch) shortest(tk *ticker, src, dst int64) (int64, error) {
	s.dist[src] = 0
	s.heap = append(s.heap[:0], arc{src, 0})
	for len(s.heap) > 0 {
		if err := tk.check("query: distance"); err != nil {
			return 0, err
		}
		x := s.pop()
		if x.w > s.dist[x.to] {
			continue // stale entry
		}
		if x.to == dst {
			return x.w, nil
		}
		for _, a := range s.adj[x.to] {
			if d := govern.SatAdd(x.w, a.w); d < s.distTo(a.to) {
				s.dist[a.to] = d
				s.push(arc{a.to, d})
			}
		}
	}
	return noPath, nil
}

// push adds x to the min-heap on w.
func (s *scratch) push(x arc) {
	h := append(s.heap, x)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].w <= h[i].w {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	s.heap = h
}

// pop removes and returns the heap's minimum.
func (s *scratch) pop() arc {
	h := s.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].w < h[c].w {
			c++
		}
		if h[i].w <= h[c].w {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	s.heap = h
	return top
}

// Distance returns the length of a shortest directed path from derived
// node u to derived node v in val(G), or Unreachable. Like Reachable
// it works on the path-expanded graph with (min-plus) skeletons
// summarizing unexpanded subtrees, in O(|G|·rank²) plus the expansion.
func (e *Engine) Distance(u, v int64) (int64, error) {
	return e.DistanceContext(context.Background(), u, v)
}

// DistanceContext is Distance with cooperative cancellation: ctx is
// polled during the min-plus skeleton precomputation and at Dijkstra
// frontier extractions.
func (e *Engine) DistanceContext(ctx context.Context, u, v int64) (int64, error) {
	if u == v {
		return 0, nil
	}
	key := cacheKey{op: opDist, a: u, b: v}
	if e.cache != nil {
		if cv, ok := e.cache.get(key); ok {
			return cv.n, nil
		}
	}
	s := e.getScratch()
	defer e.putScratch(s)
	if err := e.glueMinPlus(ctx, s, u, v); err != nil {
		return 0, err
	}
	tk := ticker{ctx: ctx}
	d, err := s.shortest(&tk, u, v)
	if err != nil {
		return 0, err
	}
	result := Unreachable
	if d != noPath {
		result = d
	}
	if e.cache != nil {
		e.cache.put(key, cacheVal{n: result})
	}
	return result, nil
}

// Diameter-style aggregate: LabelHistogram returns the number of
// terminal edges of val(G) per label, in one bottom-up pass. The pass
// runs once per engine (memoized); the returned map is a fresh copy
// the caller may mutate.
func (e *Engine) LabelHistogram() map[hypergraph.Label]int64 {
	h, _ := e.hist.get(func() (map[hypergraph.Label]int64, error) {
		return e.labelHistogram(), nil
	})
	out := make(map[hypergraph.Label]int64, len(h))
	for l, c := range h {
		out[l] = c
	}
	return out
}

func (e *Engine) labelHistogram() map[hypergraph.Label]int64 {
	per := make(map[hypergraph.Label]map[hypergraph.Label]int64, e.g.NumRules())
	for _, nt := range e.bottomUp {
		h := make(map[hypergraph.Label]int64)
		for id := range e.g.Rule(nt).EdgesSeq() {
			lab := e.g.Rule(nt).Label(id)
			if e.g.IsTerminal(lab) {
				h[lab]++
			} else {
				for l, c := range per[lab] {
					h[l] += c
				}
			}
		}
		per[nt] = h
	}
	out := make(map[hypergraph.Label]int64)
	for id := range e.g.Start.EdgesSeq() {
		lab := e.g.Start.Label(id)
		if e.g.IsTerminal(lab) {
			out[lab]++
		} else {
			for l, c := range per[lab] {
				out[l] += c
			}
		}
	}
	return out
}
