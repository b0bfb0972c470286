package main

import (
	"math/rand"
	"slices"

	"graphrepair/internal/hypergraph"
)

// oracle holds the expected answer of every request the load
// generator can send, computed in set-up by plain graph search on the
// derived graph val(G). Derived node IDs follow the grammar's
// canonical derivation numbering, the numbering the query engine
// answers in.
type oracle struct {
	pool       []int64   // derived node IDs requests draw from
	nbr        [][]int64 // distinct neighbours (both directions) of each pool node
	dist       [][]int32 // hop distance pool[i] → pool[j], -1 when unreachable
	components int64     // weakly connected components
	minDeg     int64     // minimum over nodes of in+out edge count
	maxDeg     int64
}

// newOracle draws a pool of up to poolSize distinct nodes of h with
// rng and answers every query over it. h's nodes must be 1..N.
func newOracle(h *hypergraph.Graph, poolSize int, rng *rand.Rand) *oracle {
	n := int(h.MaxNodeID())
	out, in := adjacency(h, n)

	o := &oracle{}
	o.pool = make([]int64, 0, min(poolSize, n))
	for _, k := range rng.Perm(n)[:cap(o.pool)] {
		o.pool = append(o.pool, int64(k+1))
	}

	o.nbr = make([][]int64, len(o.pool))
	for i, v := range o.pool {
		var ns []int64
		for _, w := range out.of(int32(v)) {
			ns = append(ns, int64(w))
		}
		for _, w := range in.of(int32(v)) {
			ns = append(ns, int64(w))
		}
		slices.Sort(ns)
		ns = slices.Compact(ns)
		if j, ok := slices.BinarySearch(ns, v); ok {
			ns = slices.Delete(ns, j, j+1)
		}
		o.nbr[i] = ns
	}

	d := make([]int32, n+1)
	var queue []int32
	o.dist = make([][]int32, len(o.pool))
	for i, u := range o.pool {
		queue = bfs(out, int32(u), d, queue)
		row := make([]int32, len(o.pool))
		for j, v := range o.pool {
			row[j] = d[v]
		}
		o.dist[i] = row
	}

	o.components = weakComponents(h, n)
	o.minDeg, o.maxDeg = -1, 0
	for v := 1; v <= n; v++ {
		deg := int64(len(out.of(int32(v))) + len(in.of(int32(v))))
		if o.minDeg < 0 || deg < o.minDeg {
			o.minDeg = deg
		}
		o.maxDeg = max(o.maxDeg, deg)
	}
	if n == 0 {
		o.minDeg = 0
	}
	return o
}

// csr is a compressed adjacency list over nodes 0..n (0 unused).
type csr struct {
	off []int32
	to  []int32
}

func (c csr) of(v int32) []int32 { return c.to[c.off[v]:c.off[v+1]] }

// adjacency builds the out- and in-adjacency of h's rank-2 edges,
// keeping parallel edges so list lengths are edge counts.
func adjacency(h *hypergraph.Graph, n int) (out, in csr) {
	out.off, in.off = make([]int32, n+2), make([]int32, n+2)
	for id := range h.EdgesSeq() {
		if att := h.Att(id); len(att) == 2 {
			out.off[att[0]+1]++
			in.off[att[1]+1]++
		}
	}
	for v := 1; v <= n+1; v++ {
		out.off[v] += out.off[v-1]
		in.off[v] += in.off[v-1]
	}
	out.to, in.to = make([]int32, out.off[n+1]), make([]int32, in.off[n+1])
	oc, ic := slices.Clone(out.off), slices.Clone(in.off)
	for id := range h.EdgesSeq() {
		if att := h.Att(id); len(att) == 2 {
			s, t := att[0], att[1]
			out.to[oc[s]] = int32(t)
			oc[s]++
			in.to[ic[t]] = int32(s)
			ic[t]++
		}
	}
	return out, in
}

// bfs fills d with hop distances from src along out (-1 when
// unreachable) and returns queue for reuse.
func bfs(out csr, src int32, d []int32, queue []int32) []int32 {
	for i := range d {
		d[i] = -1
	}
	d[src] = 0
	queue = append(queue[:0], src)
	for k := 0; k < len(queue); k++ {
		u := queue[k]
		for _, w := range out.of(u) {
			if d[w] < 0 {
				d[w] = d[u] + 1
				queue = append(queue, w)
			}
		}
	}
	return queue
}

// weakComponents counts the weakly connected components of nodes
// 1..n, isolated nodes included.
func weakComponents(h *hypergraph.Graph, n int) int64 {
	parent := make([]int32, n+1)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	comps := int64(n)
	for id := range h.EdgesSeq() {
		att := h.Att(id)
		for _, v := range att[1:] {
			if a, b := find(int32(att[0])), find(int32(v)); a != b {
				parent[a] = b
				comps--
			}
		}
	}
	return comps
}
