package query

import (
	"errors"
	"math/rand"
	"testing"

	"graphrepair/internal/core"
	"graphrepair/internal/govern"
	"graphrepair/internal/grammar"
	"graphrepair/internal/hypergraph"
)

// bruteDistance is BFS distance on the uncompressed graph (all edges
// weight 1).
func bruteDistance(g *hypergraph.Graph, u, v hypergraph.NodeID) int64 {
	if u == v {
		return 0
	}
	dist := map[hypergraph.NodeID]int64{u: 0}
	queue := []hypergraph.NodeID{u}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, id := range g.Incident(x) {
			att := g.Att(id)
			if len(att) != 2 || att[0] != x {
				continue
			}
			if _, ok := dist[att[1]]; !ok {
				dist[att[1]] = dist[x] + 1
				if att[1] == v {
					return dist[att[1]]
				}
				queue = append(queue, att[1])
			}
		}
	}
	return Unreachable
}

func TestDistanceOnChain(t *testing.T) {
	n := 100
	g := hypergraph.New(n + 1)
	for i := 1; i <= n; i++ {
		g.AddEdge(1, hypergraph.NodeID(i), hypergraph.NodeID(i+1))
	}
	res, err := core.Compress(g, 1, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(res.Grammar)
	if err != nil {
		t.Fatal(err)
	}
	derived := mustDerive(t, res.Grammar)
	rng := rand.New(rand.NewSource(1))
	for q := 0; q < 200; q++ {
		u := 1 + rng.Int63n(e.NumNodes())
		v := 1 + rng.Int63n(e.NumNodes())
		got, err := e.Distance(u, v)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteDistance(derived, hypergraph.NodeID(u), hypergraph.NodeID(v))
		if got != want {
			t.Fatalf("Distance(%d,%d) = %d, want %d", u, v, got, want)
		}
	}
}

func TestDistanceRandomGraphsProperty(t *testing.T) {
	for _, cfg := range compressConfigs() {
		rng := rand.New(rand.NewSource(2))
		for trial := 0; trial < 10; trial++ {
			n := 15 + rng.Intn(50)
			g := randomGraph(rng, n, 2*n, 1+rng.Intn(2))
			res, err := core.Compress(g, 2, cfg.opts)
			if err != nil {
				t.Fatal(err)
			}
			e, err := New(res.Grammar)
			if err != nil {
				t.Fatal(err)
			}
			derived := mustDerive(t, res.Grammar)
			for q := 0; q < 150; q++ {
				u := 1 + rng.Int63n(e.NumNodes())
				v := 1 + rng.Int63n(e.NumNodes())
				got, err := e.Distance(u, v)
				if err != nil {
					t.Fatal(err)
				}
				want := bruteDistance(derived, hypergraph.NodeID(u), hypergraph.NodeID(v))
				if got != want {
					t.Fatalf("%s trial %d: Distance(%d,%d) = %d, want %d", cfg.name, trial, u, v, got, want)
				}
			}
		}
	}
}

func TestDistanceConsistentWithReachable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 40, 70, 1)
	res, err := core.Compress(g, 1, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(res.Grammar)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 200; q++ {
		u := 1 + rng.Int63n(e.NumNodes())
		v := 1 + rng.Int63n(e.NumNodes())
		d, err := e.Distance(u, v)
		if err != nil {
			t.Fatal(err)
		}
		r, err := e.Reachable(u, v)
		if err != nil {
			t.Fatal(err)
		}
		if (d != Unreachable) != r {
			t.Fatalf("Distance(%d,%d)=%d disagrees with Reachable=%v", u, v, d, r)
		}
	}
}

func TestLabelHistogram(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randomGraph(rng, 50, 200, 3)
	res, err := core.Compress(g, 3, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(res.Grammar)
	if err != nil {
		t.Fatal(err)
	}
	got := e.LabelHistogram()
	want := map[hypergraph.Label]int64{}
	for _, id := range g.Edges() {
		want[g.Label(id)]++
	}
	if len(got) != len(want) {
		t.Fatalf("histogram labels %d vs %d", len(got), len(want))
	}
	for l, c := range want {
		if got[l] != c {
			t.Fatalf("label %d: %d vs %d", l, got[l], c)
		}
	}
}

// doublingGrammar builds `levels` nested doubling rules (rule i
// derives two copies of rule i-1 in series): val(G) is a chain of
// 2^levels terminal edges from node 1 to node 2.
func doublingGrammar(levels int) *grammar.Grammar {
	s := hypergraph.New(2)
	g := grammar.New(1, s)
	prev := hypergraph.Label(1)
	for i := 0; i < levels; i++ {
		rhs := hypergraph.New(3)
		rhs.AddEdge(prev, 1, 3)
		rhs.AddEdge(prev, 3, 2)
		rhs.SetExt(1, 2)
		prev = g.AddRule(rhs)
	}
	s.AddEdge(prev, 1, 2)
	return g
}

// TestDistanceDoublingDepth pins exact distances at the top of the
// int64 range: the chain's length 2^62 is a real distance, not the
// "no path" sentinel.
func TestDistanceDoublingDepth(t *testing.T) {
	for _, depth := range []int{61, 62} {
		e, err := New(doublingGrammar(depth))
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := e.Reachable(1, 2); err != nil || !ok {
			t.Fatalf("depth %d: Reachable(1,2) = %v, %v", depth, ok, err)
		}
		if d, err := e.Distance(1, 2); err != nil || d != int64(1)<<depth {
			t.Fatalf("depth %d: Distance(1,2) = %d, %v, want 2^%d", depth, d, err, depth)
		}
		if d, err := e.Distance(2, 1); err != nil || d != Unreachable {
			t.Fatalf("depth %d: Distance(2,1) = %d, %v, want Unreachable", depth, d, err)
		}
	}
}

// TestEngineRejectsDerivedNodeOverflow pins that a grammar deriving
// MaxInt64 or more nodes is refused with a typed limit error instead
// of an engine whose numbering wrapped negative.
func TestEngineRejectsDerivedNodeOverflow(t *testing.T) {
	for _, depth := range []int{63, 100} {
		_, err := New(doublingGrammar(depth))
		var le *govern.LimitError
		if !errors.Is(err, govern.ErrLimit) || !errors.As(err, &le) {
			t.Fatalf("depth %d: New returned error %v, want a *govern.LimitError", depth, err)
		}
	}
	e, err := New(doublingGrammar(62))
	if err != nil {
		t.Fatalf("depth 62: %v", err)
	}
	if n := e.NumNodes(); n != int64(1)<<62+1 {
		t.Fatalf("depth 62: NumNodes = %d, want 2^62+1", n)
	}
}
