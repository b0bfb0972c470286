package query

import (
	"fmt"
	"math/rand"
	"testing"

	"graphrepair/internal/core"
	"graphrepair/internal/grammar"
	"graphrepair/internal/hypergraph"
	"graphrepair/internal/order"
)

// buildEngine compresses g and returns the engine plus the derived
// graph (whose node IDs are exactly the engine's ID space).
func buildEngine(t *testing.T, g *hypergraph.Graph, terms hypergraph.Label, opts core.Options) (*Engine, *hypergraph.Graph) {
	t.Helper()
	res, err := core.Compress(g, terms, opts)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(res.Grammar)
	if err != nil {
		t.Fatal(err)
	}
	derived := mustDerive(t, res.Grammar)
	if e.NumNodes() != int64(derived.NumNodes()) {
		t.Fatalf("engine sees %d nodes, derived has %d", e.NumNodes(), derived.NumNodes())
	}
	if e.NumEdges() != int64(derived.NumEdges()) {
		t.Fatalf("engine sees %d edges, derived has %d", e.NumEdges(), derived.NumEdges())
	}
	return e, derived
}

// compressConfig is one grammar shape the query oracles run on.
type compressConfig struct {
	name string
	opts core.Options
}

// compressConfigs are classic and max-repeat mode (wider rules), each
// sequential and on two shard workers (the sharded merge's rule
// layout). The first is core.DefaultOptions.
func compressConfigs() []compressConfig {
	var cfgs []compressConfig
	for _, mode := range []core.CompressMode{core.ModeClassic, core.ModeMaxRepeat} {
		for _, workers := range []int{1, 2} {
			opts := core.DefaultOptions()
			opts.Mode, opts.Workers = mode, workers
			cfgs = append(cfgs, compressConfig{fmt.Sprintf("mode=%d/workers=%d", mode, workers), opts})
		}
	}
	return cfgs
}

func randomGraph(rng *rand.Rand, n, m, labels int) *hypergraph.Graph {
	var triples []hypergraph.Triple
	for i := 0; i < m; i++ {
		triples = append(triples, hypergraph.Triple{
			Src:   hypergraph.NodeID(1 + rng.Intn(n)),
			Dst:   hypergraph.NodeID(1 + rng.Intn(n)),
			Label: hypergraph.Label(1 + rng.Intn(labels)),
		})
	}
	g, _ := hypergraph.FromTriples(n, triples)
	return g
}

func toIDs(nodes []hypergraph.NodeID) []int64 {
	out := make([]int64, len(nodes))
	for i, v := range nodes {
		out[i] = int64(v)
	}
	return out
}

func equalIDs(a []int64, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestLocateRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := randomGraph(rng, 60, 150, 2)
	e, derived := buildEngine(t, g, 2, core.DefaultOptions())
	for k := int64(1); k <= e.NumNodes(); k++ {
		loc, err := e.Locate(k)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.resolveUp(&loc, len(loc.Graphs)-1, loc.Node); got != k {
			t.Fatalf("Locate/resolve roundtrip: %d → %d", k, got)
		}
	}
	if _, err := e.Locate(0); err == nil {
		t.Fatal("ID 0 accepted")
	}
	if _, err := e.Locate(int64(derived.NumNodes()) + 1); err == nil {
		t.Fatal("out-of-range ID accepted")
	}
}

func TestNeighborsAgainstDerived(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 12; trial++ {
		n := 20 + rng.Intn(80)
		g := randomGraph(rng, n, 3*n, 1+rng.Intn(3))
		opts := core.Options{MaxRank: 2 + rng.Intn(3), Order: order.FP, ConnectComponents: true}
		e, derived := buildEngine(t, g, 3, opts)
		for k := int64(1); k <= e.NumNodes(); k++ {
			v := hypergraph.NodeID(k)
			for _, dir := range []Direction{Out, In, Both} {
				got, err := e.Neighbors(k, dir)
				if err != nil {
					t.Fatal(err)
				}
				var want []int64
				switch dir {
				case Out:
					want = toIDs(derived.OutNeighbors(v))
				case In:
					want = toIDs(derived.InNeighbors(v))
				case Both:
					want = toIDs(derived.Neighbors(v))
				}
				if !equalIDs(got, want) {
					t.Fatalf("trial %d node %d dir %d: got %v want %v", trial, k, dir, got, want)
				}
			}
		}
	}
}

func TestNeighborsDeepGrammar(t *testing.T) {
	// A long chain compresses into a deep grammar; neighborhood
	// queries must resolve across many levels.
	n := 512
	g := hypergraph.New(n + 1)
	for i := 1; i <= n; i++ {
		g.AddEdge(1, hypergraph.NodeID(i), hypergraph.NodeID(i+1))
	}
	e, derived := buildEngine(t, g, 1, core.DefaultOptions())
	if e.g.NumRules() < 3 {
		t.Fatalf("expected a deep grammar, got %d rules", e.g.NumRules())
	}
	for k := int64(1); k <= e.NumNodes(); k++ {
		got, err := e.Neighbors(k, Out)
		if err != nil {
			t.Fatal(err)
		}
		want := toIDs(derived.OutNeighbors(hypergraph.NodeID(k)))
		if !equalIDs(got, want) {
			t.Fatalf("node %d: got %v want %v", k, got, want)
		}
	}
}

func TestReachableAgainstDerived(t *testing.T) {
	var rs hypergraph.ReachScratch
	for _, cfg := range compressConfigs() {
		rng := rand.New(rand.NewSource(55))
		for trial := 0; trial < 10; trial++ {
			n := 15 + rng.Intn(60)
			g := randomGraph(rng, n, 2*n, 1+rng.Intn(2))
			e, derived := buildEngine(t, g, 2, cfg.opts)
			for q := 0; q < 200; q++ {
				u := 1 + rng.Int63n(e.NumNodes())
				v := 1 + rng.Int63n(e.NumNodes())
				got, err := e.Reachable(u, v)
				if err != nil {
					t.Fatal(err)
				}
				want := derived.ReachableWith(&rs, hypergraph.NodeID(u), hypergraph.NodeID(v))
				if got != want {
					t.Fatalf("%s trial %d: Reachable(%d,%d) = %v, want %v", cfg.name, trial, u, v, got, want)
				}
			}
		}
	}
}

func TestReachableWithinSameSubtree(t *testing.T) {
	// Long chain: u and v deep inside the same derivation subtree.
	n := 256
	g := hypergraph.New(n + 1)
	for i := 1; i <= n; i++ {
		g.AddEdge(1, hypergraph.NodeID(i), hypergraph.NodeID(i+1))
	}
	e, derived := buildEngine(t, g, 1, core.DefaultOptions())
	rng := rand.New(rand.NewSource(7))
	var rs hypergraph.ReachScratch
	for q := 0; q < 300; q++ {
		u := 1 + rng.Int63n(e.NumNodes())
		v := 1 + rng.Int63n(e.NumNodes())
		got, err := e.Reachable(u, v)
		if err != nil {
			t.Fatal(err)
		}
		if want := derived.ReachableWith(&rs, hypergraph.NodeID(u), hypergraph.NodeID(v)); got != want {
			t.Fatalf("Reachable(%d,%d) = %v, want %v", u, v, got, want)
		}
	}
}

func TestComponentCount(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	for trial := 0; trial < 15; trial++ {
		n := 10 + rng.Intn(80)
		// Sparse graphs tend to be disconnected.
		g := randomGraph(rng, n, n/2+rng.Intn(n), 1+rng.Intn(2))
		e, derived := buildEngine(t, g, 2, core.DefaultOptions())
		want := int64(len(derived.WeakComponents()))
		if got := e.ComponentCount(); got != want {
			t.Fatalf("trial %d: components = %d, want %d", trial, got, want)
		}
	}
}

func TestDegreeStats(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	for trial := 0; trial < 12; trial++ {
		n := 10 + rng.Intn(60)
		g := randomGraph(rng, n, 2*n, 1+rng.Intn(2))
		e, derived := buildEngine(t, g, 2, core.DefaultOptions())
		for _, dir := range []Direction{Out, In, Both} {
			gmin, gmax, err := e.DegreeStats(dir)
			if err != nil {
				t.Fatal(err)
			}
			wmin, wmax := int64(1<<62), int64(0)
			for _, v := range derived.Nodes() {
				var d int64
				switch dir {
				case Out:
					for _, id := range derived.Incident(v) {
						if derived.Att(id)[0] == v {
							d++
						}
					}
				case In:
					for _, id := range derived.Incident(v) {
						if derived.Att(id)[1] == v {
							d++
						}
					}
				case Both:
					d = int64(derived.Degree(v))
				}
				if d < wmin {
					wmin = d
				}
				if d > wmax {
					wmax = d
				}
			}
			if gmin != wmin || gmax != wmax {
				t.Fatalf("trial %d dir %d: (%d,%d), want (%d,%d)", trial, dir, gmin, gmax, wmin, wmax)
			}
		}
	}
}

func TestEngineOnRulelessGrammar(t *testing.T) {
	g := hypergraph.New(4)
	g.AddEdge(1, 1, 2)
	g.AddEdge(1, 3, 4)
	gram := grammar.New(1, g)
	e, err := New(gram)
	if err != nil {
		t.Fatal(err)
	}
	if e.NumNodes() != 4 || e.NumEdges() != 2 {
		t.Fatal("ruleless engine sizes wrong")
	}
	nb, err := e.Neighbors(1, Out)
	if err != nil || len(nb) != 1 || nb[0] != 2 {
		t.Fatalf("neighbors = %v, %v", nb, err)
	}
	ok, err := e.Reachable(1, 2)
	if err != nil || !ok {
		t.Fatal("reachability on ruleless grammar failed")
	}
	if c := e.ComponentCount(); c != 2 {
		t.Fatalf("components = %d, want 2", c)
	}
}

func TestStarQueries(t *testing.T) {
	// Exercise rank-1 nonterminals and parallel nonterminal edges.
	n := 128
	g := hypergraph.New(n + 1)
	hub := hypergraph.NodeID(n + 1)
	for i := 1; i <= n; i++ {
		g.AddEdge(1, hypergraph.NodeID(i), hub)
	}
	e, derived := buildEngine(t, g, 1, core.DefaultOptions())
	// The hub is the unique node with in-degree n.
	var hubID int64 = -1
	for k := int64(1); k <= e.NumNodes(); k++ {
		in, err := e.Neighbors(k, In)
		if err != nil {
			t.Fatal(err)
		}
		if len(in) == n {
			hubID = k
		}
	}
	if hubID < 0 {
		t.Fatal("hub not found via grammar queries")
	}
	if got := toIDs(derived.InNeighbors(hypergraph.NodeID(hubID))); len(got) != n {
		t.Fatal("derived graph disagrees about the hub")
	}
	mn, mx, err := e.DegreeStats(Both)
	if err != nil || mn != 1 || mx != int64(n) {
		t.Fatalf("degree stats (%d,%d), want (1,%d)", mn, mx, n)
	}
}
