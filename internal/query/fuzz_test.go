package query

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"time"

	"graphrepair/internal/core"
	"graphrepair/internal/encoding"
	"graphrepair/internal/govern"
	"graphrepair/internal/hypergraph"
)

// fuzzQueryBudget bounds what the decoder may allocate per fuzz input;
// adversarial-but-valid encodings below this line must still be served
// (or cleanly rejected), never crash the engine.
const fuzzQueryBudget = 64 << 20

// fuzzDeriveBudget bounds the derived graphs FuzzQuery materializes
// as its answer oracle (nodes, and edges — parallel edges can make a
// small node count derive a huge edge count).
const fuzzDeriveBudget = 4096

// FuzzQuery feeds arbitrary bytes through the decoder and, whenever
// they happen to be a valid grammar, runs the full query surface —
// engine construction, reachability, neighborhoods, distance, and a
// regular path query — under a 100ms deadline. The engine must never
// panic and never hang on adversarial-but-valid grammars. When val(G)
// fits fuzzDeriveBudget, the answers for the node pairs (1, n) and
// (n, 1) must also equal naive evaluation on the derived graph.
func FuzzQuery(f *testing.F) {
	chain := hypergraph.New(33)
	for i := 1; i <= 32; i++ {
		chain.AddEdge(1, hypergraph.NodeID(i), hypergraph.NodeID(i+1))
	}
	star := hypergraph.New(17)
	for i := 2; i <= 17; i++ {
		star.AddEdge(2, 1, hypergraph.NodeID(i))
	}
	rng := rand.New(rand.NewSource(7))
	for _, g := range []*hypergraph.Graph{
		chain,
		star,
		randomGraph(rng, 24, 60, 3),
	} {
		res, err := core.Compress(g, 3, core.DefaultOptions())
		if err != nil {
			f.Fatal(err)
		}
		buf, _, err := encoding.Encode(res.Grammar)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		g, err := encoding.DecodeContext(ctx, data, govern.Limits{MaxAllocBytes: fuzzQueryBudget})
		if err != nil {
			t.Skip()
		}
		e, err := NewContext(ctx, g)
		if err != nil {
			t.Skip()
		}
		n := e.NumNodes()
		if n < 1 {
			t.Skip()
		}
		var derived *hypergraph.Graph
		if nodes, edges := g.DerivedSize(); nodes <= fuzzDeriveBudget && edges <= fuzzDeriveBudget {
			derived = mustDerive(t, g)
		}
		var rs hypergraph.ReachScratch
		for _, p := range [][2]int64{{1, n}, {n, 1}} {
			u, v := p[0], p[1]
			reach, err := e.ReachableContext(ctx, u, v)
			if err != nil && ctx.Err() == nil {
				t.Fatalf("Reachable on valid grammar: %v", err)
			}
			if err == nil && derived != nil {
				if want := derived.ReachableWith(&rs, hypergraph.NodeID(u), hypergraph.NodeID(v)); reach != want {
					t.Fatalf("Reachable(%d,%d) = %v, want %v", u, v, reach, want)
				}
			}
			nbrs, err := e.NeighborsContext(ctx, u, Both)
			if err != nil && ctx.Err() == nil {
				t.Fatalf("Neighbors on valid grammar: %v", err)
			}
			if err == nil && derived != nil {
				x := hypergraph.NodeID(u)
				want := toIDs(append(derived.OutNeighbors(x), derived.InNeighbors(x)...))
				slices.Sort(want)
				if want = slices.Compact(want); !equalIDs(nbrs, want) {
					t.Fatalf("Neighbors(%d, Both) = %v, want %v", u, nbrs, want)
				}
			}
			dist, err := e.DistanceContext(ctx, u, v)
			if err != nil && ctx.Err() == nil {
				t.Fatalf("Distance on valid grammar: %v", err)
			}
			if err == nil && derived != nil {
				if want := bruteDistance(derived, hypergraph.NodeID(u), hypergraph.NodeID(v)); dist != want {
					t.Fatalf("Distance(%d,%d) = %d, want %d", u, v, dist, want)
				}
			}
		}
		u, v := int64(1), n
		rpq, err := e.NewRPQContext(ctx, StarNFA(1, 2))
		if err == nil {
			if _, err := rpq.MatchesContext(ctx, u, v); err != nil && ctx.Err() == nil {
				t.Fatalf("RPQ on valid grammar: %v", err)
			}
		} else if ctx.Err() == nil {
			t.Fatalf("NewRPQ on valid grammar: %v", err)
		}
	})
}
