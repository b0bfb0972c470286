package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"graphrepair/internal/core"
	"graphrepair/internal/encoding"
	"graphrepair/internal/gen"
	"graphrepair/internal/govern"
	"graphrepair/internal/grammar"
	"graphrepair/internal/hypergraph"
	"graphrepair/internal/order"
	"graphrepair/internal/query"
	"graphrepair/internal/serve"
)

// workload is one input graph with the options it is compressed with.
// Every workload runs the same scenario: archive round trips, then
// open-loop serving of its archive with hot reloads.
type workload struct {
	name        string
	why         string
	catalogSeed int64 // the catalog's seed: the default --seed
	generate    func(seed int64) *hypergraph.Graph
	terminals   hypergraph.Label
	opts        core.Options
}

func workers(o core.Options, n int) core.Options { o.Workers = n; return o }

var workloads = []workload{
	{
		name: "dblp-versions",
		why: "dblp60-70 (11 yearly versions), sequential: FP order refinement and the k2-tree " +
			"start graph dominate the archive; reach/dist cost ~150us in the engine, so the query layer dominates serving",
		catalogSeed: 302,
		generate: func(seed int64) *hypergraph.Graph {
			return gen.DBLPVersionGraph(11, gen.DefaultDBLPParams(seed))
		},
		terminals: 1,
		opts:      core.DefaultOptions(),
	},
	{
		name: "rdf-types",
		why: "rdf-types-ru (642k type edges) on 2 shard workers: replacement rounds, arenas, shard merge and " +
			"Derive dominate; order and encoder are nearly bypassed and ~25us queries leave serving HTTP-bound",
		catalogSeed: 202,
		generate: func(seed int64) *hypergraph.Graph {
			return gen.RDFTypes(642310, 30, 1.0001, seed)
		},
		terminals: 1,
		// Sharded output does not depend on the worker count, so a
		// fixed 2 keeps the bytes the same on any machine.
		opts: workers(core.DefaultOptions(), 2),
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// engineOpts configures the served engine and every engine the traced
// run builds to time the query layer on its own.
var engineOpts = query.EngineOptions{Precompute: true, CacheSize: 4096}

// fixture is what set-up leaves for the timed phases.
type fixture struct {
	g       *hypergraph.Graph
	profile []uint64 // degreeProfile(g)
	payload []byte   // encoded archive, the reference for every repetition
	path    string   // sealed archive the server loads
	gram    *grammar.Grammar
	oracle  *oracle
	srv     *serve.Server
	addr    string // the server's loopback address
	stop    func() error
}

// setUp generates the input from graphSeed, compresses, seals and
// writes the archive, precomputes the oracle (its node pool drawn with
// seed) on Derive of the archive's grammar, and starts the server on a
// loopback port.
func setUp(ctx context.Context, w workload, graphSeed, seed int64, dir string, tr *tracer, s samples) (*fixture, error) {
	trace, root := tr.id(), tr.id()
	start := time.Now()

	t := time.Now()
	fx := &fixture{g: w.generate(graphSeed)}
	now := time.Now()
	tr.leaf(trace, root, "gen.generate", t, now)
	s.add("gen.ms", ms(now.Sub(t)))
	fx.profile = degreeProfile(fx.g, w.terminals)

	t = time.Now()
	res, err := core.CompressContext(ctx, fx.g, w.terminals, w.opts)
	if err != nil {
		return nil, fmt.Errorf("compress: %w", err)
	}
	now = time.Now()
	tr.leaf(trace, root, "core.compress", t, now)
	t = now
	if fx.payload, _, err = encoding.EncodeMode(res.Grammar, encoding.ModeClassic); err != nil {
		return nil, fmt.Errorf("encode: %w", err)
	}
	now = time.Now()
	tr.leaf(trace, root, "encoding.encode", t, now)
	t = now
	sealed := encoding.Seal(fx.payload)
	now = time.Now()
	tr.leaf(trace, root, "encoding.seal", t, now)
	fx.path = filepath.Join(dir, w.name+".grsl")
	if err := os.WriteFile(fx.path, sealed, 0o644); err != nil {
		return nil, err
	}

	t = time.Now()
	payload, err := encoding.Unseal(sealed)
	if err != nil {
		return nil, fmt.Errorf("unseal: %w", err)
	}
	if fx.gram, _, err = encoding.DecodeMode(payload); err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	h, err := fx.gram.Derive(0)
	if err != nil {
		return nil, fmt.Errorf("derive: %w", err)
	}
	fx.oracle = newOracle(h, poolSize, rand.New(rand.NewSource(seed)))
	now = time.Now()
	tr.leaf(trace, root, "bench.oracle", t, now)

	t = now
	fx.srv = serve.New(fx.path, serve.Config{Engine: engineOpts, Logf: func(string, ...any) {}})
	if err := fx.srv.Reload(ctx); err != nil {
		return nil, fmt.Errorf("initial reload: %w", err)
	}
	now = time.Now()
	tr.leaf(trace, root, "serve.reload", t, now)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	fx.addr = ln.Addr().String()
	sctx, cancel := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() { done <- fx.srv.Serve(sctx, ln) }()
	fx.stop = func() error {
		cancel()
		return <-done
	}
	tr.record(trace, root, 0, "bench.setup", start, time.Now())
	return fx, nil
}

// degreeProfile returns the sorted multiset of per-node signatures,
// where a node's signature is its (label, in-degree, out-degree)
// triples. With one label the signature is exact; with more it is a
// 64-bit mix of the triples.
func degreeProfile(g *hypergraph.Graph, labels hypergraph.Label) []uint64 {
	n, L := int(g.MaxNodeID()), int(labels)
	in, out := make([]uint32, (n+1)*L), make([]uint32, (n+1)*L)
	for id := range g.EdgesSeq() {
		att, l := g.Att(id), int(g.Label(id))-1
		out[int(att[0])*L+l]++
		in[int(att[1])*L+l]++
	}
	prof := make([]uint64, 0, g.NumNodes())
	for _, v := range g.Nodes() {
		var sig uint64
		for l := range L {
			i, o := uint64(in[int(v)*L+l]), uint64(out[int(v)*L+l])
			if L == 1 {
				sig = i<<32 | o
			} else if i|o != 0 {
				sig = mix(sig ^ mix(uint64(l)<<56^i<<28^o))
			}
		}
		prof = append(prof, sig)
	}
	slices.Sort(prof)
	return prof
}

// mix is splitmix64's finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// archivePhase repeats the round trip compress → encode → seal →
// unseal → decode → derive → verify until the deadline (at least
// atLeast times) and returns how many repetitions ran and failed.
func archivePhase(ctx context.Context, w workload, fx *fixture, until time.Time, atLeast int, tr *tracer, s samples) (attempted, failed int) {
	for attempted < atLeast || time.Now().Before(until) {
		attempted++
		if err := archiveRep(ctx, w, fx, tr, s); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: archive repetition %d: %v\n", attempted, err)
			failed++
		}
	}
	return attempted, failed
}

const minReps = 3

func archiveRep(ctx context.Context, w workload, fx *fixture, tr *tracer, s samples) error {
	trace, root := tr.id(), tr.id()
	var m memDelta
	start := time.Now()

	m.begin(tr)
	t0 := time.Now()
	res, err := core.CompressContext(ctx, fx.g, w.terminals, w.opts)
	t1 := time.Now()
	if d, ok := m.end(tr); ok {
		s.add("core.alloc_mb", d.allocMB)
		s.add("core.mallocs", d.mallocs)
		s.add("core.gc_pause_ms", d.pauseMs)
	}
	if err != nil {
		return fmt.Errorf("compress: %w", err)
	}
	tr.leaf(trace, root, "core.compress", t0, t1)

	t2 := time.Now()
	payload, sizes, err := encoding.EncodeMode(res.Grammar, encoding.ModeClassic)
	t3 := time.Now()
	if err != nil {
		return fmt.Errorf("encode: %w", err)
	}
	tr.leaf(trace, root, "encoding.encode", t2, t3)
	sealed := encoding.Seal(payload)
	t4 := time.Now()
	tr.leaf(trace, root, "encoding.seal", t3, t4)

	t5 := time.Now()
	restored, err := encoding.Unseal(sealed)
	t6 := time.Now()
	if err != nil {
		return fmt.Errorf("unseal: %w", err)
	}
	tr.leaf(trace, root, "encoding.unseal", t5, t6)
	m.begin(tr)
	t7 := time.Now()
	g2, _, err := encoding.DecodeMode(restored)
	t8 := time.Now()
	if d, ok := m.end(tr); ok {
		s.add("encoding.decode_alloc_mb", d.allocMB)
	}
	if err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	tr.leaf(trace, root, "encoding.decode", t7, t8)
	m.begin(tr)
	t9 := time.Now()
	h, err := g2.DeriveContext(ctx, govern.Limits{})
	t10 := time.Now()
	if d, ok := m.end(tr); ok {
		s.add("grammar.derive_alloc_mb", d.allocMB)
	}
	if err != nil {
		return fmt.Errorf("derive: %w", err)
	}
	tr.leaf(trace, root, "grammar.derive", t9, t10)

	edges := float64(fx.g.NumEdges())
	s.add("archive_edges_per_s", edges/(t1.Sub(t0)+t4.Sub(t2)).Seconds())
	s.add("restore_ms", ms(t6.Sub(t5)+t8.Sub(t7)+t10.Sub(t9)))
	s.add("bits_per_edge", 8*float64(len(payload))/edges)
	s.add("core.compress_ms", ms(t1.Sub(t0)))
	s.add("core.rounds", float64(res.Stats.Rounds))
	s.add("core.replacements", float64(res.Stats.Replacements))
	s.add("core.pruned_frac", ratio(res.Stats.RulesPruned, res.Stats.Rounds))
	s.add("core.dup_skip_frac", ratio(res.Stats.SkippedDuplicates, res.Stats.Replacements+res.Stats.SkippedDuplicates))
	s.add("encoding.encode_ms", ms(t3.Sub(t2)))
	s.add("encoding.start_bits_frac", ratio(sizes.StartGraph, sizes.Total()))
	s.add("encoding.seal_us", us(t4.Sub(t3)))
	s.add("encoding.unseal_us", us(t6.Sub(t5)))
	s.add("encoding.decode_ms", ms(t8.Sub(t7)))
	s.add("grammar.derive_ms", ms(t10.Sub(t9)))
	s.add("grammar.rules", float64(g2.NumRules()))

	t11 := time.Now()
	err = verifyRestore(fx, payload, h, w.terminals)
	end := time.Now()
	tr.leaf(trace, root, "bench.verify", t11, end)
	tr.record(trace, root, 0, "bench.archive_rep", start, end)
	return err
}

// verifyRestore is the archive correctness gate: the payload is
// byte-identical to set-up's and the restored graph has the input's
// node count, edge count and degree profile.
func verifyRestore(fx *fixture, payload []byte, h *hypergraph.Graph, labels hypergraph.Label) error {
	switch {
	case !bytes.Equal(payload, fx.payload):
		return fmt.Errorf("payload differs from set-up's (%d vs %d bytes)", len(payload), len(fx.payload))
	case h.NumNodes() != fx.g.NumNodes() || h.NumEdges() != fx.g.NumEdges():
		return fmt.Errorf("restored %d nodes/%d edges, input has %d/%d",
			h.NumNodes(), h.NumEdges(), fx.g.NumNodes(), fx.g.NumEdges())
	case !slices.Equal(degreeProfile(h, labels), fx.profile):
		return fmt.Errorf("restored degree profile differs from the input's")
	}
	return nil
}

// memDelta measures allocation and GC pause around one call in the
// traced run; untraced runs skip the stop-the-world MemStats reads.
type memDelta struct{ before runtime.MemStats }

func (m *memDelta) begin(tr *tracer) {
	if tr != nil {
		runtime.ReadMemStats(&m.before)
	}
}

type memUse struct{ allocMB, mallocs, pauseMs float64 }

// end returns the allocation and GC pause since begin; ok is false in
// untraced runs.
func (m *memDelta) end(tr *tracer) (d memUse, ok bool) {
	if tr == nil {
		return d, false
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return memUse{
		allocMB: float64(after.TotalAlloc-m.before.TotalAlloc) / (1 << 20),
		mallocs: float64(after.Mallocs - m.before.Mallocs),
		pauseMs: float64(after.PauseTotalNs-m.before.PauseTotalNs) / 1e6,
	}, true
}

// orderLayer times FP order refinement on its own, as the compressor's
// first stage computes it.
func orderLayer(g *hypergraph.Graph, tr *tracer, s samples) {
	trace := tr.id()
	for range minReps {
		t := time.Now()
		r := order.Compute(g, order.FP, 0)
		now := time.Now()
		tr.leaf(trace, 0, "order.fp", t, now)
		s.add("order.fp_ms", ms(now.Sub(t)))
		s.add("order.fp_classes", float64(r.Classes))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
