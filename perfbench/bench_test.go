package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"graphrepair/internal/core"
	"graphrepair/internal/encoding"
	"graphrepair/internal/gen"
	"graphrepair/internal/query"
	"graphrepair/internal/serve"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99},
		{9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, unsorted
	}
	if got := percentile(xs, 99); got != 990 {
		t.Fatalf("p99 of 1..1000 = %v, want 990 (10 samples beyond it)", got)
	}
	if got := percentile(xs, 50); got != 500 {
		t.Fatalf("p50 of 1..1000 = %v, want 500", got)
	}
}

// evenly returns n requests of kind o due every gap.
func evenly(n int, o op, gap time.Duration) []request {
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = request{op: o, due: time.Duration(i) * gap}
	}
	return reqs
}

func TestDueTimeAccounting(t *testing.T) {
	const stall = 50 * time.Millisecond
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	lg := newLoadgen(srv.Listener.Addr().String(), 1, time.Second, func(request, []byte) bool { return true })
	defer lg.close()

	reqs := evenly(40, opComponents, time.Millisecond)
	start, outs := lg.run(reqs, nil)
	st := summarize(1000, start, reqs, outs, latencyLimit, lateLimit)
	if st.Failed != 0 {
		t.Fatalf("failures: %v", st.Failures)
	}
	// Requests due during the stall wait behind it on the only
	// connection, and that wait counts: request k (due k ms in) cannot
	// finish before the stall ends.
	for k := 1; k < 30; k++ {
		if min := stall - reqs[k].due; outs[k].lat < min {
			t.Errorf("request %d: latency %v from due time, want >= %v", k, outs[k].lat, min)
		}
		if svc := outs[k].done.Sub(outs[k].send); svc >= outs[k].lat {
			t.Errorf("request %d: service time %v should be below its due-time latency %v", k, svc, outs[k].lat)
		}
	}
	if st.P99us < us(stall)*0.9 {
		t.Errorf("step p99 %.0fus does not show the %v stall", st.P99us, stall)
	}
}

func TestFailureAccounting(t *testing.T) {
	o := &oracle{pool: []int64{1, 2}, nbr: [][]int64{{2}, {1}}, dist: [][]int32{{0, 1}, {-1, 0}}, components: 1, minDeg: 1, maxDeg: 1}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Query().Get("q") {
		case "reach":
			http.Error(w, "shed", http.StatusTooManyRequests)
		case "dist":
			time.Sleep(300 * time.Millisecond)
		case "both":
			w.Write([]byte(`{"query":"both","from":1,"neighbors":[3]}`))
		case "components":
			w.Write([]byte(`{"query":"components","count":1}`))
		}
	}))
	defer srv.Close()
	lg := newLoadgen(srv.Listener.Addr().String(), 1, 100*time.Millisecond, o.checkAnswer)
	defer lg.close()

	reqs := []request{
		{op: opComponents},
		{op: opReach, due: time.Millisecond},
		{op: opDist, due: 2 * time.Millisecond},
		{op: opBoth, due: 3 * time.Millisecond},
		{op: opComponents, due: 4 * time.Millisecond},
	}
	start, outs := lg.run(reqs, o.pool)
	want := []failKind{failNone, failShed, failTimeout, failWrong, failNone}
	for i, o := range outs {
		if o.fail != want[i] {
			t.Errorf("request %d (%s): outcome %s, want %s", i, opNames[reqs[i].op], failNames[o.fail], failNames[want[i]])
		}
	}
	st := summarize(100, start, reqs, outs, time.Hour, lateLimit)
	if st.Failed != 3 || st.Pass {
		t.Fatalf("step: failed=%d pass=%v, want 3 failed and the step over the limit", st.Failed, st.Pass)
	}
	for i, x := range latencies(reqs, outs, nil) {
		if over := x >= us(clientTimeout); over != (want[i] != failNone) {
			t.Errorf("request %d: latency %.0fus, over every limit = %v", i, x, over)
		}
	}
}

func TestMaxRate(t *testing.T) {
	rungs := []stepResult{
		{Rate: 1000, P99us: 500, Pass: true},
		{Rate: 1500, P99us: 900, Pass: true},
		{Rate: 2250, P99us: 90000},
		{Rate: 3375, P99us: 1e6},
	}
	const knee = 1900.0
	var tried []float64
	got := maxRate(rungs, func(rate float64) bool {
		tried = append(tried, rate)
		return rate <= knee
	})
	if len(tried) != refineSteps {
		t.Errorf("ran %d refinement steps, want %d", len(tried), refineSteps)
	}
	if got > knee || got < knee/math.Pow(1.5, 1.0/16) {
		t.Errorf("max rate %v, want within 1.5^(1/16) below the knee %v", got, knee)
	}
	if got := maxRate(rungs[:2], nil); got != 1500 {
		t.Errorf("max rate with the top rung passing = %v, want 1500", got)
	}
	rungs[0].Pass, rungs[1].Pass = false, false
	if got := maxRate(rungs, nil); got != 1000*us(latencyLimit)/500 {
		t.Errorf("max rate with no passing rung = %v", got)
	}
}

// TestAnswerEncoding pins the checker's fast path to the server's JSON
// encoding of every answer kind.
func TestAnswerEncoding(t *testing.T) {
	o := &oracle{pool: []int64{7, 9}, nbr: [][]int64{{1, 9, 12}, nil}, dist: [][]int32{{0, 3}, {-1, 0}},
		components: 4, minDeg: 0, maxDeg: 17}
	f, tr := false, true
	d3, dm1, c4, mn, mx := int64(3), int64(-1), int64(4), int64(0), int64(17)
	for _, c := range []struct {
		r    request
		want serve.Response
	}{
		{request{op: opBoth, u: 0}, serve.Response{Query: "both", From: 7, Neighbors: []int64{1, 9, 12}}},
		{request{op: opBoth, u: 1}, serve.Response{Query: "both", From: 9}},
		{request{op: opReach, u: 0, v: 1}, serve.Response{Query: "reach", From: 7, To: 9, Reachable: &tr}},
		{request{op: opReach, u: 1, v: 0}, serve.Response{Query: "reach", From: 9, To: 7, Reachable: &f}},
		{request{op: opDist, u: 0, v: 1}, serve.Response{Query: "dist", From: 7, To: 9, Distance: &d3}},
		{request{op: opDist, u: 1, v: 0}, serve.Response{Query: "dist", From: 9, To: 7, Distance: &dm1}},
		{request{op: opComponents}, serve.Response{Query: "components", Count: &c4}},
		{request{op: opDegrees}, serve.Response{Query: "degrees", MinDegree: &mn, MaxDegree: &mx}},
	} {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(c.want); err != nil {
			t.Fatal(err)
		}
		if got := o.appendAnswer(nil, c.r); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s: appendAnswer %q, server encodes %q", opNames[c.r.op], got, want.Bytes())
		}
		if !o.checkAnswer(c.r, want.Bytes()) {
			t.Errorf("%s: checkAnswer rejects the correct answer", opNames[c.r.op])
		}
		if o.checkAnswer(c.r, []byte(`{"query":"`+opNames[c.r.op]+`","from":1}`)) {
			t.Errorf("%s: checkAnswer accepts a wrong answer", opNames[c.r.op])
		}
	}
	// A reordered but equal answer passes through the decoding path.
	if !o.checkAnswer(request{op: opDist, u: 0, v: 1}, []byte(`{"distance":3,"to":9,"from":7,"query":"dist"}`)) {
		t.Error("checkAnswer rejects a correct answer in another layout")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.rep", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "core.compress", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "encoding.encode", Start: 40, End: 70},
		{ID: 4, Parent: 3, Name: "encoding.seal", Start: 60, End: 65},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"bench": 40, "core": 40, "encoding": 30}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self time of %s = %v, want %v", k, got[k], v)
		}
	}
}

// TestOracleAgainstEngine checks the set-up oracle against the query
// engine on a small dblp60-70 version graph, over every pool pair.
func TestOracleAgainstEngine(t *testing.T) {
	ds, err := gen.Generate("dblp60-70", 16)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Compress(ds.Graph, ds.Labels, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	buf, _, err := encoding.EncodeMode(res.Grammar, encoding.ModeClassic)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := encoding.DecodeMode(buf)
	if err != nil {
		t.Fatal(err)
	}
	h, err := g.Derive(0)
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(h, 96, rand.New(rand.NewSource(1)))
	e, err := query.NewWithOptions(context.Background(), g, engineOpts)
	if err != nil {
		t.Fatal(err)
	}

	if got := e.ComponentCount(); got != o.components {
		t.Errorf("components: engine %d, oracle %d", got, o.components)
	}
	if mn, mx, err := e.DegreeStats(query.Both); err != nil || mn != o.minDeg || mx != o.maxDeg {
		t.Errorf("degrees: engine (%d,%d,%v), oracle (%d,%d)", mn, mx, err, o.minDeg, o.maxDeg)
	}
	reachable := 0
	for i, u := range o.pool {
		if ns, err := e.Neighbors(u, query.Both); err != nil || !slices.Equal(ns, o.nbr[i]) {
			t.Fatalf("neighbours of %d: engine %v (%v), oracle %v", u, ns, err, o.nbr[i])
		}
		for j, v := range o.pool {
			ok, err := e.Reachable(u, v)
			if err != nil || ok != (o.dist[i][j] >= 0) {
				t.Fatalf("reach %d→%d: engine %v (%v), oracle dist %d", u, v, ok, err, o.dist[i][j])
			}
			d, err := e.Distance(u, v)
			if err != nil || d != int64(o.dist[i][j]) {
				t.Fatalf("dist %d→%d: engine %d (%v), oracle %d", u, v, d, err, o.dist[i][j])
			}
			if ok && u != v {
				reachable++
			}
		}
	}
	if reachable == 0 {
		t.Fatal("no reachable pool pair: the check exercised only the unreachable case")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metrics and
// workloads this program reports.
func TestBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %q: %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	for _, c := range []struct {
		got  []metric
		want []metricSpec
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(c.got), len(c.want))
		}
		for i, m := range c.want {
			if g := c.got[i]; g != (metric{m.name, m.unit, m.better, m.bound}) {
				t.Errorf("metric %d: BENCHMARK.json %+v, program %+v", i, g, m)
			}
		}
	}
}
