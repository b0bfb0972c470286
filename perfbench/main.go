// Command perfbench is the repository benchmark. Each workload is one
// user scenario on a generated graph: archive round trips (compress →
// encode → seal → unseal → decode → derive, each verified), then
// open-loop HTTP serving of the sealed archive with hot reloads,
// climbing a fixed ladder of offered rates with every answer checked
// against an oracle. README.md defines the workloads and metrics.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload dblp-versions --seed 302 --seconds 50 --trace 0
//
// The last line of standard output is the result as one JSON object.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3

type config struct {
	w         workload
	seed      int64 // request stream and node pool
	graphSeed int64 // input graph
	seconds   float64
	trace     bool
	out       string
	t0        time.Time
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, time.Now()))
}

func run(args []string, stdout io.Writer, t0 time.Time) int {
	cfg, err := parseArgs(args, t0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	rec, err := bench(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printReport(stdout, rec)
	if err := writeJSON(filepath.Join(cfg.out, "results", recordName(cfg.w.name, cfg.seed, cfg.trace)), rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(rec.result()); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !rec.Correct {
		return 1
	}
	return 0
}

func parseArgs(args []string, t0 time.Time) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 0, "seed of the request stream and node pool (default: the workload's catalog seed)")
	graphSeed := fs.Int64("graph-seed", 0, "seed of the input graph's generator (default: the workload's catalog seed)")
	seconds := fs.Float64("seconds", 50, "measured seconds per run")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for archives, spans and run records")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	w, ok := findWorkload(*name)
	if !ok {
		return config{}, fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
	}
	cfg := config{w: w, seed: w.catalogSeed, graphSeed: w.catalogSeed, seconds: *seconds, trace: *trace == 1, out: *out, t0: t0}
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "seed":
			cfg.seed = *seed
		case "graph-seed":
			cfg.graphSeed = *graphSeed
		}
	})
	if cfg.seconds < 5 {
		return config{}, fmt.Errorf("--seconds %v: need at least 5", cfg.seconds)
	}
	return cfg, nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// bench runs one workload scenario and returns its record.
func bench(cfg config) (*record, error) {
	tmp := filepath.Join(cfg.out, "tmp")
	for _, d := range []string{tmp, filepath.Join(cfg.out, "results"), filepath.Join(cfg.out, "spans")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer(cfg.t0)
	}
	ctx := context.Background()
	s := samples{}

	var fx *fixture
	var setups []float64
	for i := range setupReps {
		begin := time.Now()
		if i == 0 {
			begin = cfg.t0
		}
		if fx != nil {
			if err := fx.stop(); err != nil {
				return nil, fmt.Errorf("stopping server: %w", err)
			}
		}
		var err error
		if fx, err = setUp(ctx, cfg.w, cfg.graphSeed, cfg.seed, tmp, tr, s); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(begin).Seconds())
	}

	// The timed phases run in rounds — half the round's archive
	// repetitions, a reload slice, the other half, a lowest-rung
	// slice — so each gated figure samples the whole run rather than
	// one stretch of it, on a host whose speed drifts over seconds.
	// Each slice starts from a collected heap, so garbage left by the
	// one before is not charged to it.
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	steal0, ticks0 := cpuTicks()
	run := time.Duration(cfg.seconds * float64(time.Second))
	rounds := roundsFor(run)
	archiveSlice := run * 2 / 10 / time.Duration(rounds) // 40% of the run in all
	sv := newServing(fx, cfg.seed, tr)
	var reps, repsFailed int
	archive := func(atLeast int) {
		runtime.GC()
		a, f := archivePhase(ctx, cfg.w, fx, time.Now().Add(archiveSlice), atLeast, tr, s)
		reps, repsFailed = reps+a, repsFailed+f
	}
	for i := range rounds {
		archive(1)
		runtime.GC()
		sv.reloadSlice(ctx, run/10/time.Duration(rounds), s)
		atLeast := 1
		if i == rounds-1 {
			atLeast = max(1, minReps-reps)
		}
		archive(atLeast)
		runtime.GC()
		if err := sv.lowestSlice(ctx); err != nil {
			return nil, err
		}
	}
	sr := sv.climb(ctx)
	runtime.ReadMemStats(&m1)
	steal1, ticks1 := cpuTicks()
	peak, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	if err := fx.stop(); err != nil {
		return nil, fmt.Errorf("stopping server: %w", err)
	}
	defer os.Remove(fx.path)

	f := figures{}
	f["setup_s"] = figure{median(setups), len(setups)}
	for _, name := range []string{"archive_edges_per_s", "restore_ms", "bits_per_edge", "reload_ms"} {
		f.medianOf(s, name)
	}
	f["peak_rss_mb"] = figure{peak, 1}
	serveFigures(sr, f)

	rec := newRecord(cfg)
	rec.InputNodes, rec.InputEdges = fx.g.NumNodes(), fx.g.NumEdges()
	rec.StealFrac = stealFrac(steal0, ticks0, steal1, ticks1)
	rec.ArchiveReps, rec.ArchiveFailed = reps, repsFailed
	rec.Requests, rec.RequestsFailed, rec.WrongAnswers = sr.attempted, sr.failed, sr.wrong
	rec.ReloadFailures = sr.reloadFail
	rec.Steps, rec.LowestP99s, rec.MaxRateQPS = sr.steps, sr.lowP99s, sr.maxRate
	rec.ReloadStepMs = s["reload_ms"]
	rec.Correct = repsFailed == 0 && sr.wrong == 0 && sr.reloadFail == 0 && len(s["reload_ms"]) > 0
	rec.Attempted = reps + sr.attempted + len(sr.reloads) + sr.reloadFail
	rec.Failed = repsFailed + sr.failed + sr.reloadFail
	rec.setMetrics(endToEnd, f)

	if cfg.trace {
		if err := layerFigures(ctx, fx, sr, tr, s, f, &m0, &m1); err != nil {
			return nil, err
		}
		rec.setMetrics(perLayer, f)
		rec.Spans = filepath.Join(cfg.out, "spans", cfg.w.name+".jsonl")
		if err := writeSpans(rec.Spans, tr.snapshot()); err != nil {
			return nil, err
		}
		rec.Overhead = overhead(cfg, rec)
	}
	return rec, nil
}

// layerFigures runs the traced run's extra timings (after every timed
// phase, so they cannot disturb them) and fills the per-layer figures.
func layerFigures(ctx context.Context, fx *fixture, sr *serveRun, tr *tracer, s samples, f figures, m0, m1 *runtime.MemStats) error {
	orderLayer(fx.g, tr, s)
	if err := queryLayer(ctx, fx, sr, tr, s); err != nil {
		return err
	}
	if err := reloadLayers(ctx, fx, tr, s); err != nil {
		return err
	}
	for _, m := range perLayer {
		if _, ok := s[m.name]; ok {
			f.medianOf(s, m.name)
		}
	}
	for _, o := range []op{opBoth, opReach, opDist} {
		client, engine := f[clientP50[o]], f["query."+opMetric[o]+"_us"]
		f["serve."+opMetric[o]+"_overhead_us"] = figure{client.value - engine.value, min(client.n, engine.n)}
	}
	b, a := sr.before, sr.after
	f["serve.shed"] = figure{float64(a.Shed - b.Shed), 1}
	f["serve.query_errors"] = figure{float64(a.QueryErrors - b.QueryErrors), 1}
	f["serve.panics"] = figure{float64(a.Panics - b.Panics), 1}

	low, best, invalid := sr.steps[0], sr.steps[0], 0
	for _, st := range sr.steps {
		if st.Pass && st.Rate > best.Rate {
			best = st
		}
		if !st.Valid {
			invalid++
		}
	}
	f["loadgen.late_p99_us"] = figure{low.LateP99us, low.Requests}
	f["loadgen.achieved_qps"] = figure{best.AchievedQPS, best.Requests}
	f["loadgen.invalid_steps"] = figure{float64(invalid), len(sr.steps)}
	f["go.gc_cycles"] = figure{float64(m1.NumGC - m0.NumGC), 1}
	f["go.gc_pause_ms"] = figure{float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6, int(m1.NumGC - m0.NumGC)}

	spans := tr.snapshot()
	self := selfTimes(spans)
	for _, m := range perLayer {
		if layer, ok := strings.CutSuffix(m.name, ".self_ms"); ok {
			f[m.name] = figure{ms(self[layer]), len(spans)}
		}
	}
	return nil
}

// overhead returns traced minus untraced value of each end-to-end
// metric, against the untraced record of the same workload and seed
// if one exists in the output directory.
func overhead(cfg config, rec *record) map[string]float64 {
	var base record
	buf, err := os.ReadFile(filepath.Join(cfg.out, "results", recordName(cfg.w.name, cfg.seed, false)))
	if err != nil || json.Unmarshal(buf, &base) != nil {
		return nil
	}
	out := map[string]float64{}
	for _, m := range endToEnd {
		if b, ok := base.Metrics[m.name]; ok {
			out[m.name] = rec.Metrics[m.name].Value - b.Value
		}
	}
	return out
}

func recordName(workload string, seed int64, trace bool) string {
	t := 0
	if trace {
		t = 1
	}
	return fmt.Sprintf("%s-seed%d-trace%d.json", workload, seed, t)
}

// record is everything one run measured, with the conditions it ran
// under; it is written to the output directory, and its result() is
// the run's last line of output.
type record struct {
	Workload       string                  `json:"workload"`
	Why            string                  `json:"why"`
	Seed           int64                   `json:"seed"`
	GraphSeed      int64                   `json:"graph_seed"`
	InputNodes     int                     `json:"input_nodes"`
	InputEdges     int                     `json:"input_edges"`
	Traced         bool                    `json:"traced"`
	Commit         string                  `json:"commit"`
	SourceSHA256   string                  `json:"source_sha256"`
	GOMAXPROCS     int                     `json:"gomaxprocs"`
	NumCPU         int                     `json:"num_cpu"`
	CPU            string                  `json:"cpu"`
	GoVersion      string                  `json:"go_version"`
	StealFrac      float64                 `json:"cpu_steal_frac"` // over the timed phases
	Seconds        float64                 `json:"seconds"`
	Ladder         []float64               `json:"ladder_qps"`
	LatencyLimitUs float64                 `json:"latency_limit_us"`
	LateLimitUs    float64                 `json:"generator_late_limit_us"`
	Connections    int                     `json:"connections"`
	ReloadEveryS   float64                 `json:"reload_every_s"`
	ZipfS          float64                 `json:"zipf_exponent"`
	PoolSize       int                     `json:"pool_size"`
	Mix            map[string]float64      `json:"mix"`
	Correct        bool                    `json:"correct"`
	Attempted      int                     `json:"attempted"`
	Failed         int                     `json:"failed"`
	ArchiveReps    int                     `json:"archive_repetitions"`
	ArchiveFailed  int                     `json:"archive_failed"`
	Requests       int                     `json:"requests"`
	RequestsFailed int                     `json:"requests_failed"`
	WrongAnswers   int                     `json:"wrong_answers"`
	ReloadFailures int                     `json:"reload_failures"`
	Metrics        map[string]recordMetric `json:"metrics"`
	Steps          []stepResult            `json:"steps"`
	LowestP99s     []float64               `json:"lowest_step_p99_us_per_reload_period"`
	ReloadStepMs   []float64               `json:"reload_step_ms"`
	MaxRateQPS     float64                 `json:"max_rate_qps"`
	Overhead       map[string]float64      `json:"tracing_overhead,omitempty"`
	Spans          string                  `json:"spans,omitempty"`
}

type recordMetric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

func newRecord(cfg config) *record {
	mix := map[string]float64{}
	for o := range numOps {
		mix[opNames[o]] = opMix[o]
	}
	return &record{
		Workload: cfg.w.name, Why: cfg.w.why, Seed: cfg.seed, GraphSeed: cfg.graphSeed, Traced: cfg.trace,
		Commit: commit(), SourceSHA256: sourceHash("."),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), CPU: cpuModel(), GoVersion: runtime.Version(),
		Seconds: cfg.seconds, Ladder: ladder, LatencyLimitUs: us(latencyLimit), LateLimitUs: us(lateLimit),
		Connections: runtime.NumCPU(), ReloadEveryS: reloadEvery.Seconds(), ZipfS: zipfS, PoolSize: poolSize, Mix: mix,
		Metrics: map[string]recordMetric{},
	}
}

func (r *record) setMetrics(specs []metricSpec, f figures) {
	for _, m := range specs {
		fig := f[m.name]
		r.Metrics[m.name] = recordMetric{Value: fig.value, Unit: m.unit, Samples: fig.n}
	}
}

// result is the run's last line: exactly the end-to-end metrics in an
// untraced run and exactly the per-layer metrics in a traced one.
func (r *record) result() any {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	specs := endToEnd
	if r.Traced {
		specs = perLayer
	}
	metrics := map[string]val{}
	for _, m := range specs {
		metrics[m.name] = val{r.Metrics[m.name].Value, m.unit}
	}
	return struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics}
}

func printReport(w io.Writer, r *record) {
	fmt.Fprintf(w, "# perfbench %s seed=%d graph-seed=%d (%d nodes, %d edges) traced=%v commit=%s GOMAXPROCS=%d NumCPU=%d cpu=%q %s\n",
		r.Workload, r.Seed, r.GraphSeed, r.InputNodes, r.InputEdges, r.Traced, r.Commit, r.GOMAXPROCS, r.NumCPU, r.CPU, r.GoVersion)
	fmt.Fprintf(w, "# cpu steal during the timed phases: %.1f%%\n", 100*r.StealFrac)
	fmt.Fprintf(w, "# attempted=%d failed=%d (archive %d/%d, requests %d/%d, wrong answers %d, reload failures %d) correct=%v\n",
		r.Attempted, r.Failed, r.ArchiveFailed, r.ArchiveReps, r.RequestsFailed, r.Requests, r.WrongAnswers, r.ReloadFailures, r.Correct)
	if r.Attempted > 0 {
		fmt.Fprintf(w, "# failed_frac=%.6f\n", float64(r.Failed)/float64(r.Attempted))
	}
	fmt.Fprintf(w, "# %-26s %16s %-8s %8s\n", "metric", "value", "unit", "samples")
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "# %-26s %16.4f %-8s %8d\n", n, m.Value, m.Unit, m.Samples)
	}
	fmt.Fprintf(w, "# ladder (limit p99 <= %.0fus from due time, %d connections):\n", r.LatencyLimitUs, r.Connections)
	fmt.Fprintf(w, "# %8s %8s %10s %10s %10s %10s %6s %10s %6s %5s %6s\n",
		"rate", "requests", "achieved", "p50_us", "p90_us", "p99_us", "failed", "late_p99", "valid", "pass", "refine")
	for _, st := range r.Steps {
		fmt.Fprintf(w, "# %8.0f %8d %10.1f %10.1f %10.1f %10.1f %6d %10.1f %6v %5v %6v\n",
			st.Rate, st.Requests, st.AchievedQPS, st.P50us, st.P90us, st.P99us, st.Failed, st.LateP99us, st.Valid, st.Pass, st.Refine)
	}
	fmt.Fprintf(w, "# lowest rung p99 per reload period (us): %.0f\n", r.LowestP99s)
	if n := len(r.ReloadStepMs); n > 0 {
		fmt.Fprintf(w, "# reload step: %d reloads, ms min/p25/p50/p75/max: %.2f %.2f %.2f %.2f %.2f\n", n,
			percentile(r.ReloadStepMs, 0), percentile(r.ReloadStepMs, 25), percentile(r.ReloadStepMs, 50),
			percentile(r.ReloadStepMs, 75), percentile(r.ReloadStepMs, 100))
	}
	fmt.Fprintf(w, "# max rate meeting the limit: %.0f req/s\n", r.MaxRateQPS)
	if r.Traced {
		fmt.Fprintf(w, "# spans: %s\n", r.Spans)
		if r.Overhead == nil {
			fmt.Fprintf(w, "# tracing overhead: no untraced record for this workload and seed yet\n")
		}
		for _, m := range endToEnd {
			if d, ok := r.Overhead[m.name]; ok {
				fmt.Fprintf(w, "# tracing overhead %-20s %+14.4f %s\n", m.name, d, m.unit)
			}
		}
	}
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

var errNoProc = errors.New("no /proc/self/status")

// peakRSSMiB returns the process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, errNoProc
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscan(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), &kb); err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errNoProc
}
