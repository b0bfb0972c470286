package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"time"

	"graphrepair/internal/encoding"
	"graphrepair/internal/query"
	"graphrepair/internal/serve"
)

const (
	poolSize      = 1024
	zipfS         = 1.01 // Zipf exponent of node draws over the pool: a cache hit fraction of ~0.46 at the lowest rung
	latencyLimit  = 50 * time.Millisecond
	lateLimit     = 200 * time.Microsecond // generator lateness p99 above this marks a step invalid
	reloadEvery   = 2 * time.Second
	reloadGap     = 50 * time.Millisecond // reload period of the reload slices
	reloadRate    = 1000.0                // req/s of the reload slices' traffic
	warmUp        = 500 * time.Millisecond
	clientTimeout = 2 * time.Second
	minLowest     = 1000        // requests each lowest-rung slice must hold for its p99
	stopAfter     = 2           // consecutive steps over the limit that end the ladder
	refineSteps   = 5           // bisection steps between the highest passing rung and the last rung run
	rungDur       = time.Second // every rung but the lowest
	refineDur     = time.Second
	layerReps     = 20 // traced timings of compile, unseal and decode on their own
)

// ladder is the fixed geometric ladder of offered rates, in req/s:
// 1000 × 1.5^k for k ≥ 3. The lowest rung, 3375, is about a sixth of
// dblp-versions' saturation; at 1000 the CPUs idled between requests,
// so every request paid the host's wake-up delay, which drifted
// twofold within a run. The top exceeds what a components-only mix
// sustains on 2 CPUs, so a faster query layer cannot run off it.
var ladder = func() []float64 {
	var rs []float64
	for r := 3375.0; r < 100000; r *= 1.5 {
		rs = append(rs, math.Round(r))
	}
	return rs
}()

// serveRun is what the serving phase measured.
type serveRun struct {
	steps      []stepResult // the ladder's rungs, then the refinement steps
	maxRate    float64
	lowReqs    []request
	lowOuts    []outcome
	lowP99s    []float64 // p99 per lowest-rung slice
	attempted  int
	failed     int
	wrong      int
	reloads    []time.Duration // successful reloads, all through the run
	reloadFail int
	before     serve.StatsSnapshot
	after      serve.StatsSnapshot
}

// serving drives the server through one run: warm-up, then the
// reload and lowest-rung slices, which bench interleaves with the
// archive repetitions so every gated figure samples the whole run,
// then the climb up the ladder.
type serving struct {
	fx      *fixture
	tr      *tracer
	stream  *requestStream
	lg      *loadgen
	sr      *serveRun
	lowSpan time.Duration // summed over the lowest slices, start to last completion
}

// newServing opens the generator's connections and runs the warm-up,
// unmeasured but checked, which runs every handler path once.
func newServing(fx *fixture, seed int64, tr *tracer) *serving {
	sv := &serving{
		fx:     fx,
		tr:     tr,
		stream: newRequestStream(seed+1, len(fx.oracle.pool), zipfS),
		lg:     newLoadgen(fx.addr, runtime.NumCPU(), clientTimeout, fx.oracle.checkAnswer),
		sr:     &serveRun{before: fx.srv.Stats()},
	}
	sv.step(ladder[0], warmUp)
	return sv
}

func (sv *serving) step(rate float64, d time.Duration) (time.Time, []request, []outcome, stepResult) {
	reqs := sv.stream.step(rate, d)
	start, outs := sv.lg.run(reqs, sv.fx.oracle.pool)
	st := summarize(rate, start, reqs, outs, latencyLimit, lateLimit)
	sv.sr.attempted += len(outs)
	sv.sr.failed += st.Failed
	sv.sr.wrong += st.Failures[failNames[failWrong]]
	return start, reqs, outs, st
}

// reloadSlice runs reloadRate traffic for d while the archive is
// reloaded every reloadGap; each of these reloads is a reload_ms
// sample, so its median is over dozens of reloads under light load.
func (sv *serving) reloadSlice(ctx context.Context, d time.Duration, s samples) {
	n := len(sv.sr.reloads)
	stop := reloadLoop(ctx, sv.fx, reloadGap/2, reloadGap, sv.tr, sv.sr)
	sv.step(reloadRate, d)
	stop()
	for _, r := range sv.sr.reloads[n:] {
		s.add("reload_ms", ms(r))
	}
}

// lowestSlice runs one reload period of the lowest rung, with one
// reload halfway through, and keeps its requests for the lowest
// rung's figures.
func (sv *serving) lowestSlice(ctx context.Context) error {
	sr := sv.sr
	stop := reloadLoop(ctx, sv.fx, reloadEvery/2, reloadEvery, sv.tr, sr)
	start, reqs, outs, st := sv.step(ladder[0], reloadEvery)
	stop()
	if st.Requests < minLowest {
		return fmt.Errorf("lowest rung slice %d held %d requests, need %d for its p99", len(sr.lowP99s), st.Requests, minLowest)
	}
	sr.lowP99s = append(sr.lowP99s, st.P99us)
	sr.lowReqs, sr.lowOuts = append(sr.lowReqs, reqs...), append(sr.lowOuts, outs...)
	sv.lowSpan += lastDone(outs).Sub(start)
	recordRequests(sv.tr, start, reqs, outs)
	return nil
}

func lastDone(outs []outcome) time.Time {
	var last time.Time
	for _, o := range outs {
		last = maxTime(last, o.done)
	}
	return last
}

// climb summarizes the lowest rung's slices as the ladder's first
// rung, then runs the rungs above it, rungDur each, while the archive
// is reloaded every reloadEvery, until stopAfter consecutive rungs
// miss the latency limit; it then bisects for the highest rate meeting
// it and closes the generator.
func (sv *serving) climb(ctx context.Context) *serveRun {
	sr := sv.sr
	low := summarize(ladder[0], time.Time{}, sr.lowReqs, sr.lowOuts, latencyLimit, lateLimit)
	low.AchievedQPS = float64(low.Requests) / sv.lowSpan.Seconds() // the time between slices is not the rung's
	sr.steps = append(sr.steps, low)
	over := 0
	if !low.Pass {
		over = 1
	}
	stop := reloadLoop(ctx, sv.fx, reloadEvery/2, reloadEvery, sv.tr, sr)
	for _, rate := range ladder[1:] {
		if over >= stopAfter {
			break
		}
		_, _, _, st := sv.step(rate, rungDur)
		sr.steps = append(sr.steps, st)
		if over = over + 1; st.Pass {
			over = 0
		}
	}
	sr.maxRate = maxRate(sr.steps, func(rate float64) bool {
		_, _, _, st := sv.step(rate, refineDur)
		st.Refine = true
		sr.steps = append(sr.steps, st)
		return st.Pass
	})
	sv.lg.close()
	stop()
	sr.after = sv.fx.srv.Stats()
	return sr
}

// reloadLoop reloads the archive first after first, then every every
// (back to back when a reload outlasts the period), recording each
// successful reload in sr, until the returned stop is called; stop
// waits for the loop to end.
func reloadLoop(ctx context.Context, fx *fixture, first, every time.Duration, tr *tracer, sr *serveRun) (stop func()) {
	rctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wait := time.NewTimer(first)
		defer wait.Stop()
		for {
			select {
			case <-rctx.Done():
				return
			case <-wait.C:
			}
			wait.Reset(every)
			t := time.Now()
			err := fx.srv.Reload(ctx)
			now := time.Now()
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: reload: %v\n", err)
				sr.reloadFail++
				continue
			}
			tr.leaf(tr.id(), 0, "serve.reload", t, now)
			sr.reloads = append(sr.reloads, now.Sub(t))
		}
	}()
	return func() {
		cancel()
		wg.Wait()
	}
}

// recordRequests adds a span per request of the lowest rung, from due
// time to completion, with a child covering the HTTP exchange; the
// parent's self time is the wait for a free connection. The ladder's
// hundreds of thousands of requests are summarized per step instead.
func recordRequests(tr *tracer, start time.Time, reqs []request, outs []outcome) {
	if tr == nil {
		return
	}
	for i, o := range outs {
		trace, root := tr.id(), tr.id()
		tr.leaf(trace, root, "serve.http", o.send, o.done)
		tr.record(trace, root, 0, "loadgen.request", start.Add(reqs[i].due), o.done)
	}
}

// roundsFor is the number of rounds in a run of length run: its
// lowest-rung slices, one reload period each, add up to 25% of it.
func roundsFor(run time.Duration) int {
	return int(max(1, (run/4+reloadEvery/2)/reloadEvery))
}

// maxRate is the highest rate found to meet the latency limit. Every
// rung after the highest passing one failed (at most stopAfter of
// them); refineSteps bisections in log-rate between the highest
// passing rung and the last rung run, each a step run by try, narrow
// that bracket of up to 1.5² to 2.25^(1/32) ≈ 2.6%, re-testing on
// longer steps the rung that failed first. With no passing rung it is
// the lowest rate scaled by limit/p99; with the top rung passing, the
// top rate.
func maxRate(rungs []stepResult, try func(rate float64) bool) float64 {
	h := -1
	for i, st := range rungs {
		if st.Pass {
			h = i
		}
	}
	switch {
	case h < 0:
		return rungs[0].Rate * us(latencyLimit) / rungs[0].P99us
	case h == len(rungs)-1:
		return rungs[h].Rate
	}
	lo, hi := rungs[h].Rate, rungs[len(rungs)-1].Rate
	for range refineSteps {
		if mid := math.Sqrt(lo * hi); try(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// clientP50 names each timed op's p50 at the lowest rung. The
// neighbour query's is per-layer, not end-to-end: its engine cost is
// ~1 µs, so it is the bare HTTP round trip, whose ten-run spread
// (0.28 to 0.38 of its median) exceeded any useful bound.
var clientP50 = map[op]string{opBoth: "serve.nbr_p50_us", opReach: "reach_p50_us", opDist: "dist_p50_us"}

// serveFigures derives the serving figures from the lowest step and
// the ladder.
func serveFigures(sr *serveRun, f figures) {
	for _, o := range []op{opBoth, opReach, opDist} {
		xs := latencies(sr.lowReqs, sr.lowOuts, func(r request) bool { return r.op == o })
		f[clientP50[o]] = figure{percentile(xs, 50), len(xs)}
	}
	all := latencies(sr.lowReqs, sr.lowOuts, nil)
	f["serve.query_p90_us"] = figure{percentile(all, 90), len(all)}
	f["serve.query_p99_us"] = figure{percentile(all, 99), len(all)}
	f["serve.max_rate_qps"] = figure{sr.maxRate, len(sr.steps)}
}

// queryLayer times the query layer without HTTP: engine compile on the
// served grammar, then the lowest step's requests replayed as direct
// engine calls from one goroutine, with a fresh engine every half
// reload period — each lowest slice starts just after a reload and has
// one halfway — so the result cache sees the same resets the server did.
// The replay engines' cache counters give query.cache_hit_frac.
func queryLayer(ctx context.Context, fx *fixture, sr *serveRun, tr *tracer, s samples) error {
	for range layerReps {
		t := time.Now()
		if _, err := query.NewWithOptions(ctx, fx.gram, engineOpts); err != nil {
			return fmt.Errorf("compile: %w", err)
		}
		now := time.Now()
		tr.leaf(tr.id(), 0, "query.compile", t, now)
		s.add("query.compile_ms", ms(now.Sub(t)))
	}

	perEngine := int(ladder[0] * (reloadEvery / 2).Seconds())
	pool := fx.oracle.pool
	var e *query.Engine
	var hits, misses uint64
	count := func() {
		if e != nil {
			st := e.EngineStats()
			hits, misses = hits+st.CacheHits, misses+st.CacheMisses
		}
	}
	for i, r := range sr.lowReqs {
		if i%perEngine == 0 {
			count()
			var err error
			if e, err = query.NewWithOptions(ctx, fx.gram, engineOpts); err != nil {
				return fmt.Errorf("compile: %w", err)
			}
		}
		t := time.Now()
		var err error
		switch r.op {
		case opBoth:
			_, err = e.Neighbors(pool[r.u], query.Both)
		case opReach:
			_, err = e.Reachable(pool[r.u], pool[r.v])
		case opDist:
			_, err = e.Distance(pool[r.u], pool[r.v])
		case opComponents:
			e.ComponentCount()
		case opDegrees:
			_, _, err = e.DegreeStats(query.Both)
		}
		now := time.Now()
		if err != nil {
			return fmt.Errorf("%s: %w", opNames[r.op], err)
		}
		tr.leaf(tr.id(), 0, "query."+opMetric[r.op], t, now)
		s.add("query."+opMetric[r.op]+"_us", us(now.Sub(t)))
	}

	count()
	s.add("query.cache_hit_frac", float64(hits)/float64(max(1, hits+misses)))
	return nil
}

// reloadLayers times the steps of a reload on their own — unseal,
// decode and compile of the served file — so the remainder of
// reload_ms (file read, limit check, swap) shows as serve.reload_other_ms.
func reloadLayers(ctx context.Context, fx *fixture, tr *tracer, s samples) error {
	buf, err := os.ReadFile(fx.path)
	if err != nil {
		return err
	}
	var unseal, decode []float64
	for range layerReps {
		t0 := time.Now()
		payload, err := encoding.Unseal(buf)
		if err != nil {
			return fmt.Errorf("unseal: %w", err)
		}
		t1 := time.Now()
		if _, _, err := encoding.DecodeMode(payload); err != nil {
			return fmt.Errorf("decode: %w", err)
		}
		t2 := time.Now()
		trace := tr.id()
		tr.leaf(trace, 0, "encoding.unseal", t0, t1)
		tr.leaf(trace, 0, "encoding.decode", t1, t2)
		unseal, decode = append(unseal, ms(t1.Sub(t0))), append(decode, ms(t2.Sub(t1)))
	}
	s.add("serve.reload_other_ms", s.median("reload_ms")-median(unseal)-median(decode)-s.median("query.compile_ms"))
	return nil
}
