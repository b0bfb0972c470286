package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"graphrepair/internal/serve"
)

// op is one request kind of the serving mix.
type op uint8

const (
	opBoth op = iota
	opReach
	opDist
	opComponents
	opDegrees
	numOps
)

// opNames are the server's query names, opMetric the names metrics use.
var (
	opNames  = [numOps]string{"both", "reach", "dist", "components", "degrees"}
	opMetric = [numOps]string{"nbr", "reach", "dist", "components", "degrees"}
)

// opMix is the share of each op in the request stream.
var opMix = [numOps]float64{0.50, 0.20, 0.20, 0.05, 0.05}

// request is one scheduled query: u and v index the oracle's pool,
// due is the send time relative to the step's start.
type request struct {
	op   op
	u, v int32
	due  time.Duration
}

// requestStream draws requests: ops by opMix, nodes by a Zipf law
// over the pool, arrivals as a Poisson process.
type requestStream struct {
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newRequestStream(seed int64, poolSize int, zipfS float64) *requestStream {
	rng := rand.New(rand.NewSource(seed))
	return &requestStream{rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, uint64(poolSize-1))}
}

// step returns the requests due in a window of length d at rate qps.
func (s *requestStream) step(qps float64, d time.Duration) []request {
	var reqs []request
	t := 0.0
	for {
		t += s.rng.ExpFloat64() / qps
		if t >= d.Seconds() {
			return reqs
		}
		r := request{due: time.Duration(t * float64(time.Second))}
		x := s.rng.Float64()
		for r.op = 0; r.op < numOps-1 && x >= opMix[r.op]; r.op++ {
			x -= opMix[r.op]
		}
		r.u, r.v = int32(s.zipf.Uint64()), int32(s.zipf.Uint64())
		reqs = append(reqs, r)
	}
}

// failKind classifies a request outcome.
type failKind uint8

const (
	failNone    failKind = iota
	failError            // transport error
	failTimeout          // no response within the client timeout
	failShed             // 429 from admission control
	failStatus           // any other non-200 status
	failWrong            // 200 with an answer the oracle disagrees with
)

var failNames = [...]string{"ok", "error", "timeout", "shed", "status", "wrong"}

// outcome is what happened to one request.
type outcome struct {
	send, done time.Time
	// lat is done − due less late: it includes any wait for a
	// connection held by earlier requests, but not the generator's
	// own delay in waking up to send.
	lat  time.Duration
	late time.Duration // send − max(due, connection free)
	fail failKind
}

// loadgen is an open-loop generator: requests are sent at their due
// times on a fixed set of keep-alive connections, one goroutine per
// connection, whether or not earlier requests have finished. A
// request due while every connection is busy waits, and that wait
// counts in its latency; the generator's own lateness, which on a
// virtual machine is mostly its thread's wake-up delay, is reported
// apart.
type loadgen struct {
	conns []*conn
	check func(request, []byte) bool
}

func newLoadgen(addr string, conns int, timeout time.Duration, check func(request, []byte) bool) *loadgen {
	lg := &loadgen{check: check}
	for range conns {
		lg.conns = append(lg.conns, &conn{addr: addr, timeout: timeout})
	}
	return lg
}

// close closes the generator's connections.
func (lg *loadgen) close() {
	for _, c := range lg.conns {
		c.reset()
	}
}

// run sends reqs on schedule from a start slightly in the future and
// returns the start and one outcome per request once all completed.
func (lg *loadgen) run(reqs []request, pool []int64) (time.Time, []outcome) {
	outs := make([]outcome, len(reqs))
	start := time.Now().Add(time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range lg.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := time.Now()
			var target []byte
			for {
				k := int(next.Add(1) - 1)
				if k >= len(reqs) {
					return
				}
				due := start.Add(reqs[k].due)
				sleepUntil(due)
				o := &outs[k]
				o.send = time.Now()
				o.late = max(0, o.send.Sub(maxTime(due, free)))
				target = appendTarget(target[:0], reqs[k], pool)
				o.fail = lg.do(c, target, reqs[k])
				o.done = time.Now()
				o.lat = o.done.Sub(due) - o.late
				free = o.done
			}
		}()
	}
	wg.Wait()
	return start, outs
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// appendTarget appends r's request target, /query?q=...
func appendTarget(b []byte, r request, pool []int64) []byte {
	b = append(append(b, "/query?q="...), opNames[r.op]...)
	switch r.op {
	case opBoth:
		b = strconv.AppendInt(append(b, "&from="...), pool[r.u], 10)
	case opReach, opDist:
		b = strconv.AppendInt(append(b, "&from="...), pool[r.u], 10)
		b = strconv.AppendInt(append(b, "&to="...), pool[r.v], 10)
	}
	return b
}

func (lg *loadgen) do(c *conn, target []byte, r request) failKind {
	status, body, err := c.get(target)
	switch {
	case err != nil:
		if ne := net.Error(nil); errors.As(err, &ne) && ne.Timeout() {
			return failTimeout
		}
		return failError
	case status == http.StatusTooManyRequests:
		return failShed
	case status != http.StatusOK:
		return failStatus
	case !lg.check(r, body):
		return failWrong
	}
	return failNone
}

// conn is one keep-alive HTTP/1.1 connection driven by its worker
// goroutine alone: the request is written and the response read on
// that goroutine, so the generator adds no goroutine hand-offs or
// per-request buffers to what it measures.
type conn struct {
	addr    string
	timeout time.Duration // per request, from send
	nc      net.Conn
	br      *bufio.Reader
	req     []byte
	body    []byte
}

// get sends GET target and returns the status and the body, which
// stays valid until the next call.
func (c *conn) get(target []byte) (int, []byte, error) {
	if c.nc == nil {
		nc, err := net.DialTimeout("tcp", c.addr, c.timeout)
		if err != nil {
			return 0, nil, err
		}
		c.nc, c.br = nc, bufio.NewReader(nc)
	}
	if err := c.nc.SetDeadline(time.Now().Add(c.timeout)); err != nil {
		c.reset()
		return 0, nil, err
	}
	c.req = append(append(append(c.req[:0], "GET "...), target...), " HTTP/1.1\r\nHost: perfbench\r\n\r\n"...)
	if _, err := c.nc.Write(c.req); err != nil {
		c.reset()
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.reset()
		return 0, nil, err
	}
	c.body = c.body[:0]
	for {
		c.body = slices.Grow(c.body, 4096)
		n, err := resp.Body.Read(c.body[len(c.body):cap(c.body)])
		c.body = c.body[:len(c.body)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			resp.Body.Close()
			c.reset()
			return 0, nil, err
		}
	}
	resp.Body.Close()
	if resp.Close {
		c.reset()
	}
	return resp.StatusCode, c.body, nil
}

// reset closes the connection; the next get dials a new one.
func (c *conn) reset() {
	if c.nc != nil {
		c.nc.Close()
		c.nc, c.br = nil, nil
	}
}

// checkAnswer reports whether body is the server's correct answer to
// r according to o. Bodies are compared first with the bytes the
// server's JSON encoding gives the expected answer, which costs the
// generator no allocation; any other body is decoded and compared
// field by field, so a change of JSON layout alone is not a failure.
func (o *oracle) checkAnswer(r request, body []byte) bool {
	var buf [256]byte
	if bytes.Equal(body, o.appendAnswer(buf[:0], r)) {
		return true
	}
	var resp serve.Response
	if err := json.Unmarshal(body, &resp); err != nil || resp.Query != opNames[r.op] {
		return false
	}
	switch r.op {
	case opBoth:
		return resp.From == o.pool[r.u] && slices.Equal(resp.Neighbors, o.nbr[r.u])
	case opReach:
		return resp.Reachable != nil && *resp.Reachable == (o.dist[r.u][r.v] >= 0)
	case opDist:
		return resp.Distance != nil && *resp.Distance == int64(o.dist[r.u][r.v])
	case opComponents:
		return resp.Count != nil && *resp.Count == o.components
	case opDegrees:
		return resp.MinDegree != nil && resp.MaxDegree != nil &&
			*resp.MinDegree == o.minDeg && *resp.MaxDegree == o.maxDeg
	}
	return false
}

// appendAnswer appends the JSON encoding of the expected
// serve.Response to r, as the server writes it.
func (o *oracle) appendAnswer(b []byte, r request) []byte {
	b = append(append(append(b, `{"query":"`...), opNames[r.op]...), '"')
	switch r.op {
	case opBoth:
		b = strconv.AppendInt(append(b, `,"from":`...), o.pool[r.u], 10)
		if ns := o.nbr[r.u]; len(ns) > 0 {
			b = append(b, `,"neighbors":[`...)
			for i, n := range ns {
				if i > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendInt(b, n, 10)
			}
			b = append(b, ']')
		}
	case opReach, opDist:
		b = strconv.AppendInt(append(b, `,"from":`...), o.pool[r.u], 10)
		b = strconv.AppendInt(append(b, `,"to":`...), o.pool[r.v], 10)
		if d := o.dist[r.u][r.v]; r.op == opReach {
			b = strconv.AppendBool(append(b, `,"reachable":`...), d >= 0)
		} else {
			b = strconv.AppendInt(append(b, `,"distance":`...), int64(d), 10)
		}
	case opComponents:
		b = strconv.AppendInt(append(b, `,"count":`...), o.components, 10)
	case opDegrees:
		b = strconv.AppendInt(append(b, `,"minDegree":`...), o.minDeg, 10)
		b = strconv.AppendInt(append(b, `,"maxDegree":`...), o.maxDeg, 10)
	}
	return append(b, "}\n"...)
}

// stepResult summarises one rate step of the ladder.
type stepResult struct {
	Rate        float64        `json:"rate_qps"`
	Requests    int            `json:"requests"`
	AchievedQPS float64        `json:"achieved_qps"`
	P50us       float64        `json:"p50_us"`
	P90us       float64        `json:"p90_us"`
	Tail        float64        `json:"tail_percentile"`
	TailUs      float64        `json:"tail_us"`
	P99us       float64        `json:"p99_us"`
	Failed      int            `json:"failed"`
	Failures    map[string]int `json:"failures,omitempty"`
	LateP99us   float64        `json:"late_p99_us"`
	Valid       bool           `json:"generator_on_time"`
	Pass        bool           `json:"meets_limit"`
	Refine      bool           `json:"refinement,omitempty"`
}

// latencies returns the due-time latencies in µs of the outcomes whose
// request matches keep. A failed request counts as the client timeout,
// so it misses any latency limit.
func latencies(reqs []request, outs []outcome, keep func(request) bool) []float64 {
	var xs []float64
	for i, o := range outs {
		if keep != nil && !keep(reqs[i]) {
			continue
		}
		if o.fail != failNone {
			xs = append(xs, max(us(o.lat), us(clientTimeout)))
		} else {
			xs = append(xs, us(o.lat))
		}
	}
	return xs
}

// summarize computes a step's figures. A step meets the limit when no
// request failed and its p99 from due time is within limit; it is
// valid when the generator's own lateness p99 stays within lateLimit.
func summarize(rate float64, start time.Time, reqs []request, outs []outcome, limit, lateLimit time.Duration) stepResult {
	st := stepResult{Rate: rate, Requests: len(outs)}
	var last time.Time
	late := make([]float64, 0, len(outs))
	for _, o := range outs {
		if o.fail != failNone {
			st.Failed++
			if st.Failures == nil {
				st.Failures = map[string]int{}
			}
			st.Failures[failNames[o.fail]]++
		}
		if o.done.After(last) {
			last = o.done
		}
		late = append(late, us(o.late))
	}
	if len(outs) > 0 {
		st.AchievedQPS = float64(len(outs)) / last.Sub(start).Seconds()
	}
	lat := latencies(reqs, outs, nil)
	st.P50us = percentile(lat, 50)
	st.P90us = percentile(lat, 90)
	st.P99us = percentile(lat, 99)
	st.Tail = tailPercentile(len(lat))
	if st.Tail > 0 {
		st.TailUs = percentile(lat, st.Tail)
	}
	st.LateP99us = percentile(late, 99)
	st.Valid = st.LateP99us <= us(lateLimit)
	st.Pass = st.Failed == 0 && st.P99us <= us(limit)
	return st
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
