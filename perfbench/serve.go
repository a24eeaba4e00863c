package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os/exec"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	gf "repro"
	"repro/client"
	"repro/internal/paper"
	"repro/internal/schema"
)

// The serve workload's fixed load. The rates are absolute and sit below the
// sustained rate of gammad at the commit that introduced this benchmark on a
// 2-core host, so a slower server shows as higher latency at the same load.
const (
	loRate = 300 // requests per second of the lo phase
	hiRate = 900 // requests per second of the hi phase
	// latencyLimitMS is the p99 a ladder rung must meet to count as
	// sustained.
	latencyLimitMS = 50
	// poolSize is the number of generated instances per request kind.
	poolSize = 64
	// warmupRequests fills gammad's terminal-run ring (1024 runs by
	// default), so the timed phases see the server's steady-state heap.
	warmupRequests = 1200
	// statsEvery thins the traced run's RunStats fetches, which are extra
	// requests, so the generator keeps its schedule at the hi rate.
	statsEvery = 3
	// capacityWindow is the request count of one closed-loop window.
	capacityWindow = 200
	// serveSetups is how many times a run starts and warms gammad up.
	serveSetups = 7
)

// ladder is the fixed sequence of offered rates sustained_rps climbs.
var ladder = []float64{400, 600, 800, 1000, 1200, 1500, 2000, 2500, 3000}

// reqCase is one generated request and its oracle.
type reqCase struct {
	kind  string
	req   client.RunRequest
	check func(*client.RunResponse) bool
}

// servePool generates poolSize instances of each request kind: the paper's
// Example 1 and a 16-element tournament as Gamma source, and Fig. 1 as dfir
// on the seq and matrix engines. Every input value is drawn from the seed.
func servePool(seed int64) []reqCase {
	rng := rand.New(rand.NewSource(seed))
	tour := tournamentSource(4)
	var pool []reqCase
	for i := 0; i < poolSize; i++ {
		x, y, k, j := rng.Int63n(100), rng.Int63n(100), rng.Int63n(100), rng.Int63n(100)
		m := (x + y) - k*j
		init := fmt.Sprintf("{[%d, 'A1'], [%d, 'B1'], [%d, 'C1'], [%d, 'D1']}", x, y, k, j)
		pool = append(pool, reqCase{kind: "ex1",
			req:   client.NewGammaRequest(paper.Example1GammaListing, init, client.RunSpec{}),
			check: multisetIs(gf.PairElem(gf.Int(m), "m"))})

		xs := distinctInts(rng, 16)
		var b bytes.Buffer
		b.WriteString("{")
		for i, v := range xs {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "[%d, 'L0']", v)
		}
		b.WriteString("}")
		pool = append(pool, reqCase{kind: "tournament",
			req:   client.NewGammaRequest(tour, b.String(), client.RunSpec{}),
			check: multisetIs(gf.PairElem(gf.Int(minOf(xs)), "L4"))})

		gx, gy, gk, gj := rng.Int63n(100), rng.Int63n(100), rng.Int63n(100), rng.Int63n(100)
		dfir := gf.MarshalGraph(paper.Fig1GraphWith(gx, gy, gk, gj))
		want := strconv.FormatInt((gx+gy)-gk*gj, 10) + "@0"
		for _, eng := range []string{gf.EngineSeq, gf.EngineMatrix} {
			pool = append(pool, reqCase{kind: "fig1-" + eng,
				req:   client.NewGraphRequest(dfir, client.RunSpec{Engine: eng}),
				check: outputIs("m", want)})
		}
	}
	return pool
}

// multisetIs checks a Gamma response's stable multiset is exactly {want}.
func multisetIs(want gf.Tuple) func(*client.RunResponse) bool {
	return func(r *client.RunResponse) bool {
		if r.Result == nil {
			return false
		}
		m, err := gf.ParseMultiset(r.Result.Multiset)
		return err == nil && m.Len() == 1 && m.Contains(want)
	}
}

// outputIs checks a dataflow response carries exactly one token, want, on
// label.
func outputIs(label, want string) func(*client.RunResponse) bool {
	return func(r *client.RunResponse) bool {
		return r.Result != nil && len(r.Result.Outputs) == 1 &&
			len(r.Result.Outputs[label]) == 1 && r.Result.Outputs[label][0] == want
	}
}

// gammad is a gammad child process on a loopback port.
type gammad struct {
	cmd    *exec.Cmd
	exited chan error
	c      *client.Client
	tr     *http.Transport
}

// startGammad spawns gammad with default flags on a free loopback port and
// waits for its first healthy /v1/healthz.
func startGammad(path string) (*gammad, error) {
	if path == "" {
		return nil, errors.New("serve: no gammad binary (--gammad)")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("serve: pick a port: %w", err)
	}
	addr := l.Addr().String()
	l.Close()

	cmd := exec.Command(path, "-addr", addr)
	// The child dies with the benchmark, even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("serve: start gammad: %w", err)
	}
	g := &gammad{cmd: cmd, exited: make(chan error, 1)}
	go func() { g.exited <- cmd.Wait() }()
	g.tr = &http.Transport{MaxIdleConnsPerHost: closedConns()}
	g.c = client.New("http://" + addr)
	g.c.HTTPClient = &http.Client{Transport: g.tr}

	deadline := time.Now().Add(20 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		h, err := g.c.Health(ctx)
		cancel()
		if err == nil && h.Status == "ok" {
			return g, nil
		}
		select {
		case werr := <-g.exited:
			g.exited <- werr
			return nil, fmt.Errorf("serve: gammad exited before it was healthy: %v", werr)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			g.stop()
			return nil, fmt.Errorf("serve: gammad not healthy after 20s: %v", err)
		}
	}
}

// stop interrupts gammad, waits for it to exit (killing it after a grace
// period) and returns its peak resident memory, read before the signal.
func (g *gammad) stop() float64 {
	peak, _ := peakRSSMiB(strconv.Itoa(g.cmd.Process.Pid))
	g.tr.CloseIdleConnections()
	_ = g.cmd.Process.Signal(syscall.SIGINT)
	select {
	case <-g.exited:
	case <-time.After(5 * time.Second):
		_ = g.cmd.Process.Kill()
		<-g.exited
	}
	return peak
}

// sample is one request of the load generator.
type sample struct {
	kind     string
	traced   bool
	due      time.Time
	sent     time.Time
	done     time.Time
	failed   bool
	err      error
	rejected bool
	steps    int64
	// queueMS and runMS come from GET /v1/runs/{id}/stats (traced run only).
	queueMS, runMS float64
	hasStats       bool
}

func (s *sample) latencyMS() float64 { return ms(s.done.Sub(s.due)) }
func (s *sample) rttMS() float64     { return ms(s.done.Sub(s.sent)) }
func (s *sample) lateMS() float64    { return ms(s.sent.Sub(s.due)) }

// loadgen sends pool requests: the open loops over at most NumCPU
// connections, the closed loops over closedConns.
type loadgen struct {
	c     *client.Client
	pool  []reqCase
	seq   atomic.Int64
	tr    *tracer
	stats bool // fetch RunStats of every statsEvery-th request (traced run)
	// tracedEvery makes every tracedEvery-th request ask for a server
	// trace; 0 asks for none.
	tracedEvery int64
}

// send issues request k of the pool and fills s.
func (lg *loadgen) send(ctx context.Context, s *sample, root int) {
	k := lg.seq.Add(1) - 1
	rc := lg.pool[int(k)%len(lg.pool)]
	req := rc.req
	req.Spec.Trace = lg.tracedEvery > 0 && k%lg.tracedEvery == 0
	s.kind, s.traced = rc.kind, req.Spec.Trace
	id := lg.tr.start("client.run", rc.kind, root, k)
	s.sent = time.Now()
	resp, err := lg.c.Run(ctx, req)
	s.done = time.Now()
	lg.tr.end(id, 1)
	var busy *client.BusyError
	s.rejected = errors.As(err, &busy)
	s.failed = err != nil || !rc.check(resp)
	s.err = err
	if err != nil || resp == nil {
		return
	}
	if resp.Result != nil {
		s.steps = resp.Result.Steps
	}
	if lg.stats && k%statsEvery == 0 {
		id := lg.tr.start("client.stats", rc.kind, root, k)
		st, err := lg.c.Stats(ctx, resp.ID)
		lg.tr.end(id, 1)
		if err == nil {
			s.queueMS, s.runMS, s.hasStats = st.QueueWaitMS, st.WallMS, true
		}
	}
}

// openLoop offers rate requests per second for dur: request k is due at
// start + k/rate whether or not earlier ones finished, and its latency is
// counted from when it was due. At most NumCPU requests are in flight.
func (lg *loadgen) openLoop(ctx context.Context, rate float64, dur time.Duration) []sample {
	n := int(rate * dur.Seconds())
	samples := make([]sample, n)
	start := time.Now().Add(5 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= n {
					return
				}
				s := &samples[k]
				s.due = start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
				if d := time.Until(s.due); d > 0 {
					time.Sleep(d)
				}
				root := lg.tr.start("loadgen.request", "", noSpan, int64(k))
				lg.send(ctx, s, root)
				lg.tr.end(root, 1)
			}
		}()
	}
	wg.Wait()
	return samples
}

// closedConns is the connection count of the closed loops: enough requests
// in flight that the server always has the next one queued, so capacity is
// not paced by how fast an idle CPU wakes up.
func closedConns() int { return 4 * runtime.NumCPU() }

// closedLoopN sends n requests over closedConns connections, each sent as
// soon as the connection's previous one returns.
func (lg *loadgen) closedLoopN(ctx context.Context, n int) []sample {
	samples := make([]sample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < closedConns(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < n; k = int(next.Add(1) - 1) {
				samples[k].due = time.Now()
				lg.send(ctx, &samples[k], noSpan)
			}
		}()
	}
	wg.Wait()
	return samples
}

// capacity keeps closedConns requests in flight back to back for dur, in
// windows of capacityWindow, and returns every sample and the median over
// windows of the firings the server committed per second.
func (lg *loadgen) capacity(ctx context.Context, dur time.Duration) ([]sample, float64) {
	var all []sample
	var rates []float64
	for end := time.Now().Add(dur); time.Now().Before(end); {
		start := time.Now()
		ss := lg.closedLoopN(ctx, capacityWindow)
		wall := time.Since(start)
		var firings int64
		for _, s := range ss {
			firings += s.steps
		}
		rates = append(rates, float64(firings)/wall.Seconds())
		all = append(all, ss...)
	}
	return all, median(rates)
}

func pick(ss []sample, f func(*sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i := range ss {
		out[i] = f(&ss[i])
	}
	return out
}

// account adds every sample to the outcome's operation count; a failed,
// refused or disagreeing request is a failed operation.
func account(out *outcome, ss []sample, phase string) {
	for i := range ss {
		s := &ss[i]
		what := phase + " " + s.kind
		if s.rejected {
			out.op(errors.New("refused (429)"), false, what)
			continue
		}
		out.op(s.err, !s.failed, what)
	}
}

// sustained climbs the ladder, rungLen per rung, and returns the highest
// rate whose p99 latency meets the limit with no failure and no backlog (the
// generator never fell a limit behind its schedule).
func (lg *loadgen) sustained(ctx context.Context, out *outcome, rungLen time.Duration) float64 {
	best := 0.0
	for _, rate := range ladder {
		ss := lg.openLoop(ctx, rate, rungLen)
		account(out, ss, fmt.Sprintf("ladder %.0f/s", rate))
		failed := false
		for i := range ss {
			failed = failed || ss[i].failed
		}
		p99 := quantile(pick(ss, (*sample).latencyMS), 0.99)
		late := quantile(pick(ss, (*sample).lateMS), 0.99)
		if failed || p99 > latencyLimitMS || late > latencyLimitMS {
			break
		}
		best = rate
	}
	return best
}

func runServe(cfg config, tr *tracer) (*outcome, error) {
	out := newOutcome()
	ctx := context.Background()
	var srv *gammad
	var pool []reqCase
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	err := setupMedian(serveSetups, tr, out, func(t *tracer, root int) error {
		if srv != nil {
			srv.stop()
			srv = nil
		}
		pool = servePool(cfg.seed)
		var err error
		if srv, err = startGammad(cfg.gammad); err != nil {
			return err
		}
		// Warm-up: every kind, over the connections the phases use.
		// Failed requests count like any other; set-up fails only when
		// most of them do.
		lg := &loadgen{c: srv.c, pool: pool, tracedEvery: cfg.tracedEvery}
		ss := lg.closedLoopN(ctx, warmupRequests)
		account(out, ss, "warm-up")
		failed := 0
		for i := range ss {
			if ss[i].failed {
				failed++
			}
		}
		if 2*failed > len(ss) {
			return fmt.Errorf("serve: %d of %d warm-up requests failed", failed, len(ss))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	sec := func(share float64) time.Duration {
		return time.Duration(share * cfg.seconds * float64(time.Second))
	}
	lg := &loadgen{c: srv.c, pool: pool, tracedEvery: cfg.tracedEvery}
	if tr == nil {
		// The end-to-end run measures capacity for the whole run: windows
		// of a closed loop, whose median is steadier than any one phase.
		closed, firingsPerS := lg.capacity(ctx, sec(1))
		account(out, closed, "closed loop")
		out.set("peak_rss_mb", "MiB", srv.stop())
		srv = nil
		out.setN("firings_per_s", "1/s", firingsPerS, len(closed))
		return out, nil
	}

	// The lo and hi phases run untraced, so the latency figures never
	// include tracing or RunStats fetches.
	lo := lg.openLoop(ctx, loRate, sec(0.3))
	hi := lg.openLoop(ctx, hiRate, sec(0.2))
	account(out, lo, "lo")
	account(out, hi, "hi")
	// Traced twins of the two phases feed the per-layer metrics; the
	// untraced lo phase is the baseline of the tracing overhead.
	lg.tr, lg.stats = tr, true
	phaseStart := time.Now()
	tracedLo := lg.openLoop(ctx, loRate, sec(0.15))
	tracedHi := lg.openLoop(ctx, hiRate, sec(0.1))
	tracedWall := time.Since(phaseStart)
	lg.tr, lg.stats = nil, false
	account(out, tracedLo, "lo traced")
	account(out, tracedHi, "hi traced")
	closed, firingsPerS := lg.capacity(ctx, sec(0.25))
	account(out, closed, "closed loop")
	rps := lg.sustained(ctx, out, sec(0.25)/time.Duration(len(ladder)))
	out.set("peak_rss_mb", "MiB", srv.stop())
	srv = nil

	out.setN("firings_per_s", "1/s", firingsPerS, len(closed))
	lat := func(ss []sample) []float64 { return pick(ss, (*sample).latencyMS) }
	for _, p := range []struct {
		name string
		ss   []sample
	}{{"lo", lo}, {"hi", hi}} {
		out.setN("serve."+p.name+".p50_ms", "ms", median(lat(p.ss)), len(p.ss))
		out.setN("serve."+p.name+".p99_ms", "ms", quantile(lat(p.ss), 0.99), len(p.ss))
	}
	out.set("serve.sustained_rps", "1/s", rps)
	out.notef("offered rates: lo %d/s, hi %d/s; ladder limit p99 ≤ %d ms", loRate, hiRate, latencyLimitMS)
	serveLayerMetrics(tr, out, pool, append(tracedLo, tracedHi...), lo, tracedLo, tracedWall)
	return out, nil
}

// serveLayerMetrics derives the per-layer metrics of the traced serve run:
// round trips and server phases from the load, and the wire-layer calls
// timed on the identical request bodies.
func serveLayerMetrics(tr *tracer, out *outcome, pool []reqCase, ss, untracedLo, tracedLo []sample, wall time.Duration) {
	rtt := pick(ss, (*sample).rttMS)
	out.setN("client.rtt_p50_ms", "ms", median(rtt), len(rtt))
	out.setN("client.rtt_p99_ms", "ms", quantile(rtt, 0.99), len(rtt))
	out.setN("loadgen.late_p99_ms", "ms", quantile(pick(ss, (*sample).lateMS), 0.99), len(ss))
	var queue, run, other []float64
	rejected := 0
	for i := range ss {
		s := &ss[i]
		if s.rejected {
			rejected++
		}
		if s.hasStats {
			queue = append(queue, s.queueMS)
			run = append(run, s.runMS)
			other = append(other, s.rttMS()-s.queueMS-s.runMS)
		}
	}
	out.setN("service.queue_wait_p50_ms", "ms", median(queue), len(queue))
	out.setN("service.queue_wait_p99_ms", "ms", quantile(queue, 0.99), len(queue))
	out.setN("service.run_ms", "ms", median(run), len(run))
	out.setN("service.other_ms", "ms", median(other), len(other))
	out.set("service.rejected", "count", float64(rejected))

	// Traced minus untraced round trip, per kind, averaged over kinds.
	var extra []float64
	for _, kind := range []string{"ex1", "tournament", "fig1-seq", "fig1-matrix"} {
		var on, off []float64
		for i := range ss {
			if ss[i].kind == kind {
				if ss[i].traced {
					on = append(on, ss[i].rttMS())
				} else {
					off = append(off, ss[i].rttMS())
				}
			}
		}
		if len(on) > 0 && len(off) > 0 {
			extra = append(extra, median(on)-median(off))
		}
	}
	if len(extra) > 0 {
		out.set("service.traced_extra_ms", "ms", mean(extra))
	} else {
		out.notef("service.traced_extra_ms not measured: no request asked for a trace (--serve-traced-every)")
	}

	lat := func(ss []sample) []float64 { return pick(ss, (*sample).latencyMS) }
	out.set("trace.overhead_pct", "%", 100*(median(lat(tracedLo))/median(lat(untracedLo))-1))
	// The generator's connections are the capacity the spans account for.
	accountWall(tr, out, "loadgen.request", wall*time.Duration(runtime.NumCPU()))

	wireLayerMetrics(out, pool)
}

// wireLayerMetrics times, in this process, the public calls gammad makes on
// each request and response: envelope decode, program and multiset parse,
// dfir unmarshal, and the response encode.
func wireLayerMetrics(out *outcome, pool []reqCase) {
	var decode, parseProg, parseInit, unmarshal, encode []float64
	timeUS := func(dst *[]float64, f func() error) {
		start := time.Now()
		err := f()
		d := float64(time.Since(start)) / float64(time.Microsecond)
		out.op(err, true, "wire call")
		*dst = append(*dst, d)
	}
	for rep := 0; rep < 5; rep++ {
		for _, rc := range pool {
			body, err := rc.req.Encode()
			if err != nil {
				out.op(err, false, "encode request")
				continue
			}
			var req *client.RunRequest
			timeUS(&decode, func() (err error) { req, err = schema.DecodeRunRequest(body); return err })
			if req == nil {
				continue
			}
			if req.Kind == schema.KindGamma {
				timeUS(&parseProg, func() error { _, err := gf.ParseGammaFile(req.Program); return err })
				timeUS(&parseInit, func() error { _, err := gf.ParseMultiset(req.Init); return err })
			} else {
				timeUS(&unmarshal, func() error { _, err := gf.UnmarshalGraph(req.Graph); return err })
			}
			resp := &client.RunResponse{Version: schema.WireVersion, ID: "r-1", State: schema.StateDone,
				Kind: req.Kind, Result: &client.RunResult{Multiset: req.Init, Steps: 3, WallMS: 0.01}}
			timeUS(&encode, func() error {
				var b bytes.Buffer
				enc := json.NewEncoder(&b)
				enc.SetIndent("", "  ")
				return enc.Encode(resp)
			})
		}
	}
	out.setN("schema.decode_us", "us", median(decode), len(decode))
	out.setN("gammalang.parse_us", "us", median(parseProg), len(parseProg))
	out.setN("multiset.parse_us", "us", median(parseInit), len(parseInit))
	out.setN("dfir.unmarshal_us", "us", median(unmarshal), len(unmarshal))
	out.setN("schema.encode_us", "us", median(encode), len(encode))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
