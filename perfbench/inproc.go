package main

import (
	"runtime"
	"time"
)

// minReps is the fewest job repetitions an in-process run times, however
// short --seconds is: the medians need a few samples.
const minReps = 3

// tally sums the counts the layers return (Stats, Result fields) over the
// traced repetitions.
type tally map[string]float64

// ratio is t[num]/t[den], 0 when the denominator is 0.
func (t tally) ratio(num, den string) float64 {
	if t[den] == 0 {
		return 0
	}
	return t[num] / t[den]
}

// jobRep runs the workload's fixed job once. It reports the wall time of
// each call into the engines and conversions, in the job's fixed order (input
// cloning and oracle checks are the benchmark's own work and excluded), and
// the firings they committed. tr is nil on untraced repetitions; root is the
// repetition's span.
type jobRep func(tr *tracer, root int, counts tally) (calls []time.Duration, firings int64)

// timeJob repeats the fixed job until the run's seconds are spent and sets
// firings_per_s from the typical job time: the sum over the job's calls of
// each call's median over the untraced repetitions. A hiccup of the host or
// the collector lands in one call of one repetition, which a per-call
// median drops, where it would move the whole repetition's total. In a traced
// run the repetitions alternate between traced and untraced, so the
// difference of their medians is the tracing overhead, and the traced ones
// feed the per-layer metrics through counts.
func timeJob(cfg config, tr *tracer, out *outcome, counts tally, rep jobRep) {
	var totals, traced, untraced []float64
	var perCall [][]float64
	var firings int64
	var gc0, gc1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&gc0)
	out.notef("live heap before the timed phase: %.1f MiB", float64(gc0.HeapAlloc)/(1<<20))
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	var tracedWall time.Duration
	for i := 0; i < minReps || time.Now().Before(deadline); i++ {
		var t *tracer
		if tr != nil && i%2 == 0 {
			t = tr
		}
		// Each repetition starts from a collected heap, so it does not pay
		// for the garbage of the one before.
		runtime.GC()
		start := time.Now()
		root := t.start("bench.rep", "", noSpan, int64(i))
		calls, f := rep(t, root, counts)
		t.end(root, f)
		wall := time.Since(start)
		firings = f
		if t != nil {
			traced = append(traced, ms(wall))
			tracedWall += wall
			counts["reps"]++
			continue
		}
		untraced = append(untraced, ms(wall))
		var total time.Duration
		for k, d := range calls {
			if k == len(perCall) {
				perCall = append(perCall, nil)
			}
			perCall[k] = append(perCall[k], ms(d))
			total += d
		}
		totals = append(totals, ms(total))
	}
	runtime.ReadMemStats(&gc1)

	typical := 0.0
	for _, ds := range perCall {
		typical += median(ds)
	}
	out.setN("firings_per_s", "1/s", float64(firings)/(typical/1e3), len(totals))
	out.notef("job: %d firings and %d engine calls per repetition; typical engine time (sum of per-call medians) %.1f ms; totals over %d untraced repetitions: min %.1f, q1 %.1f, median %.1f, q3 %.1f, max %.1f ms",
		firings, len(perCall), typical, len(totals), quantile(totals, 0), quantile(totals, 0.25), median(totals), quantile(totals, 0.75), quantile(totals, 1))
	if tr == nil {
		return
	}
	reps := float64(len(traced) + len(untraced))
	out.set("go.gc_cycles", "count", float64(gc1.NumGC-gc0.NumGC)/reps)
	out.set("go.gc_pause_ms", "ms", float64(gc1.PauseTotalNs-gc0.PauseTotalNs)/1e6/reps)
	out.set("trace.overhead_pct", "%", 100*(median(traced)/median(untraced)-1))
	accountWall(tr, out, "bench.rep", tracedWall)
}

// accountWall reports how the layers' span self times add up to the wall of
// the traced repetitions, and the remainder no span covers.
func accountWall(tr *tracer, out *outcome, root string, wall time.Duration) {
	var covered time.Duration
	for layer, d := range tr.selfTimes(root) {
		out.set("trace.self_ms."+layer, "ms", ms(d))
		covered += d
	}
	out.set("trace.wall_ms", "ms", ms(wall))
	out.set("trace.uncovered_ms", "ms", ms(wall-covered))
}

// allocsAround runs f and, when traced, adds its heap allocations and bytes
// to counts. ReadMemStats stops the world, so untraced runs skip it.
func allocsAround(traced bool, counts tally, f func()) {
	if !traced {
		f()
		return
	}
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	counts["allocs"] += float64(b.Mallocs - a.Mallocs)
	counts["bytes"] += float64(b.TotalAlloc - a.TotalAlloc)
}

// setups is how many times an in-process run sets its workload up. A set-up
// takes tens of milliseconds, where a scheduling hiccup is a large share, so
// the median is taken over many.
const setups = 31

// setupMedian runs the workload's set-up n times, each from a collected
// heap, and reports the median as setup_s; the last set-up's state is the one
// the run uses. Spans of the set-up sit under a "setup.run" root, which the
// timed-wall accounting skips.
func setupMedian(n int, tr *tracer, out *outcome, setup func(t *tracer, root int) error) error {
	var ds []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		start := time.Now()
		root := tr.start("setup.run", "", noSpan, int64(i))
		err := setup(tr, root)
		tr.end(root, 0)
		if err != nil {
			return err
		}
		ds = append(ds, time.Since(start).Seconds())
	}
	out.setN("setup_s", "s", median(ds), len(ds))
	return nil
}

// selfPeakRSS sets peak_rss_mb from this process's high-water mark.
func selfPeakRSS(out *outcome) error {
	mb, err := peakRSSMiB("self")
	if err != nil {
		return err
	}
	out.set("peak_rss_mb", "MiB", mb)
	return nil
}
