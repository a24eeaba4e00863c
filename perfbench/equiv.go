package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	gf "repro"
	"repro/internal/dataflow"
	"repro/internal/paper"
)

// Sizes of the equiv workload: wideGraphs Algorithm 2-style wide graphs of
// wideWidth independent instances at each of two depths. Many narrow graphs
// rather than one wide one keep each engine call's working set in the cache,
// so the figures measure the engines and not the host's memory traffic.
const (
	wideWidth  = 128
	wideGraphs = 8
)

var wideDepths = [2]int{2, 8}

// largeWidth and largeDepth size the one wide graph the traced run times on
// every dataflow engine beside the job: the width at which the parallel
// engine has been measured tying the sequential one. The timed job stays at
// wideWidth, whose working set is small enough for steady figures.
const (
	largeWidth = 8192
	largeDepth = 4
)

// graphCase is one graph of the equiv job and its oracle: the outputs the
// generator computed arithmetically, as "value@tag" strings per terminal
// label (values only, tag -1, where the tag is the engine's business).
type graphCase struct {
	class string
	g     *gf.Graph
	want  map[string][]string
}

// dfEngines are the dataflow engines every graph runs on.
var dfEngines = []string{gf.EngineSeq, gf.EngineMatrix, gf.EngineParallel}

// vnSources are the repository's von Neumann fixtures with their known
// results; the benchmark compiles them with CompileSource.
var vnSources = []struct {
	file, label string
	want        int64
}{
	{"affine.vn", "y", 49},
	{"sumsquares.vn", "s", 385},
	{"gcd.vn", "r", -21},
}

// wideGraph builds width independent copies of a conditional expression,
// the shape Algorithm 2 gives a data-parallel Gamma program: x is compared
// with 500 and steered into either a chain of depth +d steps (true) or of
// depth ×2 steps (false). The seed draws every x; the oracle is the same
// arithmetic done here.
func wideGraph(rng *rand.Rand, width, depth int) (*gf.Graph, map[string][]string, error) {
	g := gf.NewGraph(fmt.Sprintf("wide%dx%d", width, depth))
	want := map[string][]string{}
	var werr error
	connect := func(from dataflow.NodeID, fp int, to dataflow.NodeID, tp int, label string) {
		if _, err := g.Connect(from, fp, to, tp, label); err != nil && werr == nil {
			werr = err
		}
	}
	for i := 0; i < width; i++ {
		x := rng.Int63n(1000)
		cx := g.AddConst(fmt.Sprintf("x%d", i), gf.Int(x))
		c := g.AddCompareImm(fmt.Sprintf("c%d", i), "<", gf.Int(500))
		st := g.AddSteer(fmt.Sprintf("st%d", i))
		connect(cx, 0, c, 0, fmt.Sprintf("e%d.c", i))
		connect(cx, 0, st, 0, fmt.Sprintf("e%d.d", i))
		connect(c, 0, st, 1, fmt.Sprintf("e%d.s", i))
		tn, tp := st, dataflow.PortTrue
		fn, fp := st, dataflow.PortFalse
		tv, fv := x, x
		for d := 0; d < depth; d++ {
			t := g.AddArithImm(fmt.Sprintf("t%d.%d", i, d), "+", gf.Int(int64(d+1)))
			connect(tn, tp, t, 0, fmt.Sprintf("e%d.t%d", i, d))
			tn, tp, tv = t, 0, tv+int64(d+1)
			f := g.AddArithImm(fmt.Sprintf("f%d.%d", i, d), "*", gf.Int(2))
			connect(fn, fp, f, 0, fmt.Sprintf("e%d.f%d", i, d))
			fn, fp, fv = f, 0, fv*2
		}
		outT, outF := fmt.Sprintf("outT%d", i), fmt.Sprintf("outF%d", i)
		if _, err := g.ConnectOut(tn, tp, outT); err != nil {
			return nil, nil, err
		}
		if _, err := g.ConnectOut(fn, fp, outF); err != nil {
			return nil, nil, err
		}
		if x < 500 {
			want[outT] = []string{fmt.Sprintf("%d@0", tv)}
		} else {
			want[outF] = []string{fmt.Sprintf("%d@0", fv)}
		}
	}
	return g, want, werr
}

// equivCases generates the equiv job from the seed: the two wide graphs,
// Fig. 1 and the observable Fig. 2 loop with seeded inputs, and the .vn
// fixtures compiled from source.
func equivCases(seed int64, tr *tracer, root int) ([]graphCase, error) {
	rng := rand.New(rand.NewSource(seed))
	var cases []graphCase
	for i := 0; i < wideGraphs; i++ {
		for _, d := range wideDepths {
			id := tr.start("dataflow.build", "wide", root, 0)
			g, want, err := wideGraph(rng, wideWidth, d)
			if err != nil {
				return nil, fmt.Errorf("wide graph: %w", err)
			}
			tr.end(id, int64(len(g.Nodes)))
			cases = append(cases, graphCase{class: fmt.Sprintf("wide-d%d", d), g: g, want: want})
		}
	}

	x, y, k, j := rng.Int63n(100), rng.Int63n(100), rng.Int63n(100), rng.Int63n(100)
	cases = append(cases, graphCase{class: "fig1", g: paper.Fig1GraphWith(x, y, k, j),
		want: map[string][]string{"m": {strconv.FormatInt((x+y)-(k*j), 10) + "@-1"}}})

	// The loop runs z iterations of x += y; the output's tag is the
	// iteration it left on, so the oracle checks the value only.
	lx, ly, lz := rng.Int63n(100), rng.Int63n(100), 3+rng.Int63n(10)
	cases = append(cases, graphCase{class: "fig2", g: paper.Fig2GraphObservable(lx, ly, lz),
		want: map[string][]string{"xout": {strconv.FormatInt(lx+ly*lz, 10) + "@-1"}}})

	for _, vn := range vnSources {
		src, err := os.ReadFile(filepath.Join("testdata", vn.file))
		if err != nil {
			return nil, err
		}
		id := tr.start("compiler.compile", vn.file, root, 0)
		g, err := gf.CompileSource(vn.file, string(src))
		tr.end(id, 1)
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", vn.file, err)
		}
		cases = append(cases, graphCase{class: vn.file, g: g,
			want: map[string][]string{vn.label: {strconv.FormatInt(vn.want, 10) + "@-1"}}})
	}
	return cases, nil
}

// render turns outputs into sorted "value@tag" strings per label, the form
// both the oracle and the comparison between models use.
func render(outs map[string][]gf.TaggedValue) map[string][]string {
	r := make(map[string][]string, len(outs))
	for label, series := range outs {
		if len(series) == 0 {
			continue
		}
		s := make([]string, len(series))
		for i, tv := range series {
			s[i] = fmt.Sprintf("%s@%d", tv.Val, tv.Tag)
		}
		sort.Strings(s)
		r[label] = s
	}
	return r
}

// agrees checks got against the oracle; a wanted tag of -1 matches any tag.
func agrees(got, want map[string][]string) bool {
	if len(got) != len(want) {
		return false
	}
	for label, ws := range want {
		gs := got[label]
		if len(gs) != len(ws) {
			return false
		}
		for i, w := range ws {
			if w == gs[i] {
				continue
			}
			wv, wt := splitTag(w)
			gv, _ := splitTag(gs[i])
			if wt != "-1" || wv != gv {
				return false
			}
		}
	}
	return true
}

// splitTag splits "value@tag" at its last '@'.
func splitTag(s string) (val, tag string) {
	i := strings.LastIndexByte(s, '@')
	if i < 0 {
		return s, ""
	}
	return s[:i], s[i+1:]
}

func graphOptions(engine string) gf.GraphOptions {
	var opt gf.GraphOptions
	opt.Engine = engine
	if engine == gf.EngineParallel {
		opt.Workers = runtime.NumCPU()
	}
	return opt
}

// runEquivCases is the equiv jobRep: every graph on the three dataflow
// engines, then Algorithm 1 and the sequential Gamma engine, with each
// engine's outputs checked against the oracle and the Gamma outputs
// checked against the dataflow ones.
func runEquivCases(cases []graphCase, out *outcome) jobRep {
	return func(tr *tracer, root int, counts tally) ([]time.Duration, int64) {
		var calls []time.Duration
		var firings int64
		timed := func(name, class string, f func() int64) {
			id := tr.start(name, class, root, 0)
			start := time.Now()
			n := f()
			calls = append(calls, time.Since(start))
			tr.end(id, n)
		}
		for _, c := range cases {
			var ref map[string][]string
			for _, eng := range dfEngines {
				var res *gf.GraphResult
				var err error
				timed("dataflow.run", eng, func() int64 {
					res, err = gf.RunGraph(c.g, graphOptions(eng))
					if res == nil {
						return 0
					}
					return res.Firings
				})
				if res != nil {
					firings += res.Firings
					if tr != nil && eng == gf.EngineMatrix {
						counts["matrix_firings"] += float64(res.Firings)
						counts["ticks"] += float64(res.Ticks)
					}
				}
				var got map[string][]string
				if err == nil {
					got = render(res.Outputs)
				}
				out.op(err, err == nil && agrees(got, c.want), c.class+" on "+eng)
				if eng == gf.EngineSeq {
					ref = got
				}
			}

			var prog *gf.Program
			var init *gf.Multiset
			var err error
			timed("core.to_gamma", c.class, func() int64 {
				prog, init, err = gf.ToGamma(c.g)
				if err != nil {
					return 0
				}
				return 1
			})
			if err != nil {
				out.op(err, false, c.class+" Algorithm 1")
				continue
			}
			if tr != nil {
				counts["reactions"] += float64(len(prog.Reactions))
				counts["elements"] += float64(init.Len())
				counts["conversions"]++
			}
			var st *gf.ProgramStats
			allocsAround(tr != nil, counts, func() {
				timed("gamma.run", "alg1", func() int64 {
					st, err = gf.RunProgram(prog, init, gf.ProgramOptions{})
					return steps(st)
				})
			})
			firings += steps(st)
			if tr != nil && st != nil {
				counts["firings"] += float64(st.Steps)
				counts["probes"] += float64(st.Probes)
			}
			labels := make([]string, 0, len(c.want)+len(ref))
			for l := range c.want {
				labels = append(labels, l)
			}
			for l := range ref {
				if _, dup := c.want[l]; !dup {
					labels = append(labels, l)
				}
			}
			var outs map[string][]gf.TaggedValue
			timed("core.outputs", c.class, func() int64 {
				outs = gf.OutputsFromMultiset(init, labels)
				return int64(len(outs))
			})
			got := render(outs)
			out.op(err, err == nil && agrees(got, c.want) && reflect.DeepEqual(got, ref), c.class+" through Algorithm 1")
		}
		return calls, firings
	}
}

func runEquiv(cfg config, tr *tracer) (*outcome, error) {
	out := newOutcome()
	var cases []graphCase
	err := setupMedian(setups, tr, out, func(t *tracer, root int) error {
		var err error
		if cases, err = equivCases(cfg.seed, t, root); err != nil {
			return err
		}
		// Warm-up: Fig. 1 through every engine and Algorithm 1.
		for _, eng := range dfEngines {
			if _, err := gf.RunGraph(paper.Fig1Graph(), graphOptions(eng)); err != nil {
				return fmt.Errorf("warm-up %s: %w", eng, err)
			}
		}
		prog, init, err := gf.ToGamma(paper.Fig1Graph())
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		_, err = gf.RunProgram(prog, init, gf.ProgramOptions{})
		return err
	})
	if err != nil {
		return nil, err
	}
	counts := tally{}
	timeJob(cfg, tr, out, counts, runEquivCases(cases, out))
	if tr != nil {
		for _, eng := range dfEngines {
			out.set("dataflow.us_per_firing."+eng, "us", tr.perUnit("dataflow.run", eng, time.Microsecond))
		}
		out.set("dataflow.firings_per_tick", "ratio", counts.ratio("matrix_firings", "ticks"))
		out.set("gamma.us_per_firing.alg1", "us", tr.perUnit("gamma.run", "alg1", time.Microsecond))
		out.set("gamma.probes_per_firing", "ratio", counts.ratio("probes", "firings"))
		out.set("gamma.allocs_per_firing", "count", counts.ratio("allocs", "firings"))
		out.set("gamma.bytes_per_firing", "B", counts.ratio("bytes", "firings"))
		perRep := func(name string) float64 {
			var d time.Duration
			for _, s := range tr.selected(name, "") {
				d += s.dur()
			}
			return ms(d) / counts["reps"]
		}
		out.set("core.to_gamma_ms", "ms", perRep("core.to_gamma"))
		out.set("core.outputs_ms", "ms", perRep("core.outputs"))
		out.set("core.reactions", "count", counts.ratio("reactions", "reps"))
		out.set("core.elements", "count", counts.ratio("elements", "reps"))
		out.set("compiler.compile_ms", "ms", tr.medianDur("compiler.compile", "", time.Millisecond))
		if err := largeGraphSpeedups(cfg.seed, out); err != nil {
			return nil, err
		}
	}
	return out, selfPeakRSS(out)
}

// largeGraphSpeedups runs the large wide graph minReps times on each dataflow
// engine, checks every result against the generator's arithmetic, and sets
// the sequential engine's median wall over each other engine's.
func largeGraphSpeedups(seed int64, out *outcome) error {
	g, want, err := wideGraph(rand.New(rand.NewSource(seed)), largeWidth, largeDepth)
	if err != nil {
		return fmt.Errorf("large wide graph: %w", err)
	}
	wall := map[string]float64{}
	for _, eng := range dfEngines {
		var ds []float64
		for rep := 0; rep < minReps; rep++ {
			start := time.Now()
			res, err := gf.RunGraph(g, graphOptions(eng))
			ds = append(ds, ms(time.Since(start)))
			out.op(err, err == nil && agrees(render(res.Outputs), want), "large wide graph on "+eng)
		}
		wall[eng] = median(ds)
	}
	out.notef("large wide graph %dx%d: seq %.1f ms, matrix %.1f ms, parallel %.1f ms",
		largeWidth, largeDepth, wall[gf.EngineSeq], wall[gf.EngineMatrix], wall[gf.EngineParallel])
	for _, eng := range []string{gf.EngineMatrix, gf.EngineParallel} {
		out.set("dataflow."+eng+"_speedup.large", "ratio", wall[gf.EngineSeq]/wall[eng])
	}
	return nil
}
