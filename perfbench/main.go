// Command perfbench is the repository's end-to-end benchmark. It drives one
// seeded workload through the public entry points of the Gamma and dataflow
// runtimes (the repro facade and package client), checks every result
// against an oracle that does not use the engine under test, and prints the
// metrics BENCHMARK.json names: the end-to-end ones with tracing off, the
// per-layer ones from a separate traced run.
//
// Run it through the wrapper, which builds this package and gammad from
// source, from the repository root:
//
//	python3 perfbench/run.py --workload reduce-seq --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md in this directory says
// why each workload exists and which per-layer metric moves which end-to-end
// metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// config is one invocation: which workload, which seed, how long to measure.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	gammad   string
	commit   string
	// tracedEvery makes every tracedEvery-th serve request ask for a
	// server trace; 0 asks for none. README.md says why none is the
	// default.
	tracedEvery int64
}

// outcome collects one workload's results: operation accounting, the metric
// values it measured (end-to-end and per-layer names share one map), the
// sample count behind each percentile, and report lines.
type outcome struct {
	attempted int
	failed    int
	values    map[string]metricValue
	samples   map[string]int
	notes     []string
}

func newOutcome() *outcome {
	return &outcome{values: map[string]metricValue{}, samples: map[string]int{}}
}

// op accounts one operation: it fails when err is set or the oracle
// disagreed. The run goes on either way; the first few failures are noted.
func (o *outcome) op(err error, ok bool, what string) {
	o.attempted++
	if err == nil && ok {
		return
	}
	o.failed++
	if o.failed <= 5 {
		if err != nil {
			o.notef("FAILED %s: %v", what, err)
		} else {
			o.notef("FAILED %s: result disagrees with the oracle", what)
		}
	}
}

func (o *outcome) set(name, unit string, v float64) {
	o.values[name] = metricValue{Value: v, Unit: unit}
}

// setN records a percentile together with the number of samples behind it.
func (o *outcome) setN(name, unit string, v float64, n int) {
	o.set(name, unit, v)
	o.samples[name] = n
}
func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// workloads maps each BENCHMARK.json workload name to the function that
// runs it.
var workloads = map[string]func(config, *tracer) (*outcome, error){
	"reduce-seq": runReduceSeq,
	"reduce-par": runReducePar,
	"equiv":      runEquiv,
	"serve":      runServe,
}

// spec is the part of BENCHMARK.json this program reads: the metric names
// and units it must print.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var cfg config
	var traceFlag int
	var seconds int
	flag.StringVar(&cfg.workload, "workload", "", "workload name (see BENCHMARK.json)")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: every instance parameter is drawn from it")
	flag.IntVar(&seconds, "seconds", 10, "length of the measured phase in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	flag.StringVar(&cfg.gammad, "gammad", "", "path of the gammad binary (serve workload)")
	flag.StringVar(&cfg.commit, "commit", "unknown", "commit the program was built from")
	flag.Int64Var(&cfg.tracedEvery, "serve-traced-every", 0, "serve: every n-th request asks for a server trace (0: none)")
	flag.Parse()
	cfg.seconds = float64(seconds)
	cfg.traced = traceFlag == 1
	if err := run(cfg, traceFlag); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// specPath is the benchmark description, read from the repository root.
const specPath = "BENCHMARK.json"

func run(cfg config, traceFlag int) error {
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	}
	if cfg.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %v", cfg.seconds)
	}
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	drive, ok := workloads[cfg.workload]
	known := false
	for _, w := range sp.Workloads {
		known = known || w.Name == cfg.workload
	}
	if !ok || !known {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}

	fmt.Printf("perfbench workload=%s seed=%d seconds=%v trace=%d\n", cfg.workload, cfg.seed, cfg.seconds, traceFlag)
	fmt.Printf("host NumCPU=%d GOMAXPROCS=%d go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cfg.commit)

	var tr *tracer
	if cfg.traced {
		tr = &tracer{}
	}
	total0, steal0, tickErr := cpuTicks()
	out, err := drive(cfg, tr)
	if err != nil {
		return err
	}
	// The share of the host's CPU time the hypervisor stole during the run:
	// a run with much of it measured a slower machine, not a slower program.
	if total1, steal1, err := cpuTicks(); tickErr == nil && err == nil && total1 > total0 {
		out.set("host.steal_pct", "%", 100*(steal1-steal0)/(total1-total0))
	}
	for _, n := range out.notes {
		fmt.Println("  " + n)
	}

	want := sp.EndToEnd
	if cfg.traced {
		want = sp.PerLayer
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]metricValue{}}
	var missing []string
	for _, m := range want {
		v, ok := out.values[m.Name]
		switch {
		case !ok && !cfg.traced:
			missing = append(missing, m.Name)
			continue
		case !ok:
			// A per-layer metric of a layer this workload does not call.
			v = metricValue{Unit: m.Unit}
		case v.Unit != m.Unit:
			return fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", m.Name, v.Unit, m.Unit)
		}
		res.Metrics[m.Name] = v
	}
	if len(missing) > 0 {
		return fmt.Errorf("workload %s measured no %s", cfg.workload, strings.Join(missing, ", "))
	}
	if res.Attempted < 1 {
		return fmt.Errorf("workload %s attempted no operation", cfg.workload)
	}
	printReport(out, cfg.traced)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printReport prints every value the workload measured, with the sample
// count beside each percentile, and the error rate.
func printReport(out *outcome, traced bool) {
	names := make([]string, 0, len(out.values))
	for n := range out.values {
		names = append(names, n)
	}
	sort.Strings(names)
	mode := "end-to-end (tracing off)"
	if traced {
		mode = "traced run"
	}
	fmt.Printf("%s: attempted=%d failed=%d error_rate=%.6f\n", mode, out.attempted, out.failed,
		float64(out.failed)/float64(max(out.attempted, 1)))
	for _, n := range names {
		v := out.values[n]
		if c, ok := out.samples[n]; ok {
			fmt.Printf("  %-34s %14.4f %-6s (n=%d)\n", n, v.Value, v.Unit, c)
		} else {
			fmt.Printf("  %-34s %14.4f %s\n", n, v.Value, v.Unit)
		}
	}
}
