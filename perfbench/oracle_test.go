package main

import (
	"os"
	"reflect"
	"testing"
	"time"

	gf "repro"
	"repro/client"
	"repro/internal/paper"
)

// A result that disagrees with its oracle is a failed operation, and the run
// goes on to the next one.
func TestCorruptedGammaResultIsCounted(t *testing.T) {
	prog, err := gf.ParseProgram("min", paper.MinElementListing)
	if err != nil {
		t.Fatal(err)
	}
	good := gammaJob{class: "min", prog: prog, elems: scalars([]int64{5, 3, 9}),
		want: []gf.Tuple{gf.ScalarElem(gf.Int(3))}}
	bad := good
	bad.want = []gf.Tuple{gf.ScalarElem(gf.Int(4))}
	out := newOutcome()
	_, firings := runGammaJobs([]gammaJob{bad, good}, out)(nil, noSpan, tally{})
	if out.attempted != 2 || out.failed != 1 {
		t.Fatalf("attempted=%d failed=%d, want 2 and 1", out.attempted, out.failed)
	}
	if firings != 4 {
		t.Errorf("firings = %d, want 4 (two runs of 2)", firings)
	}
}

func TestCorruptedGraphResultIsCounted(t *testing.T) {
	c := graphCase{class: "fig1", g: paper.Fig1GraphWith(1, 5, 3, 2), want: map[string][]string{"m": {"0@0"}}}
	out := newOutcome()
	runEquivCases([]graphCase{c}, out)(nil, noSpan, tally{})
	if out.attempted != 4 || out.failed != 0 {
		t.Fatalf("correct case: attempted=%d failed=%d, want 4 and 0", out.attempted, out.failed)
	}
	c.want = map[string][]string{"m": {"1@0"}}
	out = newOutcome()
	runEquivCases([]graphCase{c}, out)(nil, noSpan, tally{})
	if out.attempted != 4 || out.failed != 4 {
		t.Fatalf("corrupted oracle: attempted=%d failed=%d, want 4 and 4", out.attempted, out.failed)
	}
}

func TestCorruptedResponseIsCounted(t *testing.T) {
	ok := &client.RunResponse{Result: &client.RunResult{Multiset: "{[0, 'm']}"}}
	wrong := &client.RunResponse{Result: &client.RunResult{Multiset: "{[1, 'm']}"}}
	check := multisetIs(gf.PairElem(gf.Int(0), "m"))
	if !check(ok) || check(wrong) || check(&client.RunResponse{}) {
		t.Fatal("multisetIs does not tell the right multiset from a wrong one")
	}
	df := outputIs("m", "0@0")
	if !df(&client.RunResponse{Result: &client.RunResult{Outputs: map[string][]string{"m": {"0@0"}}}}) ||
		df(&client.RunResponse{Result: &client.RunResult{Outputs: map[string][]string{"m": {"1@0"}}}}) {
		t.Fatal("outputIs does not tell the right output from a wrong one")
	}
	out := newOutcome()
	account(out, []sample{{kind: "ex1"}, {kind: "ex1", failed: true}, {kind: "ex1", failed: true, rejected: true}}, "lo")
	if out.attempted != 3 || out.failed != 2 {
		t.Fatalf("attempted=%d failed=%d, want 3 and 2", out.attempted, out.failed)
	}
}

func TestAgreesTagWildcard(t *testing.T) {
	want := map[string][]string{"x": {"7@-1"}}
	if !agrees(map[string][]string{"x": {"7@3"}}, want) {
		t.Error("tag -1 should match any tag")
	}
	if agrees(map[string][]string{"x": {"8@3"}}, want) || agrees(map[string][]string{"x": {"7@3"}, "y": {"1@0"}}, want) {
		t.Error("a wrong value or an extra label must disagree")
	}
}

// The seed draws the instances: the same seed gives the same inputs, another
// seed different inputs of the same sizes.
func TestSeedDrawsInstances(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil { // the .vn fixtures live at the root
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	outputs := func(seed int64) []map[string][]string {
		cases, err := equivCases(seed, nil, noSpan)
		if err != nil {
			t.Fatal(err)
		}
		var ws []map[string][]string
		for _, c := range cases {
			ws = append(ws, c.want)
		}
		return ws
	}
	a, b, c := outputs(1), outputs(1), outputs(2)
	if !reflect.DeepEqual(a, b) {
		t.Error("seed 1 twice gave different equiv instances")
	}
	if reflect.DeepEqual(a, c) || len(a) != len(c) {
		t.Error("seeds 1 and 2 should give different instances of the same job")
	}
	if !reflect.DeepEqual(servePool(3)[0].req, servePool(3)[0].req) ||
		reflect.DeepEqual(servePool(3)[0].req, servePool(4)[0].req) {
		t.Error("serve request pool is not drawn from the seed")
	}
}

func TestPrimesUpTo(t *testing.T) {
	if got := primesUpTo(20); !reflect.DeepEqual(got, []int64{2, 3, 5, 7, 11, 13, 17, 19}) {
		t.Errorf("primesUpTo(20) = %v", got)
	}
}

func TestSelfTimesSubtractChildUnion(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	tr := &tracer{spans: []span{
		{Name: "bench.rep", Start: at(0), End: at(100), Parent: noSpan},
		{Name: "gamma.run", Start: at(10), End: at(50), Parent: 0},
		{Name: "gamma.run", Start: at(40), End: at(60), Parent: 0}, // overlaps the first
		{Name: "setup.run", Start: at(200), End: at(300), Parent: noSpan},
	}}
	got := tr.selfTimes("bench.rep")
	want := map[string]time.Duration{"bench": 50 * time.Millisecond, "gamma": 60 * time.Millisecond}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if q := quantile(xs, 0.5); q != 2.5 {
		t.Errorf("median = %v, want 2.5", q)
	}
	if q := quantile(xs, 1); q != 4 {
		t.Errorf("max = %v, want 4", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Errorf("empty = %v, want 0", q)
	}
}

// firings_per_s divides by the sum of per-call medians, so one slow call in
// one repetition does not move it.
func TestTimeJobTakesPerCallMedians(t *testing.T) {
	rep := 0
	job := func(tr *tracer, root int, counts tally) ([]time.Duration, int64) {
		rep++
		calls := []time.Duration{time.Millisecond, 3 * time.Millisecond}
		if rep == 2 {
			calls[1] = time.Second
		}
		return calls, 400
	}
	out := newOutcome()
	timeJob(config{seconds: 0}, nil, out, tally{}, job)
	if rep != minReps {
		t.Fatalf("%d repetitions, want %d", rep, minReps)
	}
	if got := out.values["firings_per_s"].Value; got != 100_000 {
		t.Errorf("firings_per_s = %v, want 100000 (400 firings in a typical 4 ms)", got)
	}
}
