package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	gf "repro"
	"repro/internal/paper"
)

// Sizes of the reduce workloads' fixed jobs. The seed draws the values, the
// insertion order and the engine seeds; the sizes stay fixed, so two seeds
// give different instances of the same job. The engines' cost depends on the
// drawn layout (which element the matcher meets first), so each job holds
// instances draws of every class: one unlucky draw moves a run's figure by a
// fraction of its share, not by the whole of it. The instances are small, so
// that one engine call's multiset (about a kilobyte per element) stays
// within a core's cache: on a host whose memory other tenants share, a job
// that lives in main memory moves by a quarter between runs minutes apart.
// The traced run times the large sizes separately (largeMinN, largeTourLog).
const (
	instances   = 16  // draws of every class in one job
	minN        = 400 // reduce-seq: Eq. 2 min at minN and 4·minN
	seededMinN  = 100 // reduce-seq: the same min with Options.Seed ≠ 0
	sieveN      = 150 // reduce-seq: pairwise sieve over 2..sieveN
	tourLog     = 11  // reduce-par: labeled tournament of 2^tourLog elements
	parMinN     = 800 // reduce-par: Eq. 2 min
	warmupElems = 64  // elements of the set-up's warm-up runs
)

// sieveSource is the pairwise sieve: an element divisible by another one
// disappears, so {2..n} reduces to the primes ≤ n.
const sieveSource = `R = replace [x], [y] by [y] if x % y == 0 and x != y`

// tournamentSource is the staged pairwise min over labeled elements, the
// element shape Algorithm 1 emits: stage i reduces two 'Li' elements to one
// 'L(i+1)'. Over 2^stages elements exactly one element, the minimum, reaches
// 'L<stages>'.
func tournamentSource(stages int) string {
	src := ""
	for i := 0; i < stages; i++ {
		src += fmt.Sprintf("R%d = replace [x, 'L%d'], [y, 'L%d'] by [x, 'L%d'] if x <= y by [y, 'L%d'] else\n",
			i, i, i, i+1, i+1)
	}
	return src
}

// gammaJob is one engine call of a reduce job: a program, the generated
// elements of the initial multiset, the options, and the oracle's expected
// stable state. The job keeps the elements, not a built multiset: a built
// multiset holds about a kilobyte per element, and a dozen of them kept
// alive would make every repetition's collections and caches pay for
// instances it is not running.
type gammaJob struct {
	class string
	prog  *gf.Program
	elems []gf.Tuple
	opt   gf.ProgramOptions
	want  []gf.Tuple // the stable multiset, computed without the engine
}

// distinctInts draws n distinct ints from [0, 4n) in a seeded order.
func distinctInts(rng *rand.Rand, n int) []int64 {
	perm := rng.Perm(4 * n)[:n]
	out := make([]int64, n)
	for i, v := range perm {
		out[i] = int64(v)
	}
	return out
}

func minOf(xs []int64) int64 {
	m := xs[0]
	for _, x := range xs[1:] {
		m = min(m, x)
	}
	return m
}

// primesUpTo is a plain sieve of Eratosthenes, the oracle of the Gamma sieve.
func primesUpTo(n int) []int64 {
	composite := make([]bool, n+1)
	var ps []int64
	for i := 2; i <= n; i++ {
		if composite[i] {
			continue
		}
		ps = append(ps, int64(i))
		for j := i * i; j <= n; j += i {
			composite[j] = true
		}
	}
	return ps
}

// build fills a multiset from tuples inside a multiset.add span whose count
// is the number of elements.
func build(tr *tracer, parent int, class string, ts []gf.Tuple) *gf.Multiset {
	id := tr.start("multiset.add", class, parent, 0)
	m := gf.NewMultiset()
	for _, t := range ts {
		m.Add(t)
	}
	tr.end(id, int64(len(ts)))
	return m
}

func scalars(xs []int64) []gf.Tuple {
	ts := make([]gf.Tuple, len(xs))
	for i, x := range xs {
		ts[i] = gf.ScalarElem(gf.Int(x))
	}
	return ts
}

func parse(tr *tracer, parent int, name, src string) (*gf.Program, error) {
	id := tr.start("gammalang.parse", name, parent, 0)
	p, err := gf.ParseProgram(name, src)
	tr.end(id, 1)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", name, err)
	}
	return p, nil
}

// matches reports whether m holds exactly the tuples of want.
func matches(m *gf.Multiset, want []gf.Tuple) bool {
	if m.Len() != len(want) {
		return false
	}
	for _, t := range want {
		if !m.Contains(t) {
			return false
		}
	}
	return true
}

// reduceSeqJobs generates reduce-seq's instances from the seed.
func reduceSeqJobs(seed int64, tr *tracer, root int) ([]gammaJob, error) {
	rng := rand.New(rand.NewSource(seed))
	minProg, err := parse(tr, root, "min", paper.MinElementListing)
	if err != nil {
		return nil, err
	}
	sieve, err := parse(tr, root, "sieve", sieveSource)
	if err != nil {
		return nil, err
	}
	var jobs []gammaJob
	for i := 0; i < instances; i++ {
		for _, c := range []struct {
			class string
			n     int
			seed  int64
		}{{"min", minN, 0}, {"min-4n", 4 * minN, 0}, {"min-seeded", seededMinN, 1 + rng.Int63n(1<<30)}} {
			xs := distinctInts(rng, c.n)
			opt := gf.ProgramOptions{}
			opt.Seed = c.seed
			jobs = append(jobs, gammaJob{class: c.class, prog: minProg, elems: scalars(xs),
				opt: opt, want: []gf.Tuple{gf.ScalarElem(gf.Int(minOf(xs)))}})
		}
		// The sieve's set is fixed by its size; the seed draws the insertion
		// order, which decides the multiset's layout and so the matcher's path.
		xs := make([]int64, 0, sieveN-1)
		for _, v := range rng.Perm(sieveN - 1) {
			xs = append(xs, int64(v+2))
		}
		jobs = append(jobs, gammaJob{class: "sieve", prog: sieve, elems: scalars(xs),
			want: scalars(primesUpTo(sieveN))})
	}
	return jobs, nil
}

// reduceParJobs generates reduce-par's instances from the seed. Both run on
// the parallel engine with one worker per CPU.
func reduceParJobs(seed int64, tr *tracer, root int) ([]gammaJob, error) {
	rng := rand.New(rand.NewSource(seed))
	tour, err := parse(tr, root, "tournament", tournamentSource(tourLog))
	if err != nil {
		return nil, err
	}
	minProg, err := parse(tr, root, "min", paper.MinElementListing)
	if err != nil {
		return nil, err
	}
	par := gf.ProgramOptions{}
	par.Engine = gf.EngineParallel
	par.Workers = runtime.NumCPU()

	var jobs []gammaJob
	for i := 0; i < instances; i++ {
		jobs = append(jobs, tournamentJob(rng, tour, tourLog, par))

		ys := distinctInts(rng, parMinN)
		minOpt := par
		minOpt.Seed = 1 + rng.Int63n(1<<30)
		jobs = append(jobs, gammaJob{class: "min-par", prog: minProg, elems: scalars(ys),
			opt: minOpt, want: []gf.Tuple{gf.ScalarElem(gf.Int(minOf(ys)))}})
	}
	return jobs, nil
}

// tournamentJob draws one labeled tournament over 2^stages elements for the
// parallel options par; prog is tournamentSource(stages).
func tournamentJob(rng *rand.Rand, prog *gf.Program, stages int, par gf.ProgramOptions) gammaJob {
	xs := distinctInts(rng, 1<<stages)
	ts := make([]gf.Tuple, len(xs))
	for i, x := range xs {
		ts[i] = gf.PairElem(gf.Int(x), "L0")
	}
	opt := par
	opt.Seed = 1 + rng.Int63n(1<<30)
	winner := gf.PairElem(gf.Int(minOf(xs)), fmt.Sprintf("L%d", stages))
	return gammaJob{class: "tournament", prog: prog, elems: ts,
		opt: opt, want: []gf.Tuple{winner}}
}

// warmUp runs each class's program once on a small copy of the first
// instance's elements, paying lazy kernel compilation before the timed phase.
func warmUp(tr *tracer, root int, jobs []gammaJob) error {
	seen := map[string]bool{}
	for _, j := range jobs {
		if seen[j.class] {
			continue
		}
		seen[j.class] = true
		m := gf.NewMultiset(j.elems[:min(warmupElems, len(j.elems))]...)
		id := tr.start("gamma.run", "warmup", root, 0)
		st, err := gf.RunProgram(j.prog, m, j.opt)
		tr.end(id, steps(st))
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", j.class, err)
		}
	}
	return nil
}

func steps(st *gf.ProgramStats) int64 {
	if st == nil {
		return 0
	}
	return st.Steps
}

// runGammaJobs is the jobRep of both reduce workloads: every job once, each
// on a fresh clone of its input, checked against its oracle.
func runGammaJobs(jobs []gammaJob, out *outcome) jobRep {
	return func(tr *tracer, root int, counts tally) ([]time.Duration, int64) {
		calls := make([]time.Duration, 0, len(jobs))
		var firings int64
		for _, j := range jobs {
			m := build(tr, root, j.class, j.elems)

			var st *gf.ProgramStats
			var err error
			var d time.Duration
			allocsAround(tr != nil, counts, func() {
				id := tr.start("gamma.run", j.class, root, 0)
				start := time.Now()
				st, err = gf.RunProgram(j.prog, m, j.opt)
				d = time.Since(start)
				tr.end(id, steps(st))
			})
			calls = append(calls, d)
			firings += steps(st)
			out.op(err, err == nil && matches(m, j.want), j.class)
			if tr != nil && st != nil {
				counts["firings"] += float64(st.Steps)
				counts["probes"] += float64(st.Probes)
				counts["conflicts"] += float64(st.Conflicts)
				counts["retries"] += float64(st.Retries)
				counts["backoff_waits"] += float64(st.BackoffWaits)
				counts["steals"] += float64(st.Steals)
				counts["batches"] += float64(st.Batches)
			}
		}
		return calls, firings
	}
}

// gammaLayerMetrics sets the per-layer metrics every Gamma job reports.
func gammaLayerMetrics(tr *tracer, out *outcome, counts tally, classes []string) {
	for _, c := range classes {
		out.set("gamma.us_per_firing."+c, "us", tr.perUnit("gamma.run", c, time.Microsecond))
	}
	out.set("gammalang.parse_us", "us", tr.medianDur("gammalang.parse", "", time.Microsecond))
	out.set("multiset.add_ns", "ns", tr.perUnit("multiset.add", "", time.Nanosecond))
	out.set("gamma.probes_per_firing", "ratio", counts.ratio("probes", "firings"))
	out.set("gamma.conflicts_per_firing", "ratio", counts.ratio("conflicts", "firings"))
	out.set("gamma.retries_per_firing", "ratio", counts.ratio("retries", "firings"))
	out.set("gamma.backoff_waits", "count", counts.ratio("backoff_waits", "reps"))
	out.set("gamma.steals", "count", counts.ratio("steals", "reps"))
	out.set("gamma.firings_per_batch", "ratio", counts.ratio("firings", "batches"))
	out.set("gamma.allocs_per_firing", "count", counts.ratio("allocs", "firings"))
	out.set("gamma.bytes_per_firing", "B", counts.ratio("bytes", "firings"))
}

func runReduceSeq(cfg config, tr *tracer) (*outcome, error) {
	out := newOutcome()
	var jobs []gammaJob
	err := setupMedian(setups, tr, out, func(t *tracer, root int) error {
		var err error
		if jobs, err = reduceSeqJobs(cfg.seed, t, root); err != nil {
			return err
		}
		return warmUp(t, root, jobs)
	})
	if err != nil {
		return nil, err
	}
	counts := tally{}
	timeJob(cfg, tr, out, counts, runGammaJobs(jobs, out))
	if tr != nil {
		gammaLayerMetrics(tr, out, counts, []string{"min", "min-4n", "min-seeded", "sieve"})
		scaling, err := minScaling(cfg.seed, out)
		if err != nil {
			return nil, err
		}
		out.set("gamma.min_scaling", "ratio", scaling)
	}
	return out, selfPeakRSS(out)
}

// largeMinN sizes the min instances gamma.min_scaling compares, n and 4n,
// well past the job's sizes: a step whose cost grows with n shows there, in
// the cache and memory traffic of large multisets as much as in the matcher.
const largeMinN = 5000

// minScaling runs sequential min minReps times at largeMinN and at
// 4·largeMinN, untimed by the job, and returns µs per firing at 4n over µs
// per firing at n: 1 when a step of min costs the same at any size.
func minScaling(seed int64, out *outcome) (float64, error) {
	prog, err := gf.ParseProgram("min", paper.MinElementListing)
	if err != nil {
		return 0, fmt.Errorf("parse min: %w", err)
	}
	rng := rand.New(rand.NewSource(seed))
	usPerFiring := func(n int) float64 {
		var d time.Duration
		var firings int64
		for rep := 0; rep < minReps; rep++ {
			xs := distinctInts(rng, n)
			m := gf.NewMultiset(scalars(xs)...)
			start := time.Now()
			st, err := gf.RunProgram(prog, m, gf.ProgramOptions{})
			d += time.Since(start)
			firings += steps(st)
			out.op(err, err == nil && matches(m, []gf.Tuple{gf.ScalarElem(gf.Int(minOf(xs)))}),
				fmt.Sprintf("min at %d (scaling check)", n))
		}
		return float64(d) / float64(time.Microsecond) / float64(max(firings, 1))
	}
	small, large := usPerFiring(largeMinN), usPerFiring(4*largeMinN)
	out.notef("min scaling: %.2f µs per firing at n=%d, %.2f at 4n", small, largeMinN, large)
	return large / small, nil
}

func runReducePar(cfg config, tr *tracer) (*outcome, error) {
	out := newOutcome()
	var jobs []gammaJob
	err := setupMedian(setups, tr, out, func(t *tracer, root int) error {
		var err error
		if jobs, err = reduceParJobs(cfg.seed, t, root); err != nil {
			return err
		}
		return warmUp(t, root, jobs)
	})
	if err != nil {
		return nil, err
	}
	counts := tally{}
	timeJob(cfg, tr, out, counts, runGammaJobs(jobs, out))
	if tr != nil {
		gammaLayerMetrics(tr, out, counts, []string{"tournament", "min-par"})
		out.set("gamma.parallel_speedup", "ratio", parallelSpeedup("job", jobs, out))
		large, err := largeTournament(cfg.seed)
		if err != nil {
			return nil, err
		}
		out.set("gamma.parallel_speedup.large", "ratio", parallelSpeedup("2^17 tournament", []gammaJob{large}, out))
	}
	return out, selfPeakRSS(out)
}

// largeTourLog sizes the one tournament the traced run times on both
// engines beside the job: 2^17 elements, past the size at which the parallel
// engine has been measured losing to the sequential one. The timed job stays
// at 2^tourLog, whose working set is small enough for steady figures.
const largeTourLog = 17

// largeTournament draws the large tournament from the seed.
func largeTournament(seed int64) (gammaJob, error) {
	prog, err := gf.ParseProgram("tournament", tournamentSource(largeTourLog))
	if err != nil {
		return gammaJob{}, fmt.Errorf("parse tournament: %w", err)
	}
	par := gf.ProgramOptions{}
	par.Engine = gf.EngineParallel
	par.Workers = runtime.NumCPU()
	return tournamentJob(rand.New(rand.NewSource(seed)), prog, largeTourLog, par), nil
}

// parallelSpeedup times jobs (what names them) on the sequential engine and
// on the parallel one, untraced, and returns sequential wall over parallel wall:
// above 1 when the workers beat one.
func parallelSpeedup(what string, jobs []gammaJob, out *outcome) float64 {
	wall := func(seq bool) float64 {
		var ds []float64
		for rep := 0; rep < minReps; rep++ {
			var total time.Duration
			for _, j := range jobs {
				opt := j.opt
				if seq {
					// Seed 0: a seeded sequential run shuffles the whole
					// candidate set on every probe, which is not the
					// engine a speedup should compare against.
					opt.Engine, opt.Workers, opt.Seed = gf.EngineSeq, 1, 0
				}
				m := gf.NewMultiset(j.elems...)
				start := time.Now()
				_, err := gf.RunProgram(j.prog, m, opt)
				total += time.Since(start)
				out.op(err, err == nil && matches(m, j.want), j.class+" (speedup check)")
			}
			ds = append(ds, ms(total))
		}
		return median(ds)
	}
	seq, par := wall(true), wall(false)
	out.notef("parallel speedup, %s: sequential %.1f ms, parallel %.1f ms", what, seq, par)
	return seq / par
}
