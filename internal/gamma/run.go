package gamma

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/expr"
	"repro/internal/multiset"
	"repro/internal/rt"
	"repro/internal/symtab"
	"repro/internal/telemetry"
	"repro/internal/value"
)

// ErrMaxSteps is returned when execution exceeds Options.MaxSteps reaction
// firings. Gamma programs need not terminate; the limit turns a diverging
// program into a reported error instead of a hang. It wraps rt.ErrMaxSteps,
// the cross-runtime budget class; errors from RunContext additionally satisfy
// errors.Is against rt.ErrCanceled / rt.ErrDeadline (and thus against
// context.Canceled / context.DeadlineExceeded) when the context stopped the
// run. See package rt for the full taxonomy.
var ErrMaxSteps = rt.Wrap("gamma: maximum step count exceeded", rt.ErrMaxSteps)

// Memo caches reaction applications: the products (and branch) computed for
// a given combination of consumed elements. It mirrors the dataflow side's
// instruction reuse (DF-DTM [3]) at reaction granularity — one of the
// cross-model benefits the paper's introduction motivates. Implementations
// must be safe for concurrent use when Workers > 1.
type Memo interface {
	LookupReaction(key string) ([]multiset.Tuple, bool)
	StoreReaction(key string, products []multiset.Tuple)
}

// Tracer observes the dependency structure of an execution: one call per
// reaction firing, with the keys of the elements it consumed and produced (a
// consumed key equals some earlier firing's produced key, or names an
// initial element). Package profile implements this to compute work, span
// and average parallelism. Implementations must be safe for concurrent use
// when Workers > 1.
type Tracer interface {
	RecordFiring(name string, consumed, produced []string)
}

// ScheduleRecorder receives every committed reaction firing together with
// its commit sequence number — the executable-schedule form of a Tracer.
// Sequence numbers are drawn inside the multiset's commit critical sections,
// so sorting the records by seq yields a sequential firing order that is a
// valid linearization even of a nondeterministic parallel run (package
// replay re-executes it step for step). The engine hands over ownership of
// the key slices — implementations may retain them without copying.
// Implementations must be safe for concurrent use when Workers > 1.
type ScheduleRecorder interface {
	RecordStep(seq uint64, name string, consumed, produced []string)
}

// TupleScheduleRecorder is the optional fast path of ScheduleRecorder: a
// recorder that accepts the firing's raw tuples and renders the keys itself
// (package replay's Recorder batches the text into one buffer, so recording
// allocates nothing per firing). The tuples are only borrowed for the call —
// implementations must extract what they need before returning, and the
// engine must not mutate them during it. Same concurrency contract as
// ScheduleRecorder.
type TupleScheduleRecorder interface {
	RecordStepTuples(seq uint64, name string, consumed, produced []multiset.Tuple)
}

// Options configures an execution.
type Options struct {
	// Workers is the number of concurrent reaction executors. 0 or 1 selects
	// the deterministic sequential interpreter; larger values select the
	// nondeterministic parallel runtime.
	Workers int
	// Seed seeds the nondeterministic candidate selection. Sequential runs
	// with Seed 0 are fully deterministic; parallel runs use Seed to derive
	// per-worker streams.
	Seed int64
	// MaxSteps bounds the total number of reaction firings; 0 means no bound.
	MaxSteps int64
	// Memo, when set, caches reaction products by reaction and consumed
	// elements; a hit skips the action evaluation and its WorkFactor.
	Memo Memo
	// WorkFactor emulates expensive reaction actions: each application spins
	// this many iterations before evaluating products. See the dataflow
	// counterpart for rationale.
	WorkFactor int
	// Tracer, when set, receives every reaction firing with its consumed and
	// produced element keys for dependency analysis.
	Tracer Tracer
	// FullScan disables the delta-driven incremental scheduler and restores
	// the seed engine's behavior: the sequential interpreter probes every
	// reaction round-robin after every firing, and parallel workers rescan
	// all reactions after every commit. The stable state reached is identical
	// either way; the flag exists as the measurement baseline for the
	// incremental engine (cmd/gfbench -exp e16) and as an oracle in tests.
	FullScan bool
	// FaultInjector, when set, runs before every reaction application with
	// the reaction name and worker index; a non-nil return aborts the run
	// with that error, and a panic inside it exercises the worker pool's
	// panic recovery. For stress tests; leave nil in production runs.
	FaultInjector rt.FaultInjector
	// Recorder, when set, receives the execution's telemetry: per-worker
	// event tracks (firing spans with latency, commit conflicts, retries)
	// and registry counters/gauges/histograms mirroring Stats increment for
	// increment. Nil costs one branch per record site on the hot paths.
	Recorder *telemetry.Recorder
	// TrackLabel prefixes this run's telemetry track names (default
	// "gamma"); dist sets it per node so a cluster trace shows one track
	// group per node.
	TrackLabel string
	// Schedule, when set, receives every committed firing with its commit
	// sequence number, turning the run into an executable schedule (see
	// package replay). Nil costs one branch per commit.
	Schedule ScheduleRecorder
}

// traceFiring reports one committed reaction application to the tracer.
func traceFiring(opt Options, name string, consumed, produced []multiset.Tuple) {
	if opt.Tracer == nil {
		return
	}
	ck := make([]string, len(consumed))
	for i, t := range consumed {
		ck[i] = t.Key()
	}
	pk := make([]string, len(produced))
	for i, t := range produced {
		pk[i] = t.Key()
	}
	opt.Tracer.RecordFiring(name, ck, pk)
}

// recordStep reports one committed reaction application, with its commit
// sequence number, to the schedule recorder. Consumed keys are emitted in
// pattern order (s.chosen is pattern-ordered), which is what lets replay
// re-match them positionally.
func recordStep(opt Options, seq uint64, name string, consumed, produced []multiset.Tuple) {
	if opt.Schedule == nil {
		return
	}
	if tr, ok := opt.Schedule.(TupleScheduleRecorder); ok {
		tr.RecordStepTuples(seq, name, consumed, produced)
		return
	}
	ck, pk := renderStepKeys(consumed, produced)
	opt.Schedule.RecordStep(seq, name, ck, pk)
}

// renderStepKeys renders every tuple key of one firing into a single backing
// string: one allocation for the text and one for the headers regardless of
// arity. The recorder retains what it is handed (see ScheduleRecorder), so
// the commit path must produce fresh memory anyway — this is the cheapest
// fresh form. The two slices share the header array read-only; capacities
// are pinned so neither can append into the other.
func renderStepKeys(consumed, produced []multiset.Tuple) (ck, pk []string) {
	n := len(consumed) + len(produced)
	if n == 0 {
		return nil, nil
	}
	var bufArr [96]byte
	var offArr [8]int
	buf, offs := bufArr[:0], offArr[:0]
	for _, t := range consumed {
		buf = t.AppendKey(buf)
		offs = append(offs, len(buf))
	}
	for _, t := range produced {
		buf = t.AppendKey(buf)
		offs = append(offs, len(buf))
	}
	s := string(buf)
	keys := make([]string, n)
	prev := 0
	for i, end := range offs {
		keys[i] = s[prev:end]
		prev = end
	}
	c := len(consumed)
	return keys[:c:c], keys[c:]
}

// Stats reports what an execution did.
type Stats struct {
	// Steps is the total number of reaction firings.
	Steps int64
	// Fired counts firings per reaction name.
	Fired map[string]int64
	// Probes counts reaction match searches (FindMatch attempts) — the
	// matching engine's work metric. The incremental scheduler's win shows
	// up as fewer probes for the same Steps, because provably disabled
	// reactions are never re-probed.
	Probes int64
	// Candidates counts the elements match searches visited — each one a
	// claim check and, unless already claimed, a pattern test. Candidates /
	// Probes is the cost of one probe, which the matcher keeps O(1) in the
	// multiset size for the paper's reductions.
	Candidates int64
	// Conflicts counts failed optimistic commits (parallel runtime only):
	// a worker matched a set of molecules that a concurrent worker consumed
	// before the commit.
	Conflicts int64
	// Retries counts conflict rematches: failed commits that were retried in
	// place (with capped exponential backoff) rather than abandoned to the
	// scheduler. Conflicts - Retries is therefore the number of give-ups.
	Retries int64
	// MemoHits counts reaction applications answered from Options.Memo.
	MemoHits int64
	// Steals counts reaction indexes taken from another worker's deque
	// (parallel runtime only): work-stealing load balancing events.
	Steals int64
	// Batches counts committed ApplyDeltas batches (parallel incremental
	// runtime only). Steps / Batches is the average firings per commit; at
	// 1.0 batching found no independent co-enabled firings.
	Batches int64
	// BackoffWaits counts timed conflict backoffs: retries that slept (with
	// cancellation observed) rather than just yielding the processor.
	BackoffWaits int64
	// Workers echoes the worker count used.
	Workers int
}

func newStats(workers int) *Stats {
	return &Stats{Fired: make(map[string]int64), Workers: workers}
}

func (s *Stats) merge(o *Stats) {
	s.Steps += o.Steps
	s.Probes += o.Probes
	s.Candidates += o.Candidates
	s.Conflicts += o.Conflicts
	s.Retries += o.Retries
	s.MemoHits += o.MemoHits
	s.Steals += o.Steals
	s.Batches += o.Batches
	s.BackoffWaits += o.BackoffWaits
	for k, v := range o.Fired {
		s.Fired[k] += v
	}
}

// workSink defeats any optimization of the WorkFactor spin loop.
var workSink atomic.Uint64

func spin(n int) {
	if n <= 0 {
		return
	}
	acc := workSink.Load()
	for i := 0; i < n; i++ {
		acc = acc*1664525 + 1013904223
	}
	workSink.Store(acc)
}

// memoPlan is the per-reaction analysis backing tag-insensitive reuse. Two
// matches that differ only in the iteration tag perform the same expensive
// computation (the value fields of the products); only product fields whose
// expressions mention the tag variable differ, affinely. The plan records
// which chosen-tuple fields to mask out of the memo key and which product
// fields to re-evaluate on a hit. Masking applies only when every pattern
// binds the same tag variable in its third field and no branch condition
// reads it — the shape Algorithm 1 emits; otherwise keys stay exact, which
// is always sound.
type memoPlan struct {
	tagVar string
	mask   [][]bool   // per pattern, per field: part of the tag, exclude from key
	reeval [][][]bool // per branch, per product, per field: mentions the tag
}

func (r *Reaction) memoPlan() *memoPlan {
	r.planOnce.Do(func() {
		plan := &memoPlan{}
		tagVar := ""
		for _, p := range r.Patterns {
			if len(p) < 3 || p[2].Var == "" {
				r.plan = plan
				return
			}
			if tagVar == "" {
				tagVar = p[2].Var
			} else if p[2].Var != tagVar {
				r.plan = plan
				return
			}
		}
		for _, b := range r.Branches {
			if b.Cond != nil {
				for _, v := range expr.FreeVars(b.Cond) {
					if v == tagVar {
						r.plan = plan
						return
					}
				}
			}
		}
		plan.tagVar = tagVar
		plan.mask = make([][]bool, len(r.Patterns))
		for i, p := range r.Patterns {
			plan.mask[i] = make([]bool, len(p))
			for j, f := range p {
				plan.mask[i][j] = f.Var == tagVar
			}
		}
		plan.reeval = make([][][]bool, len(r.Branches))
		for bi, b := range r.Branches {
			plan.reeval[bi] = make([][]bool, len(b.Products))
			for pi, tpl := range b.Products {
				plan.reeval[bi][pi] = make([]bool, len(tpl))
				for fi, e := range tpl {
					for _, v := range expr.FreeVars(e) {
						if v == tagVar {
							plan.reeval[bi][pi][fi] = true
						}
					}
				}
			}
		}
		r.plan = plan
	})
	return r.plan
}

// memoEntry is what the table stores: the branch that fired and its products
// (with possibly stale tag fields, refreshed per application).
type memoEntry struct {
	branch   int
	products []multiset.Tuple
}

// applyAction evaluates the enabled branch's products over the firing's slot
// environment (compiled kernel path), honoring the memo table and work
// factor.
func applyAction(r *Reaction, k *kernel, s *searcher, opt Options, stats *Stats, ts *telSink) ([]multiset.Tuple, error) {
	if opt.Memo == nil {
		spin(opt.WorkFactor)
		return k.produce(r.Name, s.branch, s.env)
	}
	plan := r.memoPlan()
	key := r.Name
	for i, t := range s.chosen {
		for j, v := range t {
			if plan.tagVar != "" && plan.mask[i][j] {
				continue
			}
			key += "|" + v.String()
		}
		key += "||"
	}
	if cached, ok := opt.Memo.LookupReaction(key); ok {
		stats.MemoHits++
		ts.memoHit()
		return refreshProducts(r, k, plan, cached, s.env)
	}
	spin(opt.WorkFactor)
	products, err := k.produce(r.Name, s.branch, s.env)
	if err != nil {
		return nil, err
	}
	stored := append([]multiset.Tuple{multisetBranchMarker(s.branch)}, products...)
	opt.Memo.StoreReaction(key, stored)
	return products, nil
}

// multisetBranchMarker encodes the branch index as a leading 1-tuple in the
// stored product list, so the Memo interface stays a plain tuple store.
func multisetBranchMarker(branch int) multiset.Tuple {
	return multiset.Tuple{value.Int(int64(branch))}
}

// refreshProducts rebuilds cached products for the current match: fields
// whose expressions mention the tag variable are re-evaluated (cheap), the
// rest — the expensive value computation — are reused.
func refreshProducts(r *Reaction, k *kernel, plan *memoPlan, cached []multiset.Tuple, env []value.Value) ([]multiset.Tuple, error) {
	branch := int(cached[0].Value().AsInt())
	stored := cached[1:]
	if plan.tagVar == "" {
		return stored, nil
	}
	out := make([]multiset.Tuple, len(stored))
	for pi, t := range stored {
		flags := plan.reeval[branch][pi]
		fresh := t.Clone()
		for fi := range fresh {
			if flags[fi] {
				v, err := k.branches[branch].prods[pi][fi](env)
				if err != nil {
					return nil, fmt.Errorf("gamma: reaction %s memo refresh: %w", r.Name, err)
				}
				fresh[fi] = v
			}
		}
		out[pi] = fresh
	}
	return out, nil
}

// Run executes p on m until the stable state of Eq. 1 is reached: no reaction
// condition holds for any combination of multiset elements. The multiset is
// modified in place and holds the result on return. Execution follows
// Options: sequential deterministic or parallel nondeterministic.
//
// Run is RunContext with context.Background(): no deadline, no cancellation.
func Run(p *Program, m *multiset.Multiset, opt Options) (*Stats, error) {
	return RunContext(context.Background(), p, m, opt)
}

// RunContext is Run under a context: the deadline and cancellation of ctx
// propagate to every worker, which observe ctx between reaction firings and
// stop at the next commit boundary. The multiset is always left in a
// consistent intermediate state (a prefix of some valid firing sequence).
//
// Early exits of every kind — cancellation, deadline, step budget, a failing
// action, a recovered panic — return non-nil partial Stats describing the
// work done up to the stop, alongside the classifying error: rt.ErrCanceled
// or rt.ErrDeadline (which also satisfy errors.Is against context.Canceled /
// context.DeadlineExceeded), ErrMaxSteps, or *rt.PanicError.
func RunContext(ctx context.Context, p *Program, m *multiset.Multiset, opt Options) (*Stats, error) {
	workers := opt.Workers
	if workers < 1 {
		workers = 1
	}
	for _, r := range p.Reactions {
		if err := r.Validate(); err != nil {
			return newStats(workers), rt.Mark(rt.ErrInvalid, err)
		}
	}
	if err := ctx.Err(); err != nil {
		return newStats(workers), rt.FromContext(err)
	}
	if workers == 1 {
		return runSequential(ctx, p, m, opt)
	}
	return runParallel(ctx, p, m, opt)
}

// runSequential is the direct implementation of the Γ recursion (Eq. 1):
// while some (Ri, Ai) is enabled, replace the matched elements with the
// action's products; otherwise the multiset is the result. With Seed 0
// matching is deterministic.
//
// Scheduling is a dirty worklist drained round-robin: a reaction that fails
// to match is marked clean and skipped until a commit adds an element with a
// label it subscribes to (see schedule.go) — skipping is sound because a
// clean reaction is provably disabled (matching is monotone; removals never
// enable). The stable state of Eq. 1 is exactly "no dirty reaction": an
// empty worklist. Because a skipped probe would have failed anyway, the
// sequence of firings — and thus the deterministic result — is identical to
// the seed engine's full round-robin; only the wasted probes disappear.
//
// The context is observed once per probe; a panic out of a reaction's
// condition or action (or the fault injector) is recovered into *rt.PanicError
// with the partial stats preserved.
func runSequential(ctx context.Context, p *Program, m *multiset.Multiset, opt Options) (stats *Stats, err error) {
	stats = newStats(1)
	site := ""
	defer func() {
		if rec := recover(); rec != nil {
			err = rt.NewPanicError("gamma", site, 0, rec)
		}
	}()
	var rng *rand.Rand
	if opt.Seed != 0 {
		rng = rand.New(rand.NewSource(opt.Seed))
	}
	n := len(p.Reactions)
	if n == 0 {
		return stats, nil
	}
	ts := newTelSink(opt, p, 0)
	subs := p.subs()
	dirty := make([]bool, n)
	for i := range dirty {
		dirty[i] = true
	}
	remaining := n
	markDirty := func(j int) {
		if !dirty[j] {
			dirty[j] = true
			remaining++
		}
	}
	var symsBuf []symtab.Sym // reused produce-delta scratch, incremental mode
	for i := 0; remaining > 0; i = (i + 1) % n {
		if !dirty[i] {
			continue
		}
		r := p.Reactions[i]
		site = r.Name
		if cerr := ctx.Err(); cerr != nil {
			return stats, rt.FromContext(cerr)
		}
		stats.Probes++
		t0 := ts.begin()
		ts.probe(r.Name)
		k := r.kernel()
		s, err := findFiring(r, m, rng, stats, ts)
		if err != nil {
			return stats, err
		}
		if s == nil {
			dirty[i] = false
			remaining--
			continue
		}
		if opt.MaxSteps > 0 && stats.Steps >= opt.MaxSteps {
			// The match just found proves the program is still enabled past
			// the step budget — no full Enabled rescan needed.
			k.putSearcher(s)
			return stats, ErrMaxSteps
		}
		if opt.FaultInjector != nil {
			if ferr := opt.FaultInjector(r.Name, 0); ferr != nil {
				k.putSearcher(s)
				return stats, ferr
			}
		}
		products, err := applyAction(r, k, s, opt, stats, ts)
		if err != nil {
			k.putSearcher(s)
			return stats, err
		}
		if opt.FullScan {
			// Seed-engine commit: separate claim and insert phases.
			if !m.TryRemoveAll(s.chosen) {
				// Unreachable single-threaded; defensive.
				k.putSearcher(s)
				return stats, fmt.Errorf("gamma: matched elements vanished in sequential run of %s", r.Name)
			}
			var seq uint64
			if opt.Schedule != nil {
				// Between claim and insert: the number precedes the products
				// becoming visible, so it linearizes (see multiset.commitSeq).
				seq = m.NextCommitSeq()
			}
			m.AddAll(products)
			traceFiring(opt, r.Name, s.chosen, products)
			recordStep(opt, seq, r.Name, s.chosen, products)
			k.putSearcher(s)
			stats.Steps++
			stats.Fired[r.Name]++
			// The fired reaction stays dirty: consuming elements may leave it
			// enabled on what remains.
			woken := n - remaining
			for j := 0; j < n; j++ {
				markDirty(j)
			}
			ts.firing(i, r.Name, t0, m, woken, remaining)
			continue
		}
		// Incremental commit: the firing's consume+produce lands as one
		// batched delta under a single lock acquisition per shard, and the
		// returned label symbols drive the subscription wakeups directly.
		var ok bool
		var seq uint64
		var syms []symtab.Sym
		if opt.Schedule != nil {
			ok, seq, syms = m.ApplyDeltaSeq(s.chosen, s.keys, products, symsBuf[:0])
		} else {
			ok, syms = m.ApplyDelta(s.chosen, s.keys, products, symsBuf[:0])
		}
		symsBuf = syms
		if !ok {
			// Unreachable single-threaded; defensive.
			k.putSearcher(s)
			return stats, fmt.Errorf("gamma: matched elements vanished in sequential run of %s", r.Name)
		}
		traceFiring(opt, r.Name, s.chosen, products)
		recordStep(opt, seq, r.Name, s.chosen, products)
		k.putSearcher(s)
		stats.Steps++
		stats.Fired[r.Name]++
		if ts == nil {
			subs.forEachSym(syms, markDirty)
		} else {
			before := remaining
			subs.forEachSym(syms, markDirty)
			ts.firing(i, r.Name, t0, m, remaining-before, remaining)
		}
	}
	return stats, nil
}

// stealSched is the coordination state of the parallel runtime: per-worker
// Chase-Lev deques (deque.go) with a global membership filter replace the
// seed's shared mutex-guarded worklist, so the scheduler's hot path — pop,
// enqueue, the post-commit wake check — is lock-free and the mutex guards
// only the cold idle/termination protocol and the error latch.
type stealSched struct {
	mu      sync.Mutex
	cond    *sync.Cond
	workers int
	idle    atomic.Int32 // workers parked in the idle wait; mutated under mu, read lock-free by wake
	done    bool         // stable state reached; under mu
	err     error        // first failure; under mu
	stopped atomic.Bool  // mirrors done||err≠nil for lock-free loop checks

	version atomic.Uint64 // bumped on every successful commit
	steps   atomic.Int64  // total committed firings, for the MaxSteps budget

	// queued[i] marks reaction i as present in exactly one deque; the CAS
	// claim on enqueue both dedupes wakeups and bounds total deque occupancy
	// by the reaction count, which is what makes the fixed deque capacity
	// safe. The taker clears the flag *before* probing, so a commit landing
	// mid-probe re-enqueues the reaction rather than losing the wakeup.
	// Unused (all false, deques empty) in FullScan mode.
	queued []atomic.Bool
	deques []*deque
}

// enqueue marks reaction idx runnable and pushes it onto worker w's own
// deque, unless some deque already holds it. Must be called from worker w —
// deque pushes are owner-only — except for the initial seeding, which runs
// before the workers start and is ordered by the goroutine spawns. Reports
// whether the reaction was newly queued.
func (sh *stealSched) enqueue(w, idx int) bool {
	if !sh.queued[idx].CompareAndSwap(false, true) {
		return false
	}
	sh.deques[w].push(int32(idx))
	return true
}

// take pops the newest entry of worker w's own deque, clearing its membership
// flag before returning so concurrent commits can re-enqueue the reaction
// while it is being probed.
func (sh *stealSched) take(w int) (int, bool) {
	idx, ok := sh.deques[w].pop()
	if !ok {
		return 0, false
	}
	sh.queued[idx].Store(false)
	return int(idx), true
}

// wake unparks idle workers after a commit. The fast path is one atomic load:
// with nobody idle — the steady state under load — no lock is taken. A worker
// concurrently parking is not missed: it re-checks the version (already
// bumped by this commit, sequentially consistent with the idle load here)
// inside its wait-loop guard before blocking, and a worker that incremented
// idle before our load is seen and broadcast to.
func (sh *stealSched) wake() {
	if sh.idle.Load() > 0 {
		sh.mu.Lock()
		sh.cond.Broadcast()
		sh.mu.Unlock()
	}
}

// runParallel executes reactions with a pool of workers performing
// optimistic grab–compute–commit cycles:
//
//  1. match: find enabled combinations of molecules (randomized order, the
//     model's nondeterminism) — in incremental mode up to batchMaxFirings
//     pairwise-disjoint matches of the reaction under one shard view;
//  2. compute: instantiate the enabled branches' products (into per-worker
//     arenas when no memo table retains them);
//  3. commit: atomically claim the matched molecules (one ApplyDeltas per
//     batch; TryRemoveAll in FullScan mode); claims a concurrent worker beat
//     us to fail individually, and a fully failed batch is rematched with
//     cancellation-aware backoff;
//  4. on success, bump the multiset version and wake the subscribers of the
//     labels the commit added.
//
// Scheduling is delta-driven work stealing: each worker drains its own deque
// of reaction indexes (seeded round-robin with every reaction, refilled on
// each of its commits with the subscribed reactions per schedule.go), and an
// empty-handed worker steals from a peer's deque before falling back to a
// scan. The deques are a best-effort accelerator — a probe may be wasted,
// never the other way around, because every commit re-enqueues its
// subscribers.
//
// Global termination reproduces Eq. 1's stability test exactly and does not
// rely on the deques: a worker that finds every deque empty falls back to a
// full scan of every reaction; if the scan fires nothing it goes idle *at a
// version*, and if the version is still current and all workers are idle at
// it, no molecule has changed since a full unsuccessful scan, so no reaction
// is enabled and the stable state is reached.
// Cancellation propagates three ways: workers poll ctx once per probe batch,
// timed conflict backoffs select on ctx.Done, and a watcher goroutine turns
// ctx.Done into sh.fail + cond broadcast so workers parked in the idle wait
// wake immediately — a canceled run returns in probe time, not in wait time.
func runParallel(ctx context.Context, p *Program, m *multiset.Multiset, opt Options) (*Stats, error) {
	workers := opt.Workers
	n := len(p.Reactions)
	if n == 0 {
		return newStats(workers), nil
	}
	sh := &stealSched{
		workers: workers,
		queued:  make([]atomic.Bool, n),
		deques:  make([]*deque, workers),
	}
	sh.cond = sync.NewCond(&sh.mu)
	for w := range sh.deques {
		sh.deques[w] = newDeque(n)
	}
	if !opt.FullScan {
		// Seed every reaction once, round-robin, so workers start with
		// balanced local work instead of racing one shared list.
		for i := 0; i < n; i++ {
			sh.enqueue(i%workers, i)
		}
	}
	watchDone := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			sh.fail(rt.FromContext(ctx.Err()))
		case <-watchDone:
		}
	}()
	perWorker := make([]*Stats, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		perWorker[w] = newStats(workers)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			workerLoop(ctx, p, m, opt, sh, perWorker[w], w)
		}(w)
	}
	wg.Wait()
	close(watchDone)
	total := newStats(workers)
	for _, ps := range perWorker {
		total.merge(ps)
	}
	sh.mu.Lock()
	err := sh.err
	sh.mu.Unlock()
	return total, err
}

// maxConflictRetries bounds how often a worker rematches the same reaction
// after a failed optimistic commit before yielding and moving on. Unbounded
// retries let one contended reaction starve the scan of every other reaction;
// bounded retries cannot lose work — in worklist mode the reaction is
// re-enqueued, and in scan mode the conflicting commit bumped the version, so
// the scan repeats anyway.
const maxConflictRetries = 8

// conflictBackoff spaces out rematches of a contended reaction. The first
// retries stay hot (the conflicting commit usually finished already); after
// that the worker backs off exponentially, capped at 64µs, instead of
// spinning the match engine against the same hot molecules — under heavy
// contention a spinning loser just burns probes and memory bandwidth that the
// commit winner needs to make progress. Timed waits select on ctx.Done, so a
// canceled run is never delayed by parked contended workers; they are
// surfaced in Stats.BackoffWaits. Reports whether ctx ended the wait.
func conflictBackoff(ctx context.Context, retries int, stats *Stats, ts *telSink) (canceled bool) {
	if retries < 2 {
		runtime.Gosched()
		return false
	}
	shift := retries - 2
	if shift > 6 {
		shift = 6
	}
	stats.BackoffWaits++
	ts.backoffWait()
	timer := time.NewTimer(time.Duration(1<<uint(shift)) * time.Microsecond)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return true
	case <-timer.C:
		return false
	}
}

// safeTryFire is tryFire behind the worker pool's panic barrier: a panic in a
// reaction's condition, action or the fault injector is recovered into a
// *rt.PanicError carrying the reaction and worker identity, the pool is told
// to stop, and the worker exits cleanly instead of taking the process down or
// leaving its peers waiting on an idle count that can never complete.
func safeTryFire(ctx context.Context, p *Program, m *multiset.Multiset, opt Options, sh *stealSched, stats *Stats, rng *rand.Rand, ts *telSink, idx, worker int) (fired, stop bool) {
	defer func() {
		if rec := recover(); rec != nil {
			sh.fail(rt.NewPanicError("gamma", p.Reactions[idx].Name, worker, rec))
			fired, stop = false, true
		}
	}()
	return tryFire(ctx, p, m, opt, sh, stats, rng, ts, idx, worker)
}

// safeTryFireBatch is tryFireBatch behind the same panic barrier, with the
// additional duty of releasing the worker's shard view — a panic while the
// view's read locks are held would otherwise deadlock every later commit
// touching those shards.
func safeTryFireBatch(ctx context.Context, p *Program, m *multiset.Multiset, opt Options, sh *stealSched, stats *Stats, rng *rand.Rand, ts *telSink, bw *batchWorker, idx, worker int, requeue bool) (fired, stop bool) {
	defer func() {
		if rec := recover(); rec != nil {
			bw.view.Unlock() // idempotent; no-op when not held
			sh.fail(rt.NewPanicError("gamma", p.Reactions[idx].Name, worker, rec))
			fired, stop = false, true
		}
	}()
	return tryFireBatch(ctx, p, m, opt, sh, stats, rng, ts, bw, idx, worker, requeue)
}

// tryFire probes reaction idx once and fires it if enabled, with the bounded
// optimistic-commit retry loop — the FullScan engine's single-firing path,
// kept from the seed (two-phase TryRemoveAll + AddAll commit) as the
// measurement baseline and differential oracle. The
// incremental engine fires through tryFireBatch instead. Returns whether a
// firing committed and whether the worker must stop (error, cancellation or
// MaxSteps).
func tryFire(ctx context.Context, p *Program, m *multiset.Multiset, opt Options, sh *stealSched, stats *Stats, rng *rand.Rand, ts *telSink, idx, worker int) (fired, stop bool) {
	r := p.Reactions[idx]
	k := r.kernel()
	for retries := 0; ; retries++ {
		if cerr := ctx.Err(); cerr != nil {
			sh.fail(rt.FromContext(cerr))
			return false, true
		}
		stats.Probes++
		t0 := ts.begin()
		ts.probe(r.Name)
		s, err := findFiring(r, m, rng, stats, ts)
		if err != nil {
			sh.fail(err)
			return false, true
		}
		if s == nil {
			return false, false
		}
		if opt.FaultInjector != nil {
			if ferr := opt.FaultInjector(r.Name, worker); ferr != nil {
				k.putSearcher(s)
				sh.fail(ferr)
				return false, true
			}
		}
		products, err := applyAction(r, k, s, opt, stats, ts)
		if err != nil {
			k.putSearcher(s)
			sh.fail(err)
			return false, true
		}
		// Seed-engine commit: separate claim and insert phases. A failed
		// claim means a concurrent worker consumed a matched molecule first.
		if !m.TryRemoveAll(s.chosen) {
			k.putSearcher(s)
			stats.Conflicts++
			ts.conflict(r.Name)
			if retries < maxConflictRetries {
				stats.Retries++
				ts.retry(r.Name)
				if conflictBackoff(ctx, retries, stats, ts) {
					sh.fail(rt.FromContext(ctx.Err()))
					return false, true
				}
				continue // rematch: its molecules changed under us
			}
			// Heavily contended: yield so the other reactions and workers
			// make progress. The commit that beat us bumped the version, so
			// the stability test cannot conclude while this reaction is
			// still enabled.
			runtime.Gosched()
			return false, false
		}
		var seq uint64
		if opt.Schedule != nil {
			// Between claim and insert: the number precedes the products
			// becoming visible to concurrent claims, so across workers the
			// numbers linearize (see multiset.commitSeq).
			seq = m.NextCommitSeq()
		}
		m.AddAll(products)
		traceFiring(opt, r.Name, s.chosen, products)
		recordStep(opt, seq, r.Name, s.chosen, products)
		k.putSearcher(s)
		stats.Steps++
		stats.Fired[r.Name]++
		newSteps := sh.steps.Add(1)
		sh.version.Add(1)
		sh.wake()
		ts.firing(idx, r.Name, t0, m, 0, 0)
		if opt.MaxSteps > 0 && newSteps >= opt.MaxSteps {
			sh.fail(ErrMaxSteps)
			return true, true
		}
		return true, false
	}
}

// batchMaxFirings bounds how many firings of one reaction a worker matches
// before committing the batch. Small enough to keep the shard view's read
// locks short and the optimistic-claim staleness window tight; large enough
// to amortize the commit's write-lock acquisitions and scheduler wakeups
// across several firings.
const batchMaxFirings = 8

// batchWorker is one worker's reusable batch scratch: the shard view, the
// delta list for ApplyDeltas, and the arenas the batch's tuples live in.
// Consume headers point at multiset entry tuples (immutable backings that are
// never recycled), produce headers at cells of the worker-owned vals arena;
// everything is truncated — not freed — between batches, so a steady-state
// batch allocates nothing.
type batchWorker struct {
	view    multiset.View
	deltas  []multiset.Delta
	applied []bool
	seqs    []uint64
	symsBuf []symtab.Sym
	consume []multiset.Tuple
	keys    []string
	produce []multiset.Tuple
	vals    []value.Value
	victims []int // reusable steal-order scratch
}

func (b *batchWorker) reset() {
	b.deltas = b.deltas[:0]
	b.consume = b.consume[:0]
	b.keys = b.keys[:0]
	b.produce = b.produce[:0]
	b.vals = b.vals[:0]
}

// tryFireBatch probes reaction idx under a shard view and fires up to
// batchMaxFirings pairwise-disjoint matches as one ApplyDeltas commit — the
// incremental engine's firing path. One searcher is held across the whole
// batch: each successful search leaves its occurrence claims in the claim
// tracker (a failed search's backtracking undoes only its own), so the next
// search can only choose molecules the batch has not consumed yet, which
// makes the deltas pairwise disjoint and the single commit equivalent to
// firing them one at a time (batch_test.go pins the equivalence). requeue
// re-enqueues the reaction after giving up on a contended commit (deque
// mode; the stability scan passes false — the winning commit bumped the
// version, so the scan repeats regardless).
func tryFireBatch(ctx context.Context, p *Program, m *multiset.Multiset, opt Options, sh *stealSched, stats *Stats, rng *rand.Rand, ts *telSink, bw *batchWorker, idx, worker int, requeue bool) (fired, stop bool) {
	r := p.Reactions[idx]
	subs := p.subs()
	k := r.kernel()
	for retries := 0; ; retries++ {
		if cerr := ctx.Err(); cerr != nil {
			sh.fail(rt.FromContext(cerr))
			return false, true
		}
		maxB := batchMaxFirings
		if opt.MaxSteps > 0 {
			rem := opt.MaxSteps - sh.steps.Load()
			if rem <= 0 {
				// Another worker's commit exhausted the budget already.
				sh.fail(ErrMaxSteps)
				return false, true
			}
			if int64(maxB) > rem {
				maxB = int(rem)
			}
		}
		bw.reset()
		t0 := ts.begin()
		m.LockView(&bw.view, k.viewSyms, k.viewAll)
		s := k.getSearcher(r, m, rng)
		s.view = &bw.view
		var ferr error
		for len(bw.deltas) < maxB {
			stats.Probes++
			ts.probe(r.Name)
			ok := s.search(0)
			if s.err != nil {
				ferr = s.err
				break
			}
			if !ok {
				break // reaction exhausted under the batch's claims
			}
			if opt.FaultInjector != nil {
				if ferr = opt.FaultInjector(r.Name, worker); ferr != nil {
					break
				}
			}
			ps := len(bw.produce)
			if opt.Memo == nil {
				// Arena path: product cells land in the worker's vals buffer,
				// headers in the produce list. Safe because the commit clones
				// what it inserts and nothing retains the headers past it.
				spin(opt.WorkFactor)
				bw.vals, bw.produce, ferr = k.produceInto(r.Name, s.branch, s.env, bw.vals, bw.produce)
			} else {
				// Memoized path: the memo table retains product slices, so
				// they must be freshly allocated, never arena-backed.
				var prods []multiset.Tuple
				prods, ferr = applyAction(r, k, s, opt, stats, ts)
				bw.produce = append(bw.produce, prods...)
			}
			if ferr != nil {
				break
			}
			cs := len(bw.consume)
			bw.consume = append(bw.consume, s.chosen...)
			bw.keys = append(bw.keys, s.keys...)
			// Capacity-clamped subslices: later appends cannot write through
			// earlier deltas, and an arena realloc leaves them reading the
			// old backing, whose cells are immutable and already correct.
			bw.deltas = append(bw.deltas, multiset.Delta{
				Consume: bw.consume[cs:len(bw.consume):len(bw.consume)],
				CKeys:   bw.keys[cs:len(bw.keys):len(bw.keys)],
				Produce: bw.produce[ps:len(bw.produce):len(bw.produce)],
			})
			s.nextInBatch()
		}
		bw.view.Unlock()
		stats.Candidates += s.cands
		ts.candidates(s.cands)
		k.putSearcher(s)
		if ferr != nil {
			sh.fail(ferr)
			return false, true
		}
		matched := len(bw.deltas)
		if matched == 0 {
			return false, false
		}
		// Commit: one write-lock acquisition over the shard union, per-firing
		// all-or-nothing claims. Individual claims can still fail — a
		// concurrent worker consumed a matched molecule between the view
		// unlock and the commit — without voiding the rest of the batch.
		if cap(bw.applied) < matched {
			bw.applied = make([]bool, matched)
		}
		applied := bw.applied[:matched]
		var n int
		var syms []symtab.Sym
		if opt.Schedule != nil {
			if cap(bw.seqs) < matched {
				bw.seqs = make([]uint64, matched)
			}
			n, syms = m.ApplyDeltasSeq(bw.deltas, applied, bw.seqs[:matched], bw.symsBuf[:0])
		} else {
			n, syms = m.ApplyDeltas(bw.deltas, applied, bw.symsBuf[:0])
		}
		bw.symsBuf = syms
		if failedN := matched - n; failedN > 0 {
			stats.Conflicts += int64(failedN)
			ts.conflictN(r.Name, failedN)
		}
		if n == 0 {
			if retries < maxConflictRetries {
				stats.Retries++
				ts.retry(r.Name)
				if conflictBackoff(ctx, retries, stats, ts) {
					sh.fail(rt.FromContext(ctx.Err()))
					return false, true
				}
				continue // rematch: the molecules changed under us
			}
			// Heavily contended: yield so the other reactions and workers
			// make progress.
			if requeue {
				sh.enqueue(worker, idx)
			}
			runtime.Gosched()
			return false, false
		}
		if opt.Tracer != nil || opt.Schedule != nil {
			for i := range bw.deltas {
				if applied[i] {
					traceFiring(opt, r.Name, bw.deltas[i].Consume, bw.deltas[i].Produce)
					if opt.Schedule != nil {
						recordStep(opt, bw.seqs[i], r.Name, bw.deltas[i].Consume, bw.deltas[i].Produce)
					}
				}
			}
		}
		stats.Steps += int64(n)
		stats.Fired[r.Name] += int64(n)
		stats.Batches++
		newSteps := sh.steps.Add(int64(n))
		sh.version.Add(1)
		woken := 0
		wakeIdx := func(j int) {
			if sh.enqueue(worker, j) {
				woken++
			}
		}
		subs.forEachSym(syms, wakeIdx)
		wakeIdx(idx) // may still be enabled on what remains
		sh.wake()
		ts.batchCommit(idx, r.Name, t0, m, woken, sh.deques[worker].size(), n)
		if opt.MaxSteps > 0 && newSteps >= opt.MaxSteps {
			sh.fail(ErrMaxSteps)
			return true, true
		}
		return true, false
	}
}

func workerLoop(ctx context.Context, p *Program, m *multiset.Multiset, opt Options, sh *stealSched, stats *Stats, id int) {
	rng := rand.New(rand.NewSource(opt.Seed + int64(id)*0x9e3779b9 + 1))
	ts := newTelSink(opt, p, id)
	n := len(p.Reactions)
	bw := &batchWorker{}
	probe := func(idx int, requeue bool) (fired, stop bool) {
		if opt.FullScan {
			return safeTryFire(ctx, p, m, opt, sh, stats, rng, ts, idx, id)
		}
		return safeTryFireBatch(ctx, p, m, opt, sh, stats, rng, ts, bw, idx, id, requeue)
	}
	for {
		if sh.stopped.Load() {
			return
		}
		// 1. Own deque, newest first (hot in cache).
		if idx, ok := sh.take(id); ok {
			if _, stop := probe(idx, true); stop {
				return
			}
			continue
		}
		// 2. Steal, oldest first, each peer tried once in an order derived
		// from the worker's own rng stream (deterministic for a fixed seed).
		stole := false
		bw.victims = victimOrder(rng, id, sh.workers, bw.victims)
		for _, v := range bw.victims {
			x, ok := sh.deques[v].steal()
			if !ok {
				continue
			}
			sh.queued[x].Store(false)
			stats.Steals++
			ts.steal()
			stole = true
			if _, stop := probe(int(x), true); stop {
				return
			}
			break
		}
		if stole {
			continue
		}
		// 3. Every deque empty: full scan, the exact Eq. 1 stability test.
		// The deques are best-effort under concurrency; this backstop keeps
		// termination exact regardless of scheduling races — a probe may be
		// wasted, never the other way around.
		scanVersion := sh.version.Load()
		fired := false
		start := rng.Intn(n)
		for k := 0; k < n; k++ {
			firedHere, stop := probe((start+k)%n, false)
			if stop {
				return
			}
			if firedHere {
				fired = true
				break
			}
		}
		if fired {
			continue
		}
		// 4. Full scan with no enabled reaction. Go idle at scanVersion; if
		// all workers are idle at an unchanged version, no molecule has
		// changed since a full unsuccessful scan, so no reaction is enabled
		// and the stable state of Eq. 1 is reached. The scan probed every
		// reaction directly, so the conclusion never depends on deque
		// contents — and at this point every deque is empty anyway, because
		// an owner drains its own deque before scanning and only owners push.
		sh.mu.Lock()
		if sh.version.Load() != scanVersion {
			sh.mu.Unlock() // something committed mid-scan; rescan
			continue
		}
		sh.idle.Add(1)
		if int(sh.idle.Load()) == sh.workers { // all idle: stable state
			sh.done = true
			sh.stopped.Store(true)
			sh.cond.Broadcast()
			sh.mu.Unlock()
			return
		}
		for sh.version.Load() == scanVersion && !sh.done && sh.err == nil {
			sh.cond.Wait()
		}
		sh.idle.Add(-1)
		done := sh.done || sh.err != nil
		sh.mu.Unlock()
		if done {
			return
		}
	}
}

func (sh *stealSched) fail(err error) {
	sh.mu.Lock()
	// A failure after the stable state was already reached (e.g. the context
	// watcher losing the race with completion) must not turn success into an
	// error.
	if sh.err == nil && !sh.done {
		sh.err = err
		sh.stopped.Store(true)
	}
	sh.cond.Broadcast()
	sh.mu.Unlock()
}

// Plan is a sequential composition of parallel reaction groups: the paper's
// ';' operator over '|' groups (P1 ; P2 ; ...). Each program runs to its
// stable state before the next starts.
type Plan struct {
	Stages []*Program
}

// Sequence builds a Plan from programs run one after another.
func Sequence(stages ...*Program) *Plan { return &Plan{Stages: stages} }

// Run executes every stage in order on the same multiset, merging stats.
func (pl *Plan) Run(m *multiset.Multiset, opt Options) (*Stats, error) {
	return pl.RunContext(context.Background(), m, opt)
}

// RunContext is Run under a context; a cancellation or deadline stops the
// current stage at its next commit boundary and returns the stats merged
// across the stages run so far.
func (pl *Plan) RunContext(ctx context.Context, m *multiset.Multiset, opt Options) (*Stats, error) {
	total := newStats(opt.Workers)
	for _, stage := range pl.Stages {
		st, err := RunContext(ctx, stage, m, opt)
		if st != nil {
			total.merge(st)
		}
		if err != nil {
			return total, fmt.Errorf("gamma: stage %s: %w", stage.Name, err)
		}
	}
	return total, nil
}
