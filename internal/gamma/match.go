package gamma

import (
	"math/rand"

	"repro/internal/expr"
	"repro/internal/multiset"
	"repro/internal/value"
)

// Match is one enabled application of a reaction: the concrete elements
// chosen from the multiset, the variable bindings they induce, and the branch
// that fired.
type Match struct {
	Chosen []multiset.Tuple
	Env    expr.MapEnv
	Branch int
}

// FindMatch searches m for an enabled match of r. It returns nil when the
// reaction is not enabled on m (no combination of elements satisfies the
// patterns and some branch condition). When rng is non-nil, candidate order
// is randomized — the nondeterministic selection of §II-B; with a nil rng the
// search is deterministic, which the sequential interpreter and the tests
// rely on.
//
// The search runs on the reaction's compiled kernel (kernel.go): a
// backtracking enumeration over the replace-list patterns with variable
// bindings in a slot-indexed environment. Patterns whose label field is a
// literal (the shape Algorithm 1 always emits) draw candidates from the
// multiset's interned label or (label, tag) index, so converted dataflow
// programs match in near-constant time; fully generic patterns walk the
// whole multiset.
//
// Every probe runs inside one multiset.View session: the shards the
// reaction's patterns can touch are read-locked once, and every nested
// enumeration walks the live chunked indexes in place — no snapshot, no
// per-probe sort, and each candidate arrives with its cached Key()
// fingerprint — so a probe costs only the candidates it actually visits.
// Enumeration starts at a rotated position and wraps. A deterministic probe
// rotates generic patterns by a function of the multiset's size and walks
// labeled ones in ascending key order; a randomized probe draws one rotation
// from rng for all its patterns.
//
// FindMatch materializes the bindings into a MapEnv for its callers (tests,
// Enabled, the dataflow equivalence checker); the step loop in run.go uses
// findFiring to keep the pooled slot environment instead.
func FindMatch(r *Reaction, m *multiset.Multiset, rng *rand.Rand) (*Match, error) {
	k := r.kernel()
	s, err := findFiring(r, m, rng, nil, nil)
	if err != nil || s == nil {
		return nil, err
	}
	defer k.putSearcher(s)
	env := make(expr.MapEnv, len(k.varOf))
	for slot, name := range k.varOf {
		if v := s.env[slot]; v.IsValid() {
			env[name] = v
		}
	}
	chosen := make([]multiset.Tuple, len(s.chosen))
	copy(chosen, s.chosen)
	return &Match{Chosen: chosen, Env: env, Branch: s.branch}, nil
}

// findFiring is the allocation-free core of FindMatch: it returns a pooled
// searcher holding an enabled firing (slot env, chosen tuples with their
// cached keys, selected branch), or nil when the reaction is not enabled.
// The candidates the probe visited are added to stats and ts, either of
// which may be nil. The caller must release a non-nil searcher via
// r.kernel().putSearcher once done reading it.
func findFiring(r *Reaction, m *multiset.Multiset, rng *rand.Rand, stats *Stats, ts *telSink) (*searcher, error) {
	k := r.kernel()
	s := k.getSearcher(r, m, rng)
	ok := s.probe()
	if stats != nil {
		stats.Candidates += s.cands
	}
	ts.candidates(s.cands)
	if s.err != nil || !ok {
		err := s.err
		k.putSearcher(s)
		return nil, err
	}
	return s, nil
}

// probe runs one search inside the searcher's own View session. The deferred
// unlock keeps a panicking condition from leaving shard read locks behind.
func (s *searcher) probe() bool {
	s.m.LockView(&s.own, s.k.viewSyms, s.k.viewAll)
	defer s.own.Unlock()
	s.view = &s.own
	return s.search(0)
}

// searcher is the recycled scratch of one match search; see kernel.getSearcher.
type searcher struct {
	k      *kernel
	r      *Reaction
	m      *multiset.Multiset
	rng    *rand.Rand
	view   *multiset.View // the locked session candidates come from
	own    multiset.View  // findFiring's session; batches lock their own
	rot    uint64         // enumeration rotation of the current search
	env    []value.Value  // slot-indexed bindings; invalid Value = unbound
	claims []claim        // occurrences already claimed, in claim order
	chosen []multiset.Tuple
	keys   []string // cached Key() of each chosen tuple
	cands  int64    // candidates visited since getSearcher
	branch int
	err    error
}

// claim counts the occurrences of one tuple key held by the patterns bound so
// far (and, in a batch, by the batch's earlier firings). search claims and
// unclaims in stack order, so an entry whose count drops to zero is always
// the last one and is popped: the slice holds at most patterns × batch size
// live entries, and a linear scan over it beats hashing.
type claim struct {
	key string
	n   int
}

// claimed returns the index of key's claim entry, or -1.
func (s *searcher) claimed(key string) int {
	for i := range s.claims {
		if s.claims[i].key == key {
			return i
		}
	}
	return -1
}

// nextInBatch readies the searcher for the next search of a multi-firing
// batch: the slot environment is cleared but the claims are kept, so the
// occurrences chosen by the batch's earlier (not yet committed) firings
// stay claimed — that is what makes the batch's deltas pairwise disjoint and
// the single ApplyDeltas commit equivalent to firing them one by one. A
// randomized batch draws the next search's rotation. The caller must copy
// chosen/keys out before calling; the next search overwrites them.
func (s *searcher) nextInBatch() {
	for i := range s.env {
		s.env[i] = value.Value{}
	}
	if s.rng != nil {
		s.rot = s.rng.Uint64()
	}
}

func (s *searcher) search(i int) bool {
	if i == len(s.k.pats) {
		idx, err := s.k.selectBranch(s.r.Name, s.env)
		if err != nil {
			s.err = err
			return false
		}
		if idx < 0 {
			return false // binding found but no branch enabled; backtrack
		}
		s.branch = idx
		return true
	}
	kp := &s.k.pats[i]
	found := false
	s.eachCandidate(kp, func(t multiset.Tuple, n int, key string) bool {
		s.cands++
		c := s.claimed(key)
		if c >= 0 && s.claims[c].n >= n {
			return true // all occurrences already claimed by earlier patterns
		}
		if !kp.match(t, s.env) {
			return true
		}
		if c < 0 {
			c = len(s.claims)
			s.claims = append(s.claims, claim{key: key})
		}
		s.claims[c].n++
		s.chosen[i] = t
		s.keys[i] = key
		if s.search(i + 1) {
			found = true
			return false
		}
		if s.claims[c].n--; s.claims[c].n == 0 {
			s.claims[c] = claim{} // c is the last entry: claims unwind LIFO
			s.claims = s.claims[:c]
		}
		kp.clear(s.env)
		return s.err == nil
	})
	return found
}

// eachCandidate enumerates the possible elements for pattern kp under the
// current bindings, using the narrowest index of the locked view, until fn
// returns false. Every candidate carries the multiset's cached key
// fingerprint. Every pattern of one search starts at the same rotation,
// s.rot; a deterministic search walks labeled indexes from the start
// (ascending key order) instead.
func (s *searcher) eachCandidate(kp *kpat, fn func(t multiset.Tuple, n int, key string) bool) {
	if !kp.hasLabel {
		s.view.EachAll(s.rot, fn)
		return
	}
	rot := s.rot
	if s.rng == nil {
		rot = 0
	}
	if tag, ok := s.tagOf(kp); ok {
		s.view.EachSymTag(kp.labelSym, tag, rot, fn)
	} else {
		s.view.EachSym(kp.labelSym, rot, fn)
	}
}

// detRotation maps a multiset size to an enumeration rotation via a
// splitmix64 finalizer round: consecutive sizes land on well-scattered
// rotations, so a shrinking (or growing) multiset keeps moving the probe's
// starting shard and offset.
func detRotation(n int) uint64 {
	z := uint64(n) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// tagOf resolves a concrete integer tag for kp's enumeration, per the
// kernel's static plan: a literal tag always, a tag variable only when an
// earlier pattern bound its slot to an int — the common case for Algorithm 1
// output, where all patterns share the tag variable and the first match pins
// it.
func (s *searcher) tagOf(kp *kpat) (int64, bool) {
	switch kp.tagMode {
	case tagLit:
		return kp.tagLit, true
	case tagSlot:
		if v := s.env[kp.tagSlot]; v.Kind() == value.KindInt {
			return v.AsInt(), true
		}
	}
	return 0, false
}

// patternLabel extracts a literal string in the label position (field 1).
func patternLabel(p Pattern) (string, bool) {
	if len(p) >= 2 && p[1].Var == "" && p[1].Lit.Kind() == value.KindString {
		return p[1].Lit.AsString(), true
	}
	return "", false
}

// Enabled reports whether any reaction of p has an enabled match on m — the
// negation of Eq. 1's termination test (∀i ∀x ¬Ri(x...)).
func Enabled(p *Program, m *multiset.Multiset) (bool, error) {
	for _, r := range p.Reactions {
		match, err := FindMatch(r, m, nil)
		if err != nil {
			return false, err
		}
		if match != nil {
			return true, nil
		}
	}
	return false, nil
}
