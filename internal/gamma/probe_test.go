package gamma

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/multiset"
	"repro/internal/value"
)

// permInts builds a multiset of the scalars 0..n-1 inserted in a seeded
// random order.
func permInts(n int, seed int64) *multiset.Multiset {
	m := multiset.New()
	for _, v := range rand.New(rand.NewSource(seed)).Perm(n) {
		m.Add(multiset.New1(value.Int(int64(v))))
	}
	return m
}

// sieveReaction is the pairwise sieve: an element divisible by another one
// disappears, so {2..n} reduces to the primes ≤ n.
func sieveReaction() *Reaction {
	return &Reaction{
		Name:     "sieve",
		Patterns: []Pattern{{FVar("x")}, {FVar("y")}},
		Branches: []Branch{{
			Cond:     expr.MustParse("x % y == 0 && x != y"),
			Products: []Template{{expr.MustParse("y")}},
		}},
	}
}

// TestMinCandidatesPerStepFlat is the matcher's scaling contract on the
// sequential engine: one step of Eq. 2 min visits O(1) candidates, so
// quadrupling n must not grow candidates per step by more than half. The
// seeded run covers the rng-rotated enumeration the parallel workers use.
func TestMinCandidatesPerStepFlat(t *testing.T) {
	const n = 2000
	for _, seed := range []int64{0, 7} {
		perStep := func(n int) float64 {
			st, err := Run(MustProgram("min", minReaction()), permInts(n, 5), Options{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if st.Steps != int64(n-1) {
				t.Fatalf("seed %d, n=%d: steps = %d, want %d", seed, n, st.Steps, n-1)
			}
			if st.Candidates < st.Steps {
				t.Fatalf("seed %d, n=%d: %d candidates for %d steps", seed, n, st.Candidates, st.Steps)
			}
			return float64(st.Candidates) / float64(st.Steps)
		}
		small, large := perStep(n), perStep(4*n)
		t.Logf("seed %d: candidates/step %.2f at n=%d, %.2f at n=%d", seed, small, n, large, 4*n)
		if large > 1.5*small {
			t.Errorf("seed %d: candidates/step grew %.2f → %.2f from n=%d to n=%d, want ≤ 1.5×", seed, small, large, n, 4*n)
		}
	}
}

// TestClaimsEmptyOnRelease checks that a released searcher holds no claims
// and pins no claimed key.
func TestClaimsEmptyOnRelease(t *testing.T) {
	r := minReaction()
	m := intsMultiset(3, 1, 2)
	s, err := findFiring(r, m, nil, nil, nil)
	if err != nil || s == nil {
		t.Fatalf("findFiring = (%v, %v), want a firing", s, err)
	}
	if len(s.claims) != 2 {
		t.Fatalf("a two-pattern firing holds %d claims, want 2", len(s.claims))
	}
	r.kernel().putSearcher(s)
	if len(s.claims) != 0 {
		t.Fatalf("released searcher holds %d claims", len(s.claims))
	}
	for i, c := range s.claims[:cap(s.claims)] {
		if c != (claim{}) {
			t.Fatalf("released searcher still pins claim %d: %+v", i, c)
		}
	}
}

// TestClaimsKeptAcrossNextInBatch checks the batch contract: claims survive
// nextInBatch, so later searches of a batch choose only unclaimed
// occurrences, and a failed search unwinds only its own claims.
func TestClaimsKeptAcrossNextInBatch(t *testing.T) {
	r := minReaction()
	k := r.kernel()
	m := intsMultiset(1, 2, 3, 3)
	var v multiset.View
	m.LockView(&v, k.viewSyms, k.viewAll)
	defer v.Unlock()
	s := k.getSearcher(r, m, rand.New(rand.NewSource(1)))
	defer k.putSearcher(s)
	s.view = &v
	held := map[string]int{}
	for firing := 0; firing < 2; firing++ {
		if !s.search(0) {
			t.Fatalf("firing %d: no match, claims %+v", firing, s.claims)
		}
		for _, key := range s.keys {
			held[key]++
		}
		s.nextInBatch()
	}
	// Four occurrences, two firings of two: everything is claimed.
	if len(held) != 3 || held[multiset.New1(value.Int(3)).Key()] != 2 {
		t.Fatalf("batch chose %v, want each of 1, 2 once and 3 twice", held)
	}
	before := fmt.Sprint(s.claims)
	if s.search(0) {
		t.Fatalf("third firing matched %v with every occurrence claimed", s.chosen)
	}
	if after := fmt.Sprint(s.claims); after != before {
		t.Fatalf("failed search changed the claims: %s → %s", before, after)
	}
	total := 0
	for _, c := range s.claims {
		total += c.n
	}
	if total != 4 {
		t.Fatalf("claims %+v hold %d occurrences, want 4", s.claims, total)
	}
}

// BenchmarkProbe measures one deterministic probe (ns/op) and the candidates
// it visits: Eq. 2 min at n=1600 and the sieve over 2..150.
func BenchmarkProbe(b *testing.B) {
	sieve := multiset.New()
	for i := int64(2); i <= 150; i++ {
		sieve.Add(multiset.New1(value.Int(i)))
	}
	for _, c := range []struct {
		name string
		r    *Reaction
		m    *multiset.Multiset
	}{
		{"min/n=1600", minReaction(), permInts(1600, 1)},
		{"sieve/n=150", sieveReaction(), sieve},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var st Stats
			for i := 0; i < b.N; i++ {
				s, err := findFiring(c.r, c.m, nil, &st, nil)
				if err != nil || s == nil {
					b.Fatalf("probe = (%v, %v), want a firing", s, err)
				}
				c.r.kernel().putSearcher(s)
			}
			b.ReportMetric(float64(st.Candidates)/float64(b.N), "candidates/op")
		})
	}
}
