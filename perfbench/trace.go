package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one call into a layer, recorded by the benchmark around the public
// entry point it calls. Name is "<layer>.<call>"; Class tells instance
// classes of one call apart (min, min-4n, sieve, ...); N is the count the call
// returned (firings, elements, bytes), so ratios are taken where the work
// happened.
type span struct {
	Name   string
	Class  string
	Start  time.Time
	End    time.Time
	Parent int
	Op     int64
	N      int64
}

func (s *span) dur() time.Duration { return s.End.Sub(s.Start) }

func (s *span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps every span in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so the timed runs pay one nil check
// per boundary.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// noSpan is the parent of root spans and the id a nil tracer hands out.
const noSpan = -1

func (t *tracer) start(name, class string, parent int, op int64) int {
	if t == nil {
		return noSpan
	}
	now := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Class: class, Start: now, Parent: parent, Op: op})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// end closes span id and records the count n it produced.
func (t *tracer) end(id int, n int64) {
	if t == nil || id == noSpan {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id].End = now
	t.spans[id].N = n
	t.mu.Unlock()
}

// selected returns the closed spans with the given name and, unless class is
// empty, the given class.
func (t *tracer) selected(name, class string) []span {
	if t == nil {
		return nil
	}
	var out []span
	for _, s := range t.spans {
		if s.Name == name && (class == "" || s.Class == class) && !s.End.IsZero() {
			out = append(out, s)
		}
	}
	return out
}

// perUnit is the summed duration of the selected spans divided by their
// summed counts, in the given unit (e.g. µs per firing). It is 0 when the
// spans counted nothing.
func (t *tracer) perUnit(name, class string, unit time.Duration) float64 {
	var d time.Duration
	var n int64
	for _, s := range t.selected(name, class) {
		d += s.dur()
		n += s.N
	}
	if n == 0 {
		return 0
	}
	return float64(d) / float64(unit) / float64(n)
}

// medianDur is the median duration of the selected spans in unit.
func (t *tracer) medianDur(name, class string, unit time.Duration) float64 {
	var ds []float64
	for _, s := range t.selected(name, class) {
		ds = append(ds, float64(s.dur())/float64(unit))
	}
	return median(ds)
}

// selfTimes returns each layer's self time over the span trees whose root is
// named root: a span's duration minus the part of it that its child spans
// cover. Children of one span may overlap (concurrent requests), so the
// covered part is their union.
func (t *tracer) selfTimes(root string) map[string]time.Duration {
	out := map[string]time.Duration{}
	if t == nil {
		return out
	}
	children := map[int][]int{}
	rootOf := make([]int, len(t.spans))
	for i, s := range t.spans {
		rootOf[i] = i
		if s.Parent != noSpan {
			// A parent is always started, so recorded, before its children.
			rootOf[i] = rootOf[s.Parent]
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.End.IsZero() || t.spans[rootOf[i]].Name != root {
			continue
		}
		var iv [][2]time.Time
		for _, c := range children[i] {
			if cs := t.spans[c]; !cs.End.IsZero() {
				iv = append(iv, [2]time.Time{cs.Start, cs.End})
			}
		}
		out[s.layer()] += s.dur() - unionLen(iv, s.Start, s.End)
	}
	return out
}

// unionLen is the length of the union of intervals iv clipped to [lo, hi].
func unionLen(iv [][2]time.Time, lo, hi time.Time) time.Duration {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0].Before(iv[b][0]) })
	var total time.Duration
	var cur [2]time.Time
	open := false
	for _, x := range iv {
		if x[0].Before(lo) {
			x[0] = lo
		}
		if x[1].After(hi) {
			x[1] = hi
		}
		if !x[1].After(x[0]) {
			continue
		}
		if open && !x[0].After(cur[1]) {
			if x[1].After(cur[1]) {
				cur[1] = x[1]
			}
			continue
		}
		if open {
			total += cur[1].Sub(cur[0])
		}
		cur, open = x, true
	}
	if open {
		total += cur[1].Sub(cur[0])
	}
	return total
}
