package multiset

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/value"
)

// buildInts builds a multiset of the n scalar elements 0..n-1, the shape of
// the Eq. 2 min workload.
func buildInts(n int) *Multiset {
	m := New()
	for i := 0; i < n; i++ {
		m.Add(New1(value.Int(int64(i))))
	}
	return m
}

// TestBuildSmallMultisetAllocation pins the pay-per-element arena: a
// 4-element multiset must not carve full-size chunks on the shards its
// elements touch.
func TestBuildSmallMultisetAllocation(t *testing.T) {
	const builds = 64
	keep := make([]*Multiset, builds)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = buildInts(4)
	}
	runtime.ReadMemStats(&after)
	perBuild := (after.TotalAlloc - before.TotalAlloc) / builds
	if perBuild >= 16<<10 {
		t.Errorf("building a 4-element multiset allocates %d B, want < 16 KiB", perBuild)
	}
	t.Logf("4-element build: %d B", perBuild)
	runtime.KeepAlive(keep)
}

// TestArenaChunksGrowGeometrically pins the chunk schedule: each kind starts
// at its small first chunk and doubles per fresh chunk up to its cap.
func TestArenaChunksGrowGeometrically(t *testing.T) {
	var a shardArena
	var caps []int
	for i := 0; i < 2*entryChunkMax; i++ {
		a.newEntry()
		if len(caps) == 0 || caps[len(caps)-1] != cap(a.entries) {
			caps = append(caps, cap(a.entries))
		}
	}
	want := []int{4, 8, 16, 32, 64, 128, 256}
	if fmt.Sprint(caps) != fmt.Sprint(want) {
		t.Errorf("entry chunk capacities %v, want %v", caps, want)
	}
	for _, c := range []struct{ prev, need, lo, hi, want int }{
		{0, 1, 64, 4096, 64},
		{64, 1, 64, 4096, 128},
		{4096, 1, 64, 4096, 4096},
		{0, 300, 64, 4096, 512},   // a long key skips ahead to fit
		{2048, 9, 64, 4096, 4096}, // capped
	} {
		if got := nextChunk(c.prev, c.need, c.lo, c.hi); got != c.want {
			t.Errorf("nextChunk(%d, %d, %d, %d) = %d, want %d", c.prev, c.need, c.lo, c.hi, got, c.want)
		}
	}
}

// TestArenaWriteOnce checks the write-once rule across chunk switches:
// after 10k further carves of every kind and size, including oversized ones,
// the keys, tuples and entries carved first still hold their bytes.
func TestArenaWriteOnce(t *testing.T) {
	var a shardArena
	type carve struct {
		key   string
		want  string
		tuple Tuple
		cells []int64
		e     *entry
	}
	carveOne := func(i int) carve {
		n := 1 + i%7
		if i%997 == 0 {
			n = cellChunkMax/4 + 1 // oversized: its own allocation
		}
		cells := make([]int64, n)
		tup := make(Tuple, n)
		for j := range cells {
			cells[j] = int64(i*31 + j)
			tup[j] = value.Int(cells[j])
		}
		kb := []byte(fmt.Sprintf("k%d-%0*d", i, i%40, i))
		if i%991 == 0 {
			kb = append(kb, make([]byte, keyChunkMax/4)...) // oversized key
		}
		e := a.newEntry()
		e.count, e.tag = i, int64(i)
		return carve{key: a.internKey(kb), want: string(kb), tuple: a.cloneTuple(tup), cells: cells, e: e}
	}
	var early []carve
	for i := 0; i < 300; i++ {
		early = append(early, carveOne(i))
	}
	for i := 300; i < 10300; i++ {
		carveOne(i)
	}
	for i, c := range early {
		if c.key != c.want {
			t.Fatalf("carve %d: key changed to %q, want %q", i, c.key, c.want)
		}
		if len(c.tuple) != len(c.cells) {
			t.Fatalf("carve %d: tuple length %d, want %d", i, len(c.tuple), len(c.cells))
		}
		for j, v := range c.cells {
			if c.tuple[j].AsInt() != v {
				t.Fatalf("carve %d: cell %d = %v, want %d", i, j, c.tuple[j], v)
			}
		}
		if c.e.count != i || c.e.tag != int64(i) {
			t.Fatalf("carve %d: entry overwritten (count %d, tag %d)", i, c.e.count, c.e.tag)
		}
	}
}

// buildSink keeps BenchmarkBuild's multisets observable to the compiler.
var buildSink *Multiset

// BenchmarkBuild measures building a multiset of n scalar elements from
// scratch: what holding a small multiset costs (B/op) and how the cost grows
// with its size.
func BenchmarkBuild(b *testing.B) {
	for _, n := range []int{4, 100, 1600} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buildSink = buildInts(n)
			}
		})
	}
}
