package multiset

import (
	"unsafe"

	"repro/internal/value"
)

// shardArena amortizes the three allocations that linking a distinct tuple
// into a shard otherwise costs — the entry struct, the key string, and the
// defensive copy of the tuple cells — by carving each from append-only
// chunks. A chunk region is written exactly once, when carved, and never
// again: later carves append strictly past it and a full chunk is replaced
// by a fresh one rather than grown (growing would relocate live carves). That
// write-once discipline is what makes the unsafe.String view over the key
// bytes sound, and it preserves the shard contract that tuple backings and
// key strings handed to searchers, memo keys and traces are never reused.
//
// Chunks grow geometrically per shard: the first is small and each fresh one
// doubles its predecessor up to a cap, so a shard holding a handful of
// tuples costs a few hundred bytes rather than a full-size chunk of each
// kind, while a busy shard still amortizes to one allocation per cap-sized
// chunk. Chunk memory is reclaimed by the GC once every entry, key and tuple
// carved from it dies; a long-lived carve pins at most one chunk of each
// kind. All methods require the owning shard's write lock.
type shardArena struct {
	entries []entry
	keys    []byte
	cells   []value.Value
}

// First and largest chunk sizes of each kind. Keys and tuples longer than a
// quarter of the largest chunk are allocated on their own.
const (
	entryChunkMin, entryChunkMax = 4, 256
	keyChunkMin, keyChunkMax     = 64, 4096
	cellChunkMin, cellChunkMax   = 8, 1024
)

// nextChunk returns the capacity of the chunk replacing a full one of
// capacity prev: double it, within [lo, hi], and large enough for need.
func nextChunk(prev, need, lo, hi int) int {
	c := min(max(2*prev, lo), hi)
	for c < need {
		c *= 2
	}
	return c
}

// newEntry carves a zeroed entry, switching to a fresh chunk when full.
func (a *shardArena) newEntry() *entry {
	if len(a.entries) == cap(a.entries) {
		a.entries = make([]entry, 0, nextChunk(cap(a.entries), 1, entryChunkMin, entryChunkMax))
	}
	a.entries = a.entries[:len(a.entries)+1]
	return &a.entries[len(a.entries)-1]
}

// internKey copies the fingerprint bytes into the key chunk and returns a
// string viewing them. Oversized keys get their own allocation so one huge
// key cannot waste most of a chunk.
func (a *shardArena) internKey(kb []byte) string {
	n := len(kb)
	if n == 0 {
		return ""
	}
	if n > keyChunkMax/4 {
		return string(kb)
	}
	if cap(a.keys)-len(a.keys) < n {
		a.keys = make([]byte, 0, nextChunk(cap(a.keys), n, keyChunkMin, keyChunkMax))
	}
	off := len(a.keys)
	a.keys = append(a.keys, kb...)
	return unsafe.String(&a.keys[off], n)
}

// cloneTuple copies t's cells into the cell chunk and returns a capacity-
// clamped tuple over them, equivalent to t.Clone() without the per-tuple
// allocation.
func (a *shardArena) cloneTuple(t Tuple) Tuple {
	n := len(t)
	if n == 0 {
		return nil
	}
	if n > cellChunkMax/4 {
		return t.Clone()
	}
	if cap(a.cells)-len(a.cells) < n {
		a.cells = make([]value.Value, 0, nextChunk(cap(a.cells), n, cellChunkMin, cellChunkMax))
	}
	off := len(a.cells)
	a.cells = append(a.cells, t...)
	return Tuple(a.cells[off : off+n : off+n])
}
