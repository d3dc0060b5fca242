package exec

import (
	"sync"

	"qpp/internal/types"
)

// arenaChunk is the number of Values per arena chunk (192 KiB): large
// enough that a chunk holds hundreds of join rows, small enough that the
// tail a query leaves unused is noise.
const arenaChunk = 8192

// arenaKeep is the most chunks an arena keeps when it goes back to the
// pool (24 MiB). Measured at SF 0.005, the benchmark's scale: 19 of the 22
// templates fill at most 4 chunks (≤ 0.8 MB), T18 19 (3.7 MB), T7 21
// (4.1 MB), T9 95–97 (19 MB), so every query there runs entirely on
// recycled memory; with 40-byte Values batch_exec pass_s read 0.68 s at
// this cap and 0.83 s at 24 chunks, where each T9 asked the runtime for
// fresh spans. Both constants count Values, so the chunk counts did not
// move when the Value shrank to 24 bytes. At the figure drivers' larger
// scales the cap bounds what one arena can pin until the collector empties
// the pool.
const arenaKeep = 128

// rowArena owns the row memory of one query: every []types.Value an
// operator creates while the query runs is bump-allocated from its chunks,
// and the next query on the worker overwrites the same chunks. Nothing
// handed out survives the Run that handed it out.
type rowArena struct {
	chunks [][]types.Value
	next   int           // chunks[next:] are unused
	free   []types.Value // unallocated tail of chunks[next-1]
}

// arenaPool recycles arenas across Runs. A sync.Pool rather than a free
// list because the collector empties it: an idle process pins no arena.
var arenaPool = sync.Pool{New: func() any { return new(rowArena) }}

// onArenaRelease, when non-nil, is called with every stretch of allocated
// storage release frees. It is nil outside tests, which poison the
// stretches to prove that nothing reads a sub-plan's rows after its release.
var onArenaRelease func([]types.Value)

// alloc returns n Values of recycled — not zeroed — storage, capped so an
// append cannot run into the neighbouring row. The caller overwrites all n.
func (a *rowArena) alloc(n int) []types.Value {
	if n > len(a.free) {
		if n > arenaChunk {
			return make([]types.Value, n) //qpplint:ignore hotalloc wider than a chunk: a plain heap row
		}
		if a.next == len(a.chunks) {
			a.chunks = append(a.chunks, make([]types.Value, arenaChunk)) //qpplint:ignore hotalloc the arena's own chunk
		}
		a.free = a.chunks[a.next]
		a.next++
	}
	out := a.free[:n:n]
	a.free = a.free[n:]
	return out
}

// copyOf returns an arena copy of src.
func (a *rowArena) copyOf(src []types.Value) []types.Value {
	out := a.alloc(len(src))
	copy(out, src)
	return out
}

// arenaMark is an allocation position to release back to.
type arenaMark struct {
	next int
	free []types.Value
}

func (a *rowArena) mark() arenaMark { return arenaMark{a.next, a.free} }

// release frees everything allocated since m for reuse.
func (a *rowArena) release(m arenaMark) {
	if onArenaRelease != nil {
		regions := append([][]types.Value{m.free}, a.chunks[m.next:a.next]...)
		last := &regions[len(regions)-1]
		*last = (*last)[:len(*last)-len(a.free)] // a.free is its unallocated tail
		for _, r := range regions {
			onArenaRelease(r)
		}
	}
	a.next, a.free = m.next, m.free
}

// recycle empties the arena, drops the chunks past arenaKeep and returns
// it to the pool.
func (a *rowArena) recycle() {
	if len(a.chunks) > arenaKeep {
		clear(a.chunks[arenaKeep:])
		a.chunks = a.chunks[:arenaKeep]
	}
	a.next, a.free = 0, nil
	arenaPool.Put(a)
}
