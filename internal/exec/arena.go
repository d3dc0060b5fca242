package exec

import (
	"math/bits"
	"reflect"
	"sync"

	"qpp/internal/plan"
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

// scratchKeep is the most bytes of scratch arrays an arena keeps when it
// goes back to the pool, smallest capacities first. Measured at SF 0.005:
// T18 leaves 3.9 MB of them, T9 2.8 MB, every other template less, and an
// arena that has run all of them about 4 MB, so every query there finds
// its arrays on the free lists. A join of 2²⁰ build rows leaves more and
// is cut here.
const scratchKeep = 16 << 20

// queryArena owns the memory of one query. Every []types.Value an
// operator creates while the query runs is bump-allocated from its chunks,
// every array an operator grows per row or per key (hash-join chains,
// hash-table slots and keys, aggregate groups and states, sort buffers)
// comes from its typed free lists, and the next query on the worker
// reuses both. Nothing handed out survives the Run that handed it out.
type queryArena struct {
	chunks [][]types.Value
	next   int           // chunks[next:] are unused
	free   []types.Value // unallocated tail of chunks[next-1]

	rows   scratch[plan.Row]    // join build rows, sort and result buffers
	ids    scratch[int32]       // hash slots, join chains, probe matches
	ikeys  scratch[[2]int64]    // hash-table integer keys
	hashes scratch[uint64]      // hash-table stored hashes
	vals   scratch[types.Value] // hash-table general keys
	groups scratch[aggGroup]
	states scratch[aggState]
}

// scratchLists is the arena's free lists, in the order recycle trims
// them.
func (a *queryArena) scratchLists() [7]scratchList {
	return [...]scratchList{&a.ids, &a.ikeys, &a.hashes, &a.rows, &a.vals, &a.groups, &a.states}
}

// arenaPool recycles arenas across Runs. A sync.Pool rather than a free
// list because the collector empties it: an idle process pins no arena.
var arenaPool = sync.Pool{New: func() any { return new(queryArena) }}

// onArenaRelease, when non-nil, is called with everything release frees:
// each stretch of row storage as a []types.Value, and each scratch array,
// at its full capacity, as the slice type it was handed out as. It is nil
// outside tests, which poison the memory to prove that nothing reads a
// sub-plan's rows or arrays after its release.
var onArenaRelease func(any)

// alloc returns n Values of recycled — not zeroed — storage, capped so an
// append cannot run into the neighbouring row. The caller overwrites all n.
func (a *queryArena) alloc(n int) []types.Value {
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
func (a *queryArena) copyOf(src []types.Value) []types.Value {
	out := a.alloc(len(src))
	copy(out, src)
	return out
}

// arenaMark is an allocation position to release back to.
type arenaMark struct {
	next  int
	free  []types.Value
	taken [7]int // per scratch list, in scratchLists order
}

func (a *queryArena) mark() arenaMark {
	m := arenaMark{next: a.next, free: a.free}
	for i, l := range a.scratchLists() {
		m.taken[i] = l.taken()
	}
	return m
}

// release frees everything allocated since m for reuse.
func (a *queryArena) release(m arenaMark) {
	if onArenaRelease != nil {
		regions := append([][]types.Value{m.free}, a.chunks[m.next:a.next]...)
		last := &regions[len(regions)-1]
		*last = (*last)[:len(*last)-len(a.free)] // a.free is its unallocated tail
		for _, r := range regions {
			onArenaRelease(r)
		}
	}
	a.next, a.free = m.next, m.free
	for i, l := range a.scratchLists() {
		l.release(m.taken[i])
	}
}

// recycle empties the arena, drops the chunks past arenaKeep and the
// scratch arrays past scratchKeep, and returns it to the pool.
func (a *queryArena) recycle() {
	if len(a.chunks) > arenaKeep {
		clear(a.chunks[arenaKeep:])
		a.chunks = a.chunks[:arenaKeep]
	}
	a.next, a.free = 0, nil
	budget := scratchKeep
	for _, l := range a.scratchLists() {
		budget = l.trim(budget)
	}
	arenaPool.Put(a)
}

// scratchList is what mark, release and recycle need of a scratch[T].
type scratchList interface {
	taken() int
	release(mark int)
	trim(budget int) int
}

// scratch is one element type's free lists: unused arrays by
// power-of-two capacity, and a log of the arrays handed out since the
// arena was last empty, so that release returns the ones handed out after
// a mark. An array is handed out with length 0 and is not cleared:
// callers write an element before they read it.
type scratch[T any] struct {
	free [48][][]T // free[k] holds arrays of capacity 1<<k
	out  [][]T
}

// minScratch is the smallest capacity a scratch array is handed out with.
const minScratch = 8

func (s *scratch[T]) taken() int { return len(s.out) }

// get returns an empty array with room for n elements.
func (s *scratch[T]) get(n int) []T {
	k := bits.Len(uint(max(n, minScratch) - 1))
	var x []T
	if f := s.free[k]; len(f) > 0 {
		x, s.free[k] = f[len(f)-1], f[:len(f)-1]
	} else {
		x = make([]T, 1<<k)
	}
	s.out = append(s.out, x)
	return x[:0]
}

// grow returns x with room for n more elements: x itself while its
// capacity lasts, else a recycled array of at least twice the capacity
// holding x's elements. Doubling keeps the copying at one pass over the
// final size; the outgrown array stays out until the next release.
func (s *scratch[T]) grow(x []T, n int) []T {
	if len(x)+n <= cap(x) {
		return x
	}
	y := s.get(max(2*cap(x), len(x)+n))[:len(x)]
	copy(y, x)
	return y
}

// release puts every array handed out since mark back on its free list.
func (s *scratch[T]) release(mark int) { s.putBack(mark, onArenaRelease) }

// putBack returns the arrays handed out since mark to the free lists,
// cleared first when they hold pointers, so that a free array never pins
// the chunks and rows a query referenced; hook, when non-nil, sees each one
// after that.
func (s *scratch[T]) putBack(mark int, hook func(any)) {
	zero := s.holdsPointers()
	for _, x := range s.out[mark:] {
		if zero {
			clear(x)
		}
		if hook != nil {
			hook(x)
		}
		k := bits.Len(uint(cap(x) - 1))
		s.free[k] = append(s.free[k], x)
	}
	clear(s.out[mark:])
	s.out = s.out[:mark]
}

// trim puts back every array, keeps them smallest capacity first while
// they fit in budget, drops the rest, and returns the budget left.
func (s *scratch[T]) trim(budget int) int {
	s.putBack(0, nil)
	size := int(reflect.TypeFor[T]().Size())
	for k, f := range s.free {
		for i, x := range f {
			b := cap(x) * size
			if b > budget {
				clear(f[i:])
				s.free[k] = f[:i]
				break
			}
			budget -= b
		}
	}
	return budget
}

// holdsPointers reports whether T's arrays can pin memory: all but the
// integer lists.
func (s *scratch[T]) holdsPointers() bool {
	switch any((*T)(nil)).(type) {
	case *int32, *uint64, *[2]int64:
		return false
	}
	return true
}
