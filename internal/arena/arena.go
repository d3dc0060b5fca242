// Package arena is request-scoped memory. An Arena owns one chunk list
// per element type, a Slab[T] carves *T and []T from it, and everything
// carved is released at once when the arena goes back to its Pool: the
// parser, the planner and the predict-side scratch of one served request
// allocate from it instead of the heap, so a request leaves no garbage
// behind. A nil *Arena means the heap: every Slab method then allocates
// exactly as new, make and append do, which is how batch callers, whose
// plans outlive the call, use the same parser and planner.
//
// Memory is typed: a chunk of T is an ordinary []T, so the collector
// sees every pointer stored in it and nothing needs package unsafe.
// Release clears what was handed out, so a pooled arena pins nothing.
package arena

import (
	"reflect"
	"sync"
)

// Chunk sizes: a type's first chunk holds minChunkBytes, each next one
// twice the previous, up to maxChunkBytes (or one request's worth when
// that is larger).
const (
	minChunkBytes = 256
	maxChunkBytes = 8 << 10
)

// keepBytes is the most chunk memory an arena may hold and still go back
// to its pool. An arena that has served a cold /predict of every TPC-H
// template holds about 54 KB (a single request's arena 15–45 KB); one a
// pathological query grew past keepBytes is dropped, so an idle pooled
// arena never pins more.
const keepBytes = 128 << 10

// Arena owns the memory of one request. It is used by one goroutine at a
// time.
type Arena struct {
	stores []releaser // by slab id; nil until the slab's first use here
	bytes  int        // chunk memory held, over every store
}

// releaser is what Pool.Put needs of a store[T].
type releaser interface {
	release(poison func(any))
}

// Slab is one element type's handle into every Arena. Declare one per
// type, as a package-level variable: NewSlab numbers them as packages
// initialise.
type Slab[T any] struct {
	id   int
	size int // bytes per element, at least 1
}

// slabs is the number of slabs declared so far.
var slabs int

// NewSlab declares the slab of element type T. Call it only from a
// package-level variable's initialiser.
func NewSlab[T any]() Slab[T] {
	s := Slab[T]{id: slabs, size: max(1, int(reflect.TypeFor[T]().Size()))}
	slabs++
	return s
}

// store is one arena's chunks of T: chunks[:used] have handed memory out,
// free is the unused tail of chunks[used-1].
type store[T any] struct {
	chunks [][]T
	used   int
	free   []T
}

// storeOf returns a's store of s's type, creating it on first use.
func (s Slab[T]) storeOf(a *Arena) *store[T] {
	if s.id >= len(a.stores) {
		a.stores = append(a.stores, make([]releaser, s.id+1-len(a.stores))...)
	}
	st, _ := a.stores[s.id].(*store[T])
	if st == nil {
		st = new(store[T])
		a.stores[s.id] = st
	}
	return st
}

// take hands out n elements of a's memory, capped at n. They are zero
// unless a test's poison hook wrote them since the last release.
func (s Slab[T]) take(a *Arena, n int) []T {
	st := s.storeOf(a)
	if n > len(st.free) {
		st.next(a, s.size, n)
	}
	out := st.free[:n:n]
	st.free = st.free[n:]
	return out
}

// next makes the store's next chunk, one of at least n elements, current:
// the one after the current chunk when it is large enough, else a new one
// in its place.
func (st *store[T]) next(a *Arena, size, n int) {
	if st.used < len(st.chunks) && len(st.chunks[st.used]) >= n {
		st.free = st.chunks[st.used]
		st.used++
		return
	}
	c := max(1, minChunkBytes/size)
	if st.used > 0 {
		c = min(2*len(st.chunks[st.used-1]), max(1, maxChunkBytes/size))
	}
	chunk := make([]T, max(c, n))
	a.bytes += len(chunk) * size
	if st.used < len(st.chunks) {
		a.bytes -= len(st.chunks[st.used]) * size
		st.chunks[st.used] = chunk
	} else {
		st.chunks = append(st.chunks, chunk)
	}
	st.free = chunk
	st.used++
}

// release clears everything the store handed out, shows each cleared
// stretch to poison when it is set, and makes the chunks free again.
func (st *store[T]) release(poison func(any)) {
	for i, c := range st.chunks[:st.used] {
		if i == st.used-1 {
			c = c[:len(c)-len(st.free)]
		}
		clear(c)
		if poison != nil {
			poison(c)
		}
	}
	st.used, st.free = 0, nil
}

// New returns a pointer to a T holding v: a's memory, or the heap when a
// is nil.
func (s Slab[T]) New(a *Arena, v T) *T {
	if a == nil {
		p := new(T)
		*p = v
		return p
	}
	p := &s.take(a, 1)[0]
	*p = v
	return p
}

// Make returns n zero Ts, like make([]T, n).
func (s Slab[T]) Make(a *Arena, n int) []T {
	if a == nil {
		return make([]T, n)
	}
	out := s.take(a, n)
	clear(out)
	return out
}

// Append appends v to x like the builtin append; when x has no room, the
// grown array is a's memory.
func (s Slab[T]) Append(a *Arena, x []T, v ...T) []T {
	if a == nil || len(x)+len(v) <= cap(x) {
		return append(x, v...)
	}
	out := s.take(a, max(2*cap(x), len(x)+len(v), 4))
	clear(out)
	copy(out, x)
	copy(out[len(x):], v)
	return out[:len(x)+len(v)]
}

// Clone returns a copy of x in a's memory, nil for an empty x.
func (s Slab[T]) Clone(a *Arena, x []T) []T {
	if len(x) == 0 {
		return nil
	}
	var out []T
	if a == nil {
		out = make([]T, len(x))
	} else {
		out = s.take(a, len(x))
	}
	copy(out, x)
	return out
}

// Pool recycles arenas. The zero Pool is ready to use; a nil *Pool hands
// out nil arenas, the heap. A sync.Pool underneath, so the collector
// empties it: an idle process pins no arena.
type Pool struct {
	pool sync.Pool
	// Poison, when non-nil, is handed every stretch of memory Put
	// releases, after it is cleared, as the []T it was carved from. Tests
	// overwrite it there, to prove that nothing reads an arena's memory
	// after its release.
	Poison func(any)
}

// Get returns an empty arena (nil from a nil pool).
func (p *Pool) Get() *Arena {
	if p == nil {
		return nil
	}
	if a, ok := p.pool.Get().(*Arena); ok {
		return a
	}
	return new(Arena)
}

// Put releases everything a handed out and returns a to the pool, or
// drops it when it holds more than keepBytes. Nothing carved from a may
// be used afterwards. A nil arena, which a nil pool hands out, is a
// no-op.
func (p *Pool) Put(a *Arena) {
	if a == nil {
		return
	}
	for _, st := range a.stores {
		if st != nil {
			st.release(p.Poison)
		}
	}
	if a.bytes <= keepBytes {
		p.pool.Put(a)
	}
}
