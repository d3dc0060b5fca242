package sketch

import (
	"math/rand"
	"sort"
	"strconv"
	"testing"
)

// mapTopK is the map-keyed candidate heap TopK replaced, kept as the
// differential oracle for the hash-keyed membership table: the same
// min-heap under the same total order, with a map[string]int from key to
// heap index.
type mapTopK struct {
	cap     int
	heap    []tkEntry
	pos     map[string]int
	evicted bool
}

func newMapTopK(k int) *mapTopK { return &mapTopK{cap: k, pos: make(map[string]int, k)} }

func (t *mapTopK) Offer(key []byte, count uint64) {
	if i, ok := t.pos[string(key)]; ok {
		t.heap[i].count = count
		t.siftDown(i)
		return
	}
	if len(t.heap) < t.cap {
		t.heap = append(t.heap, tkEntry{key: string(key), count: count})
		i := len(t.heap) - 1
		t.pos[t.heap[i].key] = i
		t.siftUp(i)
		return
	}
	t.evicted = true
	if t.cap == 0 {
		return
	}
	min := t.heap[0]
	if count < min.count || (count == min.count && !(string(key) < min.key)) {
		return
	}
	delete(t.pos, t.heap[0].key)
	t.heap[0] = tkEntry{key: string(key), count: count}
	t.pos[t.heap[0].key] = 0
	t.siftDown(0)
}

func (t *mapTopK) Top(n int) []Entry {
	out := make([]Entry, 0, len(t.heap))
	for _, e := range t.heap {
		out = append(out, Entry{Key: e.key, Count: e.count})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	if n < len(out) {
		out = out[:n]
	}
	return out
}

func (t *mapTopK) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !tkLess(t.heap[i], t.heap[p]) {
			return
		}
		t.swap(i, p)
		i = p
	}
}

func (t *mapTopK) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(t.heap) && tkLess(t.heap[l], t.heap[small]) {
			small = l
		}
		if r < len(t.heap) && tkLess(t.heap[r], t.heap[small]) {
			small = r
		}
		if small == i {
			return
		}
		t.swap(i, small)
		i = small
	}
}

func (t *mapTopK) swap(i, j int) {
	t.heap[i], t.heap[j] = t.heap[j], t.heap[i]
	t.pos[t.heap[i].key] = i
	t.pos[t.heap[j].key] = j
}

// TestTopKMatchesMapOracle drives TopK and the map-keyed oracle with the
// same streams — duplicate-heavy, eviction-heavy, and streams whose hash
// function folds many distinct keys onto a handful of hashes — and
// requires the same Top entries and counts, Len and Evicted after every
// offer. Counts come from a Count-Min sketch, as in ANALYZE, or are
// arbitrary, so they also shrink and tie.
func TestTopKMatchesMapOracle(t *testing.T) {
	type stream struct {
		name     string
		k        int
		n        int
		distinct int64
		hash     func([]byte) uint64
		cmCounts bool
	}
	full := Hash64
	fold := func(buckets uint64) func([]byte) uint64 {
		return func(b []byte) uint64 { return Hash64(b) % buckets }
	}
	streams := []stream{
		{"duplicate-heavy", 80, 20000, 60, full, true},
		{"eviction-heavy", 80, 20000, 100000, full, true},
		{"eviction-heavy-arbitrary-counts", 16, 20000, 500, full, false},
		{"collisions-4-hashes", 80, 20000, 300, fold(4), true},
		{"collisions-1-hash", 10, 5000, 40, fold(1), false},
		{"collisions-under-capacity", 80, 5000, 50, fold(2), true},
		{"zero-capacity", 0, 500, 20, full, true},
	}
	for _, st := range streams {
		t.Run(st.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(st.name))))
			got, want := NewTopK(st.k), newMapTopK(st.k)
			cm := NewCountMin()
			var buf []byte
			for i := 0; i < st.n; i++ {
				var id int64
				if rng.Intn(3) == 0 {
					id = rng.Int63n(8) // a few heavy keys
				} else {
					id = rng.Int63n(st.distinct)
				}
				buf = strconv.AppendInt(buf[:0], id, 10)
				count := uint64(rng.Intn(50))
				if st.cmCounts {
					count = cm.AddHash(Hash64(buf), 1)
				}
				got.Offer(buf, st.hash(buf), count)
				want.Offer(buf, count)
				if got.Len() != len(want.heap) || got.Evicted() != want.evicted {
					t.Fatalf("offer %d: Len %d Evicted %v, oracle %d %v", i, got.Len(), got.Evicted(), len(want.heap), want.evicted)
				}
				if i%37 == 0 || i == st.n-1 {
					if g, w := got.Top(st.k), want.Top(st.k); !entriesEqual(g, w) {
						t.Fatalf("offer %d: Top %v, oracle %v", i, g, w)
					}
				}
			}
		})
	}
}
