package sketch

import "sort"

// TopK tracks the heavy-hitter candidates of a stream: the k keys with
// the largest Count-Min estimates seen so far. It is the MCV-list side
// of the Count-Min sketch — CM alone can estimate any key's frequency
// but cannot enumerate the heavy ones, so ANALYZE offers every observed
// key here and keeps the survivors.
//
// The structure is a min-heap of (count, key), totally ordered by
// (count, then key bytes descending) so eviction is deterministic: ties
// never depend on hash or probe order. A key whose estimate exceeds the
// current minimum evicts it; keys already tracked only ever grow. Memory
// is O(k) strings.
//
// Membership is an open-addressing table keyed by the 64-bit hash the
// caller already computed for Count-Min: a probe compares hashes and, on
// a match, key bytes, so two distinct keys that share a hash stay two
// candidates. The hash must be a function of the key bytes.
type TopK struct {
	cap     int
	heap    []tkEntry
	slots   []int32 // linear probing by hash; heap index + 1, 0 = empty
	evicted bool
}

type tkEntry struct {
	key   string
	hash  uint64
	count uint64
	slot  int32 // this entry's position in slots
}

// NewTopK returns a tracker keeping at most k candidates.
func NewTopK(k int) *TopK {
	n := 8
	for n < 2*k {
		n *= 2
	}
	return &TopK{cap: k, heap: make([]tkEntry, 0, k), slots: make([]int32, n)}
}

// Offer reports an observation of key, whose hash is h, with its current
// count estimate. The key bytes are only copied when the key actually
// enters the candidate set, so the common case (already tracked, or too
// small) allocates nothing.
func (t *TopK) Offer(key []byte, h uint64, count uint64) {
	mask := uint64(len(t.slots) - 1)
	s := h & mask
	for ; t.slots[s] != 0; s = (s + 1) & mask {
		i := int(t.slots[s] - 1)
		if e := &t.heap[i]; e.hash == h && e.key == string(key) {
			e.count = count
			t.siftDown(i)
			return
		}
	}
	// s is the empty slot ending key's probe run.
	if len(t.heap) < t.cap {
		t.heap = append(t.heap, tkEntry{key: string(key), hash: h, count: count, slot: int32(s)})
		i := len(t.heap) - 1
		t.slots[s] = int32(i) + 1
		t.siftUp(i)
		return
	}
	// The heap is full and this key is not in it: whether it displaces
	// the minimum or is turned away, a distinct key now falls outside
	// the candidate set, so completeness is lost either way.
	t.evicted = true
	if t.cap == 0 {
		return
	}
	// Replace the minimum only when the newcomer is strictly greater
	// under the total order (count, then key bytes descending).
	min := &t.heap[0]
	if count < min.count || (count == min.count && !(string(key) < min.key)) {
		return
	}
	t.unslot(min.slot)
	// Removing the minimum may have shifted an entry into key's run, so
	// look for the run's end again.
	s = h & mask
	for t.slots[s] != 0 {
		s = (s + 1) & mask
	}
	t.heap[0] = tkEntry{key: string(key), hash: h, count: count, slot: int32(s)}
	t.slots[s] = 1
	t.siftDown(0)
}

// unslot empties slot s and shifts later entries of its probe run back
// (backward-shift deletion), so every entry stays reachable from its home
// slot without tombstones.
func (t *TopK) unslot(s int32) {
	mask := int32(len(t.slots) - 1)
	hole := s
	t.slots[hole] = 0
	for j := (hole + 1) & mask; t.slots[j] != 0; j = (j + 1) & mask {
		e := &t.heap[t.slots[j]-1]
		home := int32(e.hash & uint64(mask))
		// The entry at j may move to the hole only if its home slot does
		// not lie cyclically in (hole, j].
		if (j-home)&mask < (j-hole)&mask {
			continue
		}
		t.slots[hole] = t.slots[j]
		e.slot = hole
		t.slots[j] = 0
		hole = j
	}
}

// Evicted reports whether any distinct key ever fell outside the
// candidate set — displaced from the full heap or turned away at it.
// When false, the candidate set is exactly the set of distinct keys
// observed — the low-cardinality case where ANALYZE can report exact
// NDV and a complete MCV list.
func (t *TopK) Evicted() bool { return t.evicted }

// Len returns the current candidate count.
func (t *TopK) Len() int { return len(t.heap) }

// Entry is one surviving candidate.
type Entry struct {
	Key   string
	Count uint64
}

// Top returns up to n candidates ordered by count descending, key
// ascending — the deterministic MCV order.
func (t *TopK) Top(n int) []Entry {
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

// tkLess is the heap's total order: smallest count first, ties broken by
// key bytes descending (so on a tie the lexicographically larger key
// sits nearer the root and is evicted first — any fixed choice works,
// it just must be total).
func tkLess(a, b tkEntry) bool {
	if a.count != b.count {
		return a.count < b.count
	}
	return a.key > b.key
}

func (t *TopK) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !tkLess(t.heap[i], t.heap[p]) {
			return
		}
		t.swap(i, p)
		i = p
	}
}

func (t *TopK) siftDown(i int) {
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

func (t *TopK) swap(i, j int) {
	t.heap[i], t.heap[j] = t.heap[j], t.heap[i]
	t.slots[t.heap[i].slot] = int32(i) + 1
	t.slots[t.heap[j].slot] = int32(j) + 1
}
