package exec

import "qpp/internal/types"

// hashTable maps key tuples of types.Value to dense entry ids: the first
// distinct key inserted gets id 0, the next id 1, and so on. It is the one
// equality structure of the executor — hash join (ids index the per-key row
// chains), hashed aggregation (ids index the groups, so emission order is
// first-appearance order for free) and DISTINCT (a bare set).
//
// Keys compare under the hash-key semantics of package types (KeyEqual):
// integer kinds by payload, floats numerically, an int equals a float iff
// numerically equal, NULL equals only NULL. Callers that must not match
// NULL (joins) keep NULL keys out of the table.
//
// Slots are open-addressed with linear probing at load ≤ ½ and hold id+1.
// Entries live in flat slices in insertion order, so a lookup or a hit
// touches no allocator and an insert only when a slice doubles; every
// slice comes from the query's arena.
//
// Two key representations share the slots:
//
//   - the integer fast path, for tuples of at most two integer-valued
//     columns (every TPC-H join key): the key is one [2]int64, hashed and
//     compared as two words;
//   - the general path: a stored hash per entry plus the key Values,
//     verified with types.KeyEqual.
//
// A table of at most two columns starts on the fast path and demotes itself
// — once, rebuilding the general representation from the integer keys — the
// first time a key arrives that is not integer-valued (a string, NULL, NaN
// or fractional float). The choice therefore never depends on the planner's
// static kinds being right.
type hashTable struct {
	mem   *queryArena
	ncols int
	ints  bool
	slots []int32
	n     int32

	ikeys  [][2]int64    // fast path: one per entry
	hashes []uint64      // general path: one per entry
	vkeys  []types.Value // general path: ncols per entry
}

// startCap turns the optimizer's row estimate into the capacity a table,
// its caller's side arrays and a sort or materialize buffer start with.
// The estimate can be off by orders of magnitude, so it is trusted up to
// 64 entries only; beyond that everything grows by doubling on the rows
// that actually arrive, on arrays recycled from earlier queries.
func startCap(estRows float64) int {
	return max(4, min(int(estRows), 64))
}

// init readies t for key tuples of ncols columns with room for capacity
// entries before the first growth, its arrays taken from mem.
func (t *hashTable) init(mem *queryArena, ncols, capacity int) {
	slots := 8
	for slots < 2*capacity {
		slots *= 2
	}
	*t = hashTable{mem: mem, ncols: ncols, ints: ncols <= 2}
	t.slots = t.emptySlots(slots)
	if t.ints {
		t.ikeys = mem.ikeys.get(capacity)
	} else {
		t.hashes = mem.hashes.get(capacity)
		t.vkeys = mem.vals.get(capacity * ncols)
	}
}

// reset empties t for a new round of inserts, keeping its arrays (and
// its key representation).
func (t *hashTable) reset() {
	clear(t.slots)
	t.n = 0
	t.ikeys, t.hashes, t.vkeys = t.ikeys[:0], t.hashes[:0], t.vkeys[:0]
}

// emptySlots returns n zeroed slots.
func (t *hashTable) emptySlots(n int) []int32 {
	slots := t.mem.ids.get(n)[:n]
	clear(slots)
	return slots
}

// intKey packs an all-integer-valued tuple of at most two columns.
func intKey(key []types.Value) (k [2]int64, ok bool) {
	for c := range key {
		if k[c], ok = key[c].KeyInt(); !ok {
			return k, false
		}
	}
	return k, true
}

func hashInts(k [2]int64) uint64 {
	return types.HashInt(types.HashInt(0, k[0]), k[1])
}

func hashValues(key []types.Value) uint64 {
	var h uint64
	for _, v := range key {
		h = types.HashKey(h, v)
	}
	return h
}

// find returns the id of key, or -1 when it was never inserted.
func (t *hashTable) find(key []types.Value) int32 {
	mask := uint32(len(t.slots) - 1)
	if t.ints {
		k, ok := intKey(key)
		if !ok {
			return -1 // every stored key is integer-valued; this one is not
		}
		for s := uint32(hashInts(k)) & mask; ; s = (s + 1) & mask {
			id := t.slots[s] - 1
			if id < 0 || t.ikeys[id] == k {
				return id
			}
		}
	}
	h := hashValues(key)
	for s := uint32(h) & mask; ; s = (s + 1) & mask {
		id := t.slots[s] - 1
		if id < 0 || t.hashes[id] == h && t.equalAt(id, key) {
			return id
		}
	}
}

// insert returns the id of key, adding it as the next entry when absent.
func (t *hashTable) insert(key []types.Value) (id int32, added bool) {
	if t.ints {
		if k, ok := intKey(key); ok {
			mask := uint32(len(t.slots) - 1)
			s := uint32(hashInts(k)) & mask
			for ; t.slots[s] != 0; s = (s + 1) & mask {
				if id := t.slots[s] - 1; t.ikeys[id] == k {
					return id, false
				}
			}
			t.ikeys = append(t.mem.ikeys.grow(t.ikeys, 1), k)
			return t.add(s), true
		}
		t.demote()
	}
	h := hashValues(key)
	mask := uint32(len(t.slots) - 1)
	s := uint32(h) & mask
	for ; t.slots[s] != 0; s = (s + 1) & mask {
		if id := t.slots[s] - 1; t.hashes[id] == h && t.equalAt(id, key) {
			return id, false
		}
	}
	t.hashes = append(t.mem.hashes.grow(t.hashes, 1), h)
	t.vkeys = append(t.mem.vals.grow(t.vkeys, len(key)), key...)
	return t.add(s), true
}

func (t *hashTable) equalAt(id int32, key []types.Value) bool {
	return sameKey(key, t.vkeys[int(id)*t.ncols:])
}

// sameKey reports whether key and the leading len(key) values of other are
// one key tuple.
func sameKey(key, other []types.Value) bool {
	for c, v := range key {
		if !types.KeyEqual(v, other[c]) {
			return false
		}
	}
	return true
}

// add claims slot s for the entry whose key was just appended, and doubles
// the slot array once the load passes ½.
func (t *hashTable) add(s uint32) int32 {
	id := t.n
	t.n++
	t.slots[s] = t.n
	if 2*int(t.n) > len(t.slots) {
		t.rehash(2 * len(t.slots))
	}
	return id
}

// rehash rebuilds the slot array at the given power-of-two size from the
// entries, in id order.
func (t *hashTable) rehash(size int) {
	t.slots = t.emptySlots(size)
	mask := uint32(size - 1)
	for id := int32(0); id < t.n; id++ {
		var h uint64
		if t.ints {
			h = hashInts(t.ikeys[id])
		} else {
			h = t.hashes[id]
		}
		s := uint32(h) & mask
		for t.slots[s] != 0 {
			s = (s + 1) & mask
		}
		t.slots[s] = id + 1
	}
}

// demote leaves the integer fast path: every stored key is re-expressed as
// integer Values (equal, as keys, to whatever was inserted) and rehashed.
func (t *hashTable) demote() {
	t.ints = false
	capacity := cap(t.ikeys)
	t.hashes = t.mem.hashes.get(capacity)
	t.vkeys = t.mem.vals.get(capacity * t.ncols)
	for _, k := range t.ikeys {
		for c := 0; c < t.ncols; c++ {
			t.vkeys = append(t.vkeys, types.Int(k[c]))
		}
		t.hashes = append(t.hashes, hashValues(t.vkeys[len(t.vkeys)-t.ncols:]))
	}
	t.ikeys = nil
	t.rehash(len(t.slots))
}
