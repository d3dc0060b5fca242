package types

import "math"

// Hash-key semantics, shared by every equality structure in the engine
// (hash join, hashed and sorted GROUP BY, DISTINCT, index lookups):
//
//   - integer kinds (int, date, bool) compare by their integer payload;
//   - floats compare numerically — -0 equals +0 and all NaNs are one key;
//   - an integer kind equals a float iff the float is exactly that integer;
//   - strings compare bytewise and equal nothing but strings;
//   - NULL equals only NULL. That is GROUP BY's "one NULL group"; joins and
//     index lookups, where NULL matches nothing, reject NULL keys before
//     they reach a table.
//
// KeyEqual(a, b) implies HashKey(h, a) == HashKey(h, b).

// KeyInt returns v's integer payload when v is integer-valued: an integer
// kind, or a float holding an exact int64. Such values are the keys of the
// hash tables' integer fast path.
func (v Value) KeyInt() (int64, bool) {
	switch v.Kind {
	case KindInt, KindDate, KindBool:
		return v.I(), true
	case KindFloat:
		// Both bounds are exact in float64; NaN fails the comparison.
		if f := v.F(); f >= -1<<63 && f < 1<<63 {
			//qpplint:ignore floateq exactness is the point: the float must be this very integer
			if i := int64(f); float64(i) == f {
				return i, true
			}
		}
	}
	return 0, false
}

// KeyEqual reports whether a and b are the same hash key.
func KeyEqual(a, b Value) bool {
	switch a.Kind {
	case KindString:
		return b.Kind == KindString && a.S() == b.S()
	case KindNull:
		return b.Kind == KindNull
	}
	ai, aInt := a.KeyInt()
	bi, bInt := b.KeyInt()
	if aInt || bInt {
		return aInt && bInt && ai == bi
	}
	// a is a float that is no integer; so must b be.
	af, bf := a.F(), b.F()
	//qpplint:ignore floateq key equality is exact; NaNs are folded into one key
	return b.Kind == KindFloat && (af == bf || af != af && bf != bf)
}

// Hash words that keep NULL, NaN and strings apart from small integers.
const (
	hashNull   = 0x9ae16a3b2f90404f
	hashNaN    = 0xb492b66fbe98f273
	hashString = 0xc3a5c85c97cb3127
)

// hashWord folds one 64-bit word into the running hash h. The multiply
// diffuses upward only, so the high half is folded back down: tables mask
// the low bits, and TPC-H keys are sparse in theirs.
func hashWord(h, w uint64) uint64 {
	h = (h ^ w) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// HashInt folds an integer-valued key (see KeyInt) into the running hash h.
func HashInt(h uint64, i int64) uint64 { return hashWord(h, uint64(i)) }

// HashKey folds v into the running hash h of a key tuple.
func HashKey(h uint64, v Value) uint64 {
	switch v.Kind {
	case KindInt, KindDate, KindBool:
		return hashWord(h, uint64(v.I()))
	case KindString:
		// Eight bytes a step (the compiler fuses the shifts into one load),
		// then the zero-padded tail and the length, which tells "a\x00"
		// from "a".
		s := v.S()
		n := len(s)
		h ^= hashString
		for ; len(s) >= 8; s = s[8:] {
			h = hashWord(h, uint64(s[0])|uint64(s[1])<<8|uint64(s[2])<<16|uint64(s[3])<<24|
				uint64(s[4])<<32|uint64(s[5])<<40|uint64(s[6])<<48|uint64(s[7])<<56)
		}
		var tail uint64
		for i := 0; i < len(s); i++ {
			tail |= uint64(s[i]) << (8 * i)
		}
		return hashWord(hashWord(h, tail), uint64(n))
	case KindFloat:
		if i, ok := v.KeyInt(); ok {
			return hashWord(h, uint64(i))
		}
		f := v.F()
		if f != f {
			return hashWord(h, hashNaN)
		}
		return hashWord(h^hashNaN, math.Float64bits(f))
	default: // KindNull
		return hashWord(h, hashNull)
	}
}
