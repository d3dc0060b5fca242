// Package sketch implements the streaming summaries behind the one-pass
// ANALYZE: HyperLogLog for distinct-value counts, Count-Min for value
// frequencies (with a deterministic top-k candidate heap for MCV lists),
// and a deterministic compacting quantile sketch for equi-depth histogram
// bounds. Everything is stdlib-only and deterministic: hashing is seeded
// by fixed constants and compaction follows a fixed schedule, so the same
// stream always yields the same state. None of the sketches ever reads
// the wall clock or the global rand source; the package sits inside the
// repo's deterministic core (qpplint enforces this).
//
// Error guarantees (checked by property tests in sketch_test.go):
//
//   - HLL: relative NDV error concentrated within 1.04/sqrt(m), m=2^14.
//   - Count-Min: estimates never underestimate; overestimate bounded by
//     e/width * N per row with probability 1-(1/e)^depth.
//   - Quantile: rank error of any reported boundary is at most N/bins
//     for bins <= 100 (the compaction budget is sized so the
//     deterministic worst case stays under 1%).
package sketch

// hashSeed fixes the hash function once and for all: repeated ANALYZE
// runs over the same data are bit-identical.
const hashSeed = 0x9e3779b97f4a7c15

// Hash64 hashes a byte key to 64 bits: FNV-1a followed by a splitmix64
// finalizer for avalanche (FNV alone clusters on short sequential keys,
// which would wreck HLL register dispersion).
func Hash64(key []byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset) ^ hashSeed
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime
	}
	return mix64(h)
}

// mix64 is the splitmix64 finalizer.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
