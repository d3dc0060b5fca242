package sketch

// Count-Min geometry. Width 2048 bounds the overestimate at
// e/2048 ≈ 0.13% of the stream length per update; depth 4 drives the
// failure probability of that bound to (1/e)^4 ≈ 1.8%. 4·2048 uint64
// counters are 64 KiB per column — bounded regardless of scale factor.
const (
	CountMinDepth = 4
	CountMinWidth = 2048
)

// CountMin is a Count-Min frequency sketch. Estimates never
// underestimate the true count of a key (every update increments all of
// a key's counters), which is the invariant MCV frequency estimation
// relies on: a value reported heavy truly occurred at least
// (estimate - εN) times.
type CountMin struct {
	rows [CountMinDepth][CountMinWidth]uint64
	n    uint64 // total updates (stream length)
}

// NewCountMin returns an empty Count-Min sketch.
func NewCountMin() *CountMin { return &CountMin{} }

// positions derives the per-row counter indexes from one 64-bit hash via
// the Kirsch-Mitzenmacher construction g_i(x) = h1 + i·h2. h2 is forced
// odd so the row index sequences never degenerate.
func cmPositions(h uint64) [CountMinDepth]uint32 {
	h1 := h
	h2 := mix64(h^hashSeed) | 1
	var pos [CountMinDepth]uint32
	for i := 0; i < CountMinDepth; i++ {
		pos[i] = uint32((h1 + uint64(i)*h2) & (CountMinWidth - 1))
	}
	return pos
}

// AddHash observes the key that hashes to h (Hash64) count times and
// returns its updated estimate.
func (c *CountMin) AddHash(h uint64, count uint64) uint64 {
	pos := cmPositions(h)
	c.n += count
	min := ^uint64(0)
	for i := 0; i < CountMinDepth; i++ {
		c.rows[i][pos[i]] += count
		if v := c.rows[i][pos[i]]; v < min {
			min = v
		}
	}
	return min
}
