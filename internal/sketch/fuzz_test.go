package sketch

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// FuzzSketch drives all three sketches from one fuzzed byte stream,
// checking the invariants that must hold on arbitrary input:
//
//   - inserts never panic,
//   - counts are monotone (Count-Min estimates only grow, HLL estimates
//     never shrink, quantile N equals the insert count),
//   - quantile bounds are monotone non-decreasing.
//
// The input is consumed in 9-byte chunks: one skipped byte plus an
// 8-byte operand used as a key and, reinterpreted, as a float for the
// quantile sketch.
func FuzzSketch(f *testing.F) {
	f.Add([]byte("seed"))
	f.Add(bytes.Repeat([]byte{0x51, 1, 2, 3, 4, 5, 6, 7, 8}, 12))
	// Operands that read as NaN: the quantile sketch must skip them.
	f.Add(bytes.Repeat([]byte{0x4e, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f}, 12))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Cap the interpreted program: HLL.Estimate is an O(m) register
		// scan per chunk, and unbounded inputs would make single execs
		// arbitrarily slow without covering anything new.
		if len(data) > 4096 {
			data = data[:4096]
		}

		h, cm, q := NewHLL(), NewCountMin(), NewQuantile()
		tk := NewTopK(8)
		var quantN uint64
		prevHLL := 0.0
		for i := 0; i+9 <= len(data); i += 9 {
			key := data[i+1 : i+9]
			h.AddHash(Hash64(key))
			// HLL estimates are monotone under inserts: registers only grow.
			if est := h.Estimate(); est < prevHLL {
				t.Fatalf("hll estimate shrank: %g -> %g", prevHLL, est)
			} else {
				prevHLL = est
			}
			before := cm.EstimateHash(Hash64(key))
			after := cm.AddHash(Hash64(key), 1)
			if after < before+1 {
				t.Fatalf("countmin estimate not monotone: %d then add -> %d", before, after)
			}
			tk.Offer(key, Hash64(key), after)
			v := math.Float64frombits(binary.LittleEndian.Uint64(key))
			if !math.IsNaN(v) {
				quantN++
			}
			q.Add(v)
		}
		if q.N() != quantN {
			t.Fatalf("quantile N %d, inserted %d", q.N(), quantN)
		}

		// Bounds must be monotone non-decreasing whatever was inserted.
		if bounds := q.Bounds(10); len(bounds) > 0 {
			for i := 1; i < len(bounds); i++ {
				if bounds[i] < bounds[i-1] {
					t.Fatalf("bounds not monotone at %d: %v", i, bounds)
				}
			}
		}
	})
}
