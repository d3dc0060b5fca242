package sketch

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"
	"testing/quick"
)

// --- HyperLogLog -----------------------------------------------------

// TestHLLWithinTheoreticalBound: the NDV estimate stays within 3 standard
// errors (3·1.04/sqrt(m)) of the truth across six orders of magnitude,
// for sequential and seeded-random key streams. Deterministic: fixed
// keys, fixed hash seed.
func TestHLLWithinTheoreticalBound(t *testing.T) {
	bound := 3 * NewHLL().RelativeErrorBound()
	for _, n := range []int{10, 100, 1000, 10000, 100000, 1000000} {
		for _, mode := range []string{"seq", "rand"} {
			h := NewHLL()
			rng := rand.New(rand.NewSource(int64(n)))
			var buf []byte
			for i := 0; i < n; i++ {
				buf = buf[:0]
				switch mode {
				case "seq":
					buf = strconv.AppendInt(buf, int64(i), 10)
				default:
					buf = strconv.AppendInt(buf, rng.Int63(), 10)
				}
				h.AddHash(Hash64(buf))
			}
			est := h.Estimate()
			rel := math.Abs(est-float64(n)) / float64(n)
			// Random keys can repeat; the distinct count is <= n, so only
			// enforce the bound against the exact distinct count.
			if mode == "rand" {
				continue // covered by the quick property below with exact truth
			}
			if rel > bound {
				t.Errorf("n=%d mode=%s: estimate %.1f, relative error %.4f > bound %.4f",
					n, mode, est, rel, bound)
			}
		}
	}
}

// TestHLLRandomKeysProperty holds the estimate to what a correct
// sketch guarantees over random key sets of known size: a relative error
// of standard deviation σ = RelativeErrorBound() = 1.04/sqrt(m) (less at
// small cardinalities). Draws are deterministic: quick.Check's seeds come
// from a fixed source, plus seed 5858762603988963437, whose draw from a
// former generator (n < 50 100, random decimal keys) erred by 3.05σ and
// failed a per-draw 3σ bound, which a correct sketch misses on 0.27 % of
// draws.
//
//   - The RMS relative error over all draws stays within 1.25σ. For 101
//     normal draws at σ this fails with probability ≈ 3e-4 (a χ² tail);
//     a sketch with half the registers runs at ≈ 1.4σ.
//   - Each draw stays within 5σ, which a correct sketch misses with
//     probability < 1e-6 a draw.
func TestHLLRandomKeysProperty(t *testing.T) {
	sigma := NewHLL().RelativeErrorBound()
	var sumSq float64
	draws := 0
	f := func(seed int64) bool {
		rel := hllRandomKeysError(seed)
		sumSq += rel * rel
		draws++
		return math.Abs(rel) <= 5*sigma
	}
	if !f(5858762603988963437) {
		t.Error("seed 5858762603988963437: relative error beyond 5 sigma")
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
	if rms := math.Sqrt(sumSq / float64(draws)); rms > 1.25*sigma {
		t.Errorf("RMS relative error %.5f over %d draws > 1.25 sigma = %.5f", rms, draws, 1.25*sigma)
	}
}

// hllRandomKeysError adds n distinct random keys (n from 100 to 400 099,
// drawn from seed) to a sketch, each seventh key twice, and returns the
// estimate's relative error. The keys base + i·step with an odd step are
// distinct by construction, so n is the exact distinct count.
func hllRandomKeysError(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	n := 100 + rng.Intn(400000)
	base, step := rng.Uint64(), rng.Uint64()|1
	h := NewHLL()
	var buf [8]byte
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(buf[:], base+uint64(i)*step)
		h.AddHash(Hash64(buf[:]))
		// Duplicates must not move the estimate.
		if i%7 == 0 {
			h.AddHash(Hash64(buf[:]))
		}
	}
	return (h.Estimate() - float64(n)) / float64(n)
}

// --- Count-Min -------------------------------------------------------

// TestCountMinNeverUnderestimates: the defining guarantee, checked
// against exact counts over adversarially skewed streams.
func TestCountMinNeverUnderestimates(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cm := NewCountMin()
		exact := map[string]uint64{}
		n := 500 + rng.Intn(20000)
		var buf []byte
		for i := 0; i < n; i++ {
			// Zipf-ish skew: small ids dominate.
			id := int64(float64(rng.Intn(1000)) * rng.Float64() * rng.Float64())
			buf = strconv.AppendInt(buf[:0], id, 10)
			cm.AddHash(Hash64(buf), 1)
			exact[string(buf)]++
		}
		keys := make([]string, 0, len(exact))
		for k := range exact {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if cm.EstimateHash(Hash64([]byte(k))) < exact[k] {
				return false
			}
		}
		return cm.N() == uint64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestCountMinOverestimateBound: estimates exceed truth by at most
// 2·(e/width)·N across all keys in expectation-dominated streams; the
// fixed seeds make this a regression pin rather than a probabilistic
// assertion.
func TestCountMinOverestimateBound(t *testing.T) {
	cm := NewCountMin()
	exact := map[string]uint64{}
	rng := rand.New(rand.NewSource(7))
	const n = 100000
	var buf []byte
	for i := 0; i < n; i++ {
		buf = strconv.AppendInt(buf[:0], rng.Int63n(5000), 10)
		cm.AddHash(Hash64(buf), 1)
		exact[string(buf)]++
	}
	eps := math.E / float64(CountMinWidth)
	slack := 2 * eps * float64(n)
	keys := make([]string, 0, len(exact))
	for k := range exact {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		est := cm.EstimateHash(Hash64([]byte(k)))
		if float64(est-exact[k]) > slack {
			t.Fatalf("key %s: estimate %d exceeds exact %d by more than %f", k, est, exact[k], slack)
		}
	}
}

// --- TopK ------------------------------------------------------------

// TestTopKFindsHeavyHitters: keys holding >= 2% of a skewed stream are
// always retained when driven by Count-Min estimates.
func TestTopKFindsHeavyHitters(t *testing.T) {
	cm := NewCountMin()
	tk := NewTopK(80)
	exact := map[string]uint64{}
	rng := rand.New(rand.NewSource(11))
	const n = 50000
	var buf []byte
	for i := 0; i < n; i++ {
		var id int64
		if rng.Intn(100) < 40 {
			id = int64(rng.Intn(10)) // 10 heavy keys share ~40%
		} else {
			id = 10 + rng.Int63n(100000)
		}
		buf = strconv.AppendInt(buf[:0], id, 10)
		est := cm.AddHash(Hash64(buf), 1)
		tk.Offer(buf, Hash64(buf), est)
		exact[string(buf)]++
	}
	top := tk.Top(20)
	have := map[string]bool{}
	for _, e := range top {
		have[e.Key] = true
	}
	keys := make([]string, 0, len(exact))
	for k := range exact {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if float64(exact[k]) >= 0.02*n && !have[k] {
			t.Fatalf("heavy key %s (count %d) missing from top-20 %v", k, exact[k], top)
		}
	}
}

// TestTopKExactWhenNoEviction: below capacity the candidate set is the
// exact distinct set, in deterministic order.
func TestTopKExactWhenNoEviction(t *testing.T) {
	tk := NewTopK(10)
	for i := 0; i < 8; i++ {
		key := []byte{byte('a' + i)}
		tk.Offer(key, Hash64(key), uint64(i+1))
	}
	if tk.Evicted() {
		t.Fatal("no eviction should have happened")
	}
	if tk.Len() != 8 {
		t.Fatalf("len %d", tk.Len())
	}
	top := tk.Top(3)
	want := []Entry{{"h", 8}, {"g", 7}, {"f", 6}}
	for i, e := range top {
		if e != want[i] {
			t.Fatalf("top[%d] = %+v, want %+v", i, e, want[i])
		}
	}
}

// TestTopKDeterministicTies: equal counts order and evict by key bytes,
// never by map iteration order.
func TestTopKDeterministicTies(t *testing.T) {
	run := func() []Entry {
		tk := NewTopK(3)
		for _, k := range []string{"d", "b", "c", "a", "e"} {
			tk.Offer([]byte(k), Hash64([]byte(k)), 5)
		}
		return tk.Top(3)
	}
	first := run()
	for i := 0; i < 50; i++ {
		if got := run(); !entriesEqual(got, first) {
			t.Fatalf("run %d produced %v, first run %v", i, got, first)
		}
	}
	// Ties evict the lexicographically largest candidate, so the three
	// smallest keys survive.
	want := []Entry{{"a", 5}, {"b", 5}, {"c", 5}}
	if !entriesEqual(first, want) {
		t.Fatalf("tie survivors %v, want %v", first, want)
	}
}

// TestTopKRejectionBreaksCompleteness: a distinct key turned away at a
// full heap (not only one displacing an entry) must clear the
// exact-candidate-set claim. Regression: 100 equal-count keys arriving
// in ascending key order never displace anything, yet only 80 are
// tracked.
func TestTopKRejectionBreaksCompleteness(t *testing.T) {
	tk := NewTopK(80)
	var buf []byte
	for i := 0; i < 100; i++ {
		buf = strconv.AppendInt(buf[:0], 1000+int64(i), 10)
		tk.Offer(buf, Hash64(buf), 1)
	}
	if !tk.Evicted() {
		t.Fatal("100 distinct keys through a size-80 tracker must report eviction")
	}
	if tk.Len() != 80 {
		t.Fatalf("len %d", tk.Len())
	}
}

func entriesEqual(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// --- Quantile --------------------------------------------------------

// quantileDistributions are the streams the rank-error property runs
// over: uniform, normal, heavily duplicated, pre-sorted ascending and
// descending, and constant.
func quantileDistributions(n int, seed int64) map[string][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := map[string][]float64{}
	u := make([]float64, n)
	for i := range u {
		u[i] = rng.Float64() * 1e6
	}
	out["uniform"] = u
	g := make([]float64, n)
	for i := range g {
		g[i] = rng.NormFloat64() * 100
	}
	out["normal"] = g
	d := make([]float64, n)
	for i := range d {
		d[i] = float64(rng.Intn(50))
	}
	out["duplicated"] = d
	asc := make([]float64, n)
	for i := range asc {
		asc[i] = float64(i)
	}
	out["ascending"] = asc
	desc := make([]float64, n)
	for i := range desc {
		desc[i] = float64(n - i)
	}
	out["descending"] = desc
	c := make([]float64, n)
	for i := range c {
		c[i] = 42
	}
	out["constant"] = c
	return out
}

// trueRank counts values <= x in the reference slice (sorted).
func trueRank(sorted []float64, x float64) int {
	return sort.SearchFloat64s(sorted, math.Nextafter(x, math.Inf(1)))
}

// TestQuantileRankErrorBound: every equi-depth boundary the sketch
// reports sits within N/bins true ranks of its target, for bins up to
// QuantileBinsMax, across all distributions and sizes up to 10^6.
func TestQuantileRankErrorBound(t *testing.T) {
	sizes := []int{100, 10000, 200000}
	if !testing.Short() {
		sizes = append(sizes, 1000000)
	}
	for _, n := range sizes {
		for name, vals := range quantileDistributions(n, int64(n)) {
			q := NewQuantile()
			for _, v := range vals {
				q.Add(v)
			}
			sorted := append([]float64(nil), vals...)
			sort.Float64s(sorted)
			for _, bins := range []int{10, QuantileBinsMax} {
				b := q.Bounds(bins)
				eb := bins
				if eb > n {
					eb = n
				}
				if len(b) != eb+1 {
					t.Fatalf("n=%d %s bins=%d: %d bounds", n, name, bins, len(b))
				}
				budget := float64(n) / float64(bins)
				for i := 1; i < len(b)-1; i++ {
					target := float64(i) * float64(n) / float64(eb)
					got := float64(trueRank(sorted, b[i]))
					// The boundary value's own duplicates can legitimately
					// carry its true rank past the target; measure the
					// nearest rank the value's occurrences cover.
					lo := float64(sort.SearchFloat64s(sorted, b[i]))
					err := 0.0
					switch {
					case target < lo:
						err = lo - target
					case target > got:
						err = target - got
					}
					if err > budget {
						t.Fatalf("n=%d %s bins=%d boundary %d (v=%g): rank error %.0f > budget %.0f",
							n, name, bins, i, b[i], err, budget)
					}
				}
				if b[0] != sorted[0] || b[len(b)-1] != sorted[n-1] {
					t.Fatalf("n=%d %s: end bounds %g..%g, want exact %g..%g",
						n, name, b[0], b[len(b)-1], sorted[0], sorted[n-1])
				}
			}
		}
	}
}

// TestQuantileBoundedMemory: level count grows logarithmically, level
// sizes stay under the cap — the O(cap·log(N/cap)) memory contract.
func TestQuantileBoundedMemory(t *testing.T) {
	q := NewQuantile()
	for i := 0; i < 1000000; i++ {
		q.Add(float64(i % 9973))
	}
	if len(q.levels) > 16 {
		t.Fatalf("%d levels for 10^6 inserts", len(q.levels))
	}
	for l, lv := range q.levels {
		if len(lv) > QuantileCap {
			t.Fatalf("level %d holds %d items, cap %d", l, len(lv), QuantileCap)
		}
	}
}

// TestHashDeterminism pins the hash function: repeated ANALYZE runs over
// the same data must feed the sketches the same hashes.
func TestHashDeterminism(t *testing.T) {
	if got := Hash64([]byte("lineitem")); got != Hash64([]byte("lineitem")) {
		t.Fatal("hash is not deterministic")
	}
	if Hash64([]byte("a")) == Hash64([]byte("b")) {
		t.Fatal("trivial collision")
	}
	// Register dispersion sanity: sequential ints should fill registers.
	h := NewHLL()
	var buf []byte
	for i := 0; i < 100000; i++ {
		buf = strconv.AppendInt(buf[:0], int64(i), 10)
		h.AddHash(Hash64(buf))
	}
	zeros := 0
	for _, r := range h.reg {
		if r == 0 {
			zeros++
		}
	}
	if zeros > hllM/100 {
		t.Fatalf("%d of %d registers untouched after 10^5 distinct keys", zeros, hllM)
	}
}

func BenchmarkSketchInsert(b *testing.B) {
	for _, kind := range []string{"hll", "countmin", "quantile"} {
		b.Run(kind, func(b *testing.B) {
			h, cm, q := NewHLL(), NewCountMin(), NewQuantile()
			var buf []byte
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				switch kind {
				case "hll":
					buf = strconv.AppendInt(buf[:0], int64(i), 10)
					h.AddHash(Hash64(buf))
				case "countmin":
					buf = strconv.AppendInt(buf[:0], int64(i), 10)
					cm.AddHash(Hash64(buf), 1)
				default:
					q.Add(float64(i))
				}
			}
		})
	}
}

var _ = fmt.Sprintf // keep fmt imported for debug scaffolding in failures
