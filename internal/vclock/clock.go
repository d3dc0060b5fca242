// Package vclock is the virtual device model that stands in for the
// paper's real hardware (a commodity server with a cold buffer cache).
// The executor reports the work it performs — page reads, per-tuple CPU,
// decimal arithmetic, hashing, sorting, spills — and the clock converts it
// into simulated elapsed seconds using a disk/CPU device profile.
//
// The model deliberately reproduces the behaviours Section 5.3.2 of the
// paper identifies as the reasons simple analytical cost models mispredict
// latency:
//
//   - I/O–compute overlap: CPU work issued while a scan streams pages is
//     partially hidden behind the I/O (an "I/O credit" mechanism), whereas
//     analytical cost models add CPU and I/O linearly.
//   - Operator interactions: a buffer-cache simulation makes rescans of
//     already-read pages cheap within a query (cold across queries, per the
//     paper's cold-start protocol).
//   - Software numeric arithmetic: decimal operations cost a multiple of
//     integer operations, so aggregate-heavy queries become CPU-bound.
//   - Measurement noise: a small seeded log-normal perturbation per query.
//
// All times are deterministic for a given (device profile, query seed).
package vclock

import (
	"math"
	"math/rand"
)

// DeviceProfile holds the device constants, in seconds per unit of work.
type DeviceProfile struct {
	SeqPageRead  float64 // sequential page read (cold)
	RandPageRead float64 // random page read (cold)
	CachedPage   float64 // buffer-cache hit
	CPUTuple     float64 // per-tuple baseline processing
	CPUOp        float64 // per primitive expression operation
	NumericOp    float64 // per decimal (software numeric) operation
	HashOp       float64 // per hash-table insert/probe
	SortCompare  float64 // per sort comparison
	// OverlapFrac is the fraction of page-read time during which the CPU
	// can do useful pipelined work (0 = no overlap, 1 = perfect overlap).
	OverlapFrac float64
	// BufferPoolPages is the simulated buffer pool capacity in pages.
	BufferPoolPages int
	// WorkMemPages is the per-operator memory budget in pages; hash tables
	// and sorts larger than this spill, charging extra I/O.
	WorkMemPages int
	// NoiseSigma is the standard deviation of the per-query log-normal
	// perturbation applied to device speeds.
	NoiseSigma float64
}

// DefaultProfile models a commodity SATA-disk server of the paper's era:
// ~80 MB/s sequential reads, ~5 ms seeks, a slow software-numeric path.
func DefaultProfile() DeviceProfile {
	return DeviceProfile{
		SeqPageRead:     100e-6,  // 8 KiB / 80 MB/s
		RandPageRead:    5000e-6, // seek + rotate
		CachedPage:      1e-6,
		CPUTuple:        1.5e-6,
		CPUOp:           0.12e-6,
		NumericOp:       1.8e-6, // software numeric ≈ 15x an int op
		HashOp:          0.5e-6,
		SortCompare:     0.25e-6,
		OverlapFrac:     0.85,
		BufferPoolPages: 2048, // 16 MiB — ~1/10 of the "large" dataset, the
		// same data:buffer ratio as the paper's 10 GB DB / 1 GB pool
		WorkMemPages: 256, // 2 MiB, a PostgreSQL-8.4-era work_mem
		NoiseSigma:   0.06,
	}
}

// Clock accumulates virtual time for one query execution.
type Clock struct {
	prof DeviceProfile

	now      float64
	ioCredit float64 // CPU time hideable behind already-charged I/O

	buffer *bufferSim

	ioScale  float64 // per-query noise multipliers
	cpuScale float64

	// Totals for diagnostics and tests.
	IOTime       float64
	CPUTime      float64
	NumericTime  float64 // decimal-arithmetic share of CPUTime
	HiddenCPU    float64
	PagesRead    float64
	CacheHits    float64
	SpilledPages float64
}

// Totals is a monotone snapshot of a clock's accumulated device work. The
// observability layer (internal/obs) diffs two snapshots taken around an
// operator call to attribute the interval's work to that operator; every
// field only ever grows, so any two snapshots of the same clock are
// subtractable.
type Totals struct {
	Now         float64 // virtual seconds elapsed
	IOTime      float64 // seconds spent in (non-overlapped) page I/O
	CPUTime     float64 // CPU seconds charged (including hidden/overlapped)
	NumericTime float64 // decimal-arithmetic share of CPUTime
	HiddenCPU   float64 // CPU seconds hidden behind I/O overlap
	PagesRead   float64 // pages touched (cache hits included)
	CacheHits   float64 // buffer-cache hits
	SpillPages  float64 // pages written+read by work_mem spills
}

// Sub returns the component-wise difference t - o.
func (t Totals) Sub(o Totals) Totals {
	return Totals{
		Now:         t.Now - o.Now,
		IOTime:      t.IOTime - o.IOTime,
		CPUTime:     t.CPUTime - o.CPUTime,
		NumericTime: t.NumericTime - o.NumericTime,
		HiddenCPU:   t.HiddenCPU - o.HiddenCPU,
		PagesRead:   t.PagesRead - o.PagesRead,
		CacheHits:   t.CacheHits - o.CacheHits,
		SpillPages:  t.SpillPages - o.SpillPages,
	}
}

// Add returns the component-wise sum t + o.
func (t Totals) Add(o Totals) Totals {
	return Totals{
		Now:         t.Now + o.Now,
		IOTime:      t.IOTime + o.IOTime,
		CPUTime:     t.CPUTime + o.CPUTime,
		NumericTime: t.NumericTime + o.NumericTime,
		HiddenCPU:   t.HiddenCPU + o.HiddenCPU,
		PagesRead:   t.PagesRead + o.PagesRead,
		CacheHits:   t.CacheHits + o.CacheHits,
		SpillPages:  t.SpillPages + o.SpillPages,
	}
}

// NewClock builds a clock with a cold buffer cache. The seed drives the
// per-query noise; the same (profile, seed) always yields identical times.
func NewClock(prof DeviceProfile, seed int64) *Clock {
	rng := rand.New(rand.NewSource(seed))
	c := &Clock{
		prof:     prof,
		buffer:   newBufferSim(prof.BufferPoolPages),
		ioScale:  1,
		cpuScale: 1,
	}
	if prof.NoiseSigma > 0 {
		c.ioScale = math.Exp(rng.NormFloat64() * prof.NoiseSigma)
		c.cpuScale = math.Exp(rng.NormFloat64() * prof.NoiseSigma)
	}
	return c
}

// Now returns the current virtual time in seconds.
func (c *Clock) Now() float64 { return c.now }

// Totals snapshots the clock's accumulated work counters.
func (c *Clock) Totals() Totals {
	return Totals{
		Now:         c.now,
		IOTime:      c.IOTime,
		CPUTime:     c.CPUTime,
		NumericTime: c.NumericTime,
		HiddenCPU:   c.HiddenCPU,
		PagesRead:   c.PagesRead,
		CacheHits:   c.CacheHits,
		SpillPages:  c.SpilledPages,
	}
}

// Profile returns the device profile in use.
func (c *Clock) Profile() DeviceProfile { return c.prof }

// ReadPage charges one page read of the named table. Sequential reads are
// cheap; random (index-driven) reads pay a seek. Pages found in the
// simulated buffer cache cost only a hit. Returns true on a cache hit.
func (c *Clock) ReadPage(table string, pageNo int64, sequential bool) bool {
	c.PagesRead++
	if c.buffer.access(table, pageNo) {
		c.CacheHits++
		c.chargeCPURaw(c.prof.CachedPage)
		return true
	}
	t := c.prof.SeqPageRead
	if !sequential {
		t = c.prof.RandPageRead
	}
	t *= c.ioScale
	c.now += t
	c.IOTime += t
	c.ioCredit += t * c.prof.OverlapFrac
	return false
}

// SpillPages charges write+read I/O for pages spilled by a sort, hash
// join batch, or materialization that exceeds work_mem.
func (c *Clock) SpillPages(pages float64) {
	t := 2 * pages * c.prof.SeqPageRead * c.ioScale
	c.now += t
	c.IOTime += t
	c.SpilledPages += pages
	c.ioCredit += t * c.prof.OverlapFrac
}

// CPUTuples charges baseline per-tuple processing for n tuples; the work
// may hide behind outstanding I/O credit.
func (c *Clock) CPUTuples(n float64) { c.chargeCPU(n * c.prof.CPUTuple) }

// CPUOps charges expression evaluation work: ops primitive operations of
// which numericOps are decimal operations at the software-numeric rate.
// The decimal share is additionally tracked in NumericTime so the obs
// layer can attribute numeric work separately from plain CPU.
func (c *Clock) CPUOps(ops, numericOps float64) {
	c.NumericTime += numericOps * c.prof.NumericOp * c.cpuScale
	c.chargeCPU(ops*c.prof.CPUOp + numericOps*c.prof.NumericOp)
}

// HashOps charges n hash-table inserts or probes.
func (c *Clock) HashOps(n float64) { c.chargeCPU(n * c.prof.HashOp) }

// SortCompares charges n sort comparisons. Sorting is a blocking operation
// and does not overlap with upstream I/O.
func (c *Clock) SortCompares(n float64) { c.chargeCPURaw(n * c.prof.SortCompare) }

// Barrier marks a pipeline-breaking point (hash build done, sort done,
// materialization done): outstanding I/O credit cannot hide CPU work
// issued after it.
func (c *Clock) Barrier() { c.ioCredit = 0 }

// chargeCPU charges CPU time that may overlap with recent I/O.
func (c *Clock) chargeCPU(t float64) {
	t *= c.cpuScale
	c.CPUTime += t
	if c.ioCredit >= t {
		c.ioCredit -= t
		c.HiddenCPU += t
		return
	}
	rem := t - c.ioCredit
	c.HiddenCPU += c.ioCredit
	c.ioCredit = 0
	c.now += rem
}

// chargeCPURaw charges CPU time with no I/O overlap.
func (c *Clock) chargeCPURaw(t float64) {
	t *= c.cpuScale
	c.CPUTime += t
	c.now += t
}

// WorkMemPages exposes the spill threshold for operators.
func (c *Clock) WorkMemPages() int { return c.prof.WorkMemPages }

// bufferSim is an LRU page cache keyed by (table, page). Entries live in
// one slice linked by index, and both it and the map grow with the pages a
// query actually touches — most touch a few hundred of the pool's 2 048 —
// instead of one heap object per page and a map presized to the pool. A
// key is the table's index in tables above the page number (< 2⁴⁸), so
// the map hashes one word, not a string.
type bufferSim struct {
	capacity int
	tables   []string // names seen so far; a query touches a handful
	index    map[uint64]int32
	// entries[0] is the sentinel of a circular list: its next is the most
	// recently used page, its prev the least.
	entries []pageEntry
}

type pageEntry struct {
	key        uint64
	prev, next int32
}

func newBufferSim(capacity int) *bufferSim {
	return &bufferSim{capacity: max(capacity, 1), index: map[uint64]int32{}, entries: make([]pageEntry, 1, 16)}
}

func (b *bufferSim) key(table string, page int64) uint64 {
	t := 0
	for t < len(b.tables) && b.tables[t] != table {
		t++
	}
	if t == len(b.tables) {
		b.tables = append(b.tables, table)
	}
	return uint64(t)<<48 | uint64(page)
}

// access touches a page, returning true if it was cached; either way the
// page ends up most-recently-used.
func (b *bufferSim) access(table string, page int64) bool {
	k := b.key(table, page)
	if i, ok := b.index[k]; ok {
		b.unlink(i)
		b.pushFront(i)
		return true
	}
	var i int32
	if len(b.index) < b.capacity {
		i = int32(len(b.entries))
		b.entries = append(b.entries, pageEntry{})
	} else { // full: the least recently used page gives up its slot
		i = b.entries[0].prev
		b.unlink(i)
		delete(b.index, b.entries[i].key)
	}
	b.entries[i].key = k
	b.index[k] = i
	b.pushFront(i)
	return false
}

func (b *bufferSim) pushFront(i int32) {
	first := b.entries[0].next
	b.entries[i].prev, b.entries[i].next = 0, first
	b.entries[first].prev = i
	b.entries[0].next = i
}

func (b *bufferSim) unlink(i int32) {
	e := b.entries[i]
	b.entries[e.prev].next = e.next
	b.entries[e.next].prev = e.prev
}
