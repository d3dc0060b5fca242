package obs

// Add adds n.
func (c *CCounter) Add(n int64) { c.v.Add(n) }

// Count returns the number of observations so far.
func (h *CHist) Count() int64 { return h.count.Load() }

// Mean returns the arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Counter reads a counter (0 when absent).
func (r *Registry) Counter(name string) float64 { return r.counters[name] }

// Hist returns the named histogram, or nil.
func (r *Registry) Hist(name string) *Histogram { return r.hists[name] }

// Classes lists the recorded operator classes in sorted order.
func (p *ClassProfile) Classes() []string { return sortedKeys(p.classes) }

// Get returns the accumulated breakdown for one operator class.
func (p *ClassProfile) Get(opClass string) Breakdown {
	if b := p.classes[opClass]; b != nil {
		return *b
	}
	return Breakdown{}
}

// Merge accumulates another profile into p, iterating classes in sorted
// order so repeated merges are deterministic.
func (p *ClassProfile) Merge(o *ClassProfile) {
	for _, class := range sortedKeys(o.classes) {
		p.Record(class, *o.classes[class])
	}
}
