package vclock

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
