package opt

// Steps returns the total number of recorded merge steps.
func (t *JoinTrace) Steps() int {
	n := 0
	for _, b := range t.Blocks {
		n += len(b)
	}
	return n
}
