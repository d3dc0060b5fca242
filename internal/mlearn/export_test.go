package mlearn

// Converged reports whether the last Fit stopped by itself (no pair
// violating the KKT conditions by Tol or more was left, or a step could
// not move) and not because it ran into the iteration cap: MaxIter, or
// max(10000, 200 per row) by default. A capped fit is still a usable
// model, only not the optimum. False for a model that was loaded, not
// fitted.
func (s *SVR) Converged() bool { return s.lastIters < s.lastCap }
