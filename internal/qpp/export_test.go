package qpp

// SelectedFeatures returns the chosen feature column indices.
func (pm *PlanModel) SelectedFeatures() []int { return append([]int(nil), pm.cols...) }
