package crf

// WarmStartFrom copies into m every parameter of old whose feature also
// exists in m, matching observations by dictionary name. The §5.3
// maintenance loop retrains after adding a handful of labeled examples;
// warm-starting from the previous model's weights makes those retrains
// converge in a fraction of the iterations, because only the features the
// new examples introduce start from zero.
//
// Models must share NumStates; everything else (dictionary contents,
// transition gating) may differ.
func (m *Model) WarmStartFrom(old *Model) {
	if old == nil || old.cfg.NumStates != m.cfg.NumStates {
		return
	}
	n := m.cfg.NumStates

	// Bias and label-bigram blocks are position-compatible.
	copy(m.theta[m.biasBase:m.biasBase+n], old.theta[old.biasBase:old.biasBase+n])
	copy(m.theta[m.transBase:m.transBase+n*n], old.theta[old.transBase:old.transBase+n*n])

	// Emission and observation-conditioned transition blocks match by
	// observation name.
	for newID := 0; newID < m.dict.Len(); newID++ {
		oldID, ok := old.dict.ID(m.dict.Name(newID))
		if !ok {
			continue
		}
		copy(m.theta[newID*n:(newID+1)*n], old.theta[oldID*n:(oldID+1)*n])

		newRank := m.transRank[newID]
		oldRank := old.transRank[oldID]
		if newRank >= 0 && oldRank >= 0 {
			dst := m.tobsBase + newRank*n*n
			src := old.tobsBase + oldRank*n*n
			copy(m.theta[dst:dst+n*n], old.theta[src:src+n*n])
		}
	}
}
