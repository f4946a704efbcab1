package sweep

// Group is a set of points sharing one WarmupHash. A group of two or
// more members runs its warmup once and forks every member's
// measurement window from it: RunLocal measures the warmed machine on,
// and the server resumes the group's warmup checkpoint
// (sim.WarmupCheckpoint) — the fork-equivalence tests in internal/sim
// prove each forked result is bit-identical to a cold run, for every
// scheme. A group of one runs cold.
type Group struct {
	WarmupHash string
	// Points indexes the members in the expanded point slice, in
	// expansion order.
	Points []int
}

// Plan partitions points into warmup groups, preserving expansion
// order: groups appear in the order their first member does, members in
// expansion order within each group.
func Plan(points []Point) []Group {
	index := make(map[string]int)
	var groups []Group
	for i, p := range points {
		gi, ok := index[p.WarmupHash]
		if !ok {
			gi = len(groups)
			index[p.WarmupHash] = gi
			groups = append(groups, Group{WarmupHash: p.WarmupHash})
		}
		groups[gi].Points = append(groups[gi].Points, i)
	}
	return groups
}
