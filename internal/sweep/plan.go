package sweep

// Group is a set of points sharing one WarmupHash. When Fork is set the
// group's warmup runs once and every member's measurement window forks
// from it: RunLocal measures the warmed machine on, and the server
// resumes the group's warmup checkpoint (sim.WarmupCheckpoint) — the
// fork-equivalence tests in internal/sim prove each forked result is
// bit-identical to a cold run.
type Group struct {
	WarmupHash string
	// Points indexes the members in the expanded point slice, in
	// expansion order.
	Points []int
	// Fork marks groups that actually share warmup: two or more members
	// on the adaptive scheme (the only organization with snapshot
	// support). Everything else runs cold.
	Fork bool
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
	for i := range groups {
		g := &groups[i]
		g.Fork = len(g.Points) > 1 &&
			points[g.Points[0]].Cfg.Scheme.Checkpointable()
	}
	return groups
}
