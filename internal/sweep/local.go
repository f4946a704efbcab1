package sweep

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"nucasim/internal/sim"
	"nucasim/internal/telemetry"
)

// LocalOptions tunes RunLocal.
type LocalOptions struct {
	// CheckInvariants arms the structural checker on every adaptive run,
	// warmup included.
	CheckInvariants bool
	// Attach, when non-nil, supplies a group run's observability (trace
	// writer, span recorder, hooks). It is called once per group, just
	// before the group runs, with the group's longest point, and its
	// wiring observes that run, warmup included, as it would a cold run
	// of that point. A nil return runs the group with no telemetry: its
	// Results carry no epochs, counters, histograms or set stats. With
	// no Attach every group gets a bare config labelled with its longest
	// point, so epochs and counters land in the Result (matching what
	// nucaserve's job runner records).
	Attach func(p Point) *telemetry.Config
	// OnPoint observes each completed point: groups in plan order, the
	// members of a group in window order.
	OnPoint func(p Point, r sim.Result)
}

// LocalStats reports how a local sweep executed: how many warmups
// actually ran versus how many points shared one — the observable
// guarantees behind `make sweep-smoke` and BENCH_sweep.json.
type LocalStats struct {
	WarmupsRun int // warmup phases executed (one per group)
	Forked     int // points measured in a group of two or more
	Cold       int // points measured in a group of one
}

// RunLocal executes every point in-process, one run per fork group: it
// warms the group's longest point once (sim.NewWarmedMachine) and
// measures it in one MeasureWindows call over the members' windows,
// sorted, harvesting each member's Result on the way. A group of one is
// the same code and is its cold run. So a group run is the cold run of
// its longest point, and every Result is the one a cold run of its
// point returns, wall clock aside. Results come back in expansion
// order. The first error aborts the sweep.
func RunLocal(ctx context.Context, points []Point, opt LocalOptions) ([]sim.Result, LocalStats, error) {
	results := make([]sim.Result, len(points))
	var st LocalStats
	window := func(pi int) uint64 { return points[pi].Cfg.MeasureWindow() }
	for _, g := range Plan(points) {
		members := g.Points
		slices.SortStableFunc(members, func(a, b int) int { return cmp.Compare(window(a), window(b)) })
		windows := make([]uint64, len(members))
		for i, pi := range members {
			windows[i] = window(pi)
		}
		longest := points[members[len(members)-1]]
		cfg := longest.Cfg
		cfg.CheckInvariants = opt.CheckInvariants
		if opt.Attach != nil {
			cfg.Telemetry = opt.Attach(longest)
		} else {
			cfg.Telemetry = &telemetry.Config{Run: longest.Label}
		}
		m, err := sim.NewWarmedMachine(ctx, cfg, longest.Mix)
		if err != nil {
			return nil, st, fmt.Errorf("sweep: point %q: %w", longest.Label, err)
		}
		st.WarmupsRun++
		rs, err := m.MeasureWindows(ctx, windows)
		if err != nil {
			return nil, st, fmt.Errorf("sweep: point %q: %w", points[members[len(rs)]].Label, err)
		}
		if len(members) > 1 {
			st.Forked += len(members)
		} else {
			st.Cold++
		}
		for i, pi := range members {
			results[pi] = rs[i]
			if opt.OnPoint != nil {
				opt.OnPoint(points[pi], rs[i])
			}
		}
	}
	return results, st, nil
}
