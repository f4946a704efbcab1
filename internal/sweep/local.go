package sweep

import (
	"context"
	"fmt"

	"nucasim/internal/sim"
	"nucasim/internal/telemetry"
)

// LocalOptions tunes RunLocal.
type LocalOptions struct {
	// CheckInvariants arms the structural checker on every adaptive run
	// (including the shared warmups).
	CheckInvariants bool
	// Attach, when non-nil, supplies per-point observability (trace
	// writer, span recorder, hooks). For forked points it is applied to
	// the measurement window only: the shared warmup belongs to the whole
	// group, so its events carry the group's warmup-hash label instead.
	Attach func(p Point) *telemetry.Config
	// OnPoint observes each completed point in completion order (groups
	// run in plan order, members in expansion order).
	OnPoint func(p Point, r sim.Result)
}

// LocalStats reports how a local sweep executed: how many warmups
// actually ran versus how many points forked one, the observable
// guarantee behind `make sweep-smoke` and BENCH_sweep.json.
type LocalStats struct {
	WarmupsRun int // warmup phases executed (one per group)
	Forked     int // points resumed from a shared warmup checkpoint
	Cold       int // points run end to end
}

// RunLocal executes every point in-process, sharing warmup within each
// fork group: warmup runs once per group (sim.WarmupCheckpoint), and
// each member's measurement window resumes from a struct copy of that
// one checkpoint with its own MeasureCycles (sim.ResumeFromCheckpoint
// never modifies its checkpoint). Results come back in expansion order.
// The first error aborts the sweep.
func RunLocal(ctx context.Context, points []Point, opt LocalOptions) ([]sim.Result, LocalStats, error) {
	results := make([]sim.Result, len(points))
	var st LocalStats
	for _, g := range Plan(points) {
		if !g.Fork {
			for _, pi := range g.Points {
				p := points[pi]
				cfg := p.Cfg
				cfg.CheckInvariants = opt.CheckInvariants
				cfg.Telemetry = opt.telemetryFor(p)
				r, err := sim.RunContext(ctx, cfg, p.Mix)
				if err != nil {
					return nil, st, fmt.Errorf("sweep: point %q: %w", p.Label, err)
				}
				st.WarmupsRun++
				st.Cold++
				results[pi] = r
				if opt.OnPoint != nil {
					opt.OnPoint(p, r)
				}
			}
			continue
		}

		warmCfg := points[g.Points[0]].Cfg
		warmCfg.CheckInvariants = opt.CheckInvariants
		// Telemetry must be live during warmup — the adaptive engine
		// repartitions (and records epochs) inside the timed warmup window,
		// and that state is part of the checkpoint a cold run would also
		// have accumulated. Process-local hooks stay off: they are not
		// checkpointable and the warmup belongs to every member at once.
		warmCfg.Telemetry = &telemetry.Config{Run: "warmup-" + g.WarmupHash[:12]}
		ck, err := sim.WarmupCheckpoint(ctx, warmCfg, points[g.Points[0]].Mix)
		if err != nil {
			return nil, st, fmt.Errorf("sweep: warmup group %.12s: %w", g.WarmupHash, err)
		}
		st.WarmupsRun++
		for _, pi := range g.Points {
			p := points[pi]
			fork := *ck
			fork.Cfg.MeasureCycles = p.Cfg.MeasureCycles
			want := opt.telemetryFor(p)
			r, err := sim.ResumeFromCheckpoint(ctx, &fork, func(c *telemetry.Config) bool {
				c.Run = want.Run
				c.TraceWriter = want.TraceWriter
				c.Spans = want.Spans
				c.SpanParent = want.SpanParent
				c.OnEpoch = want.OnEpoch
				c.OnProgress = want.OnProgress
				return true
			})
			if err != nil {
				return nil, st, fmt.Errorf("sweep: point %q: %w", p.Label, err)
			}
			st.Forked++
			results[pi] = r
			if opt.OnPoint != nil {
				opt.OnPoint(p, r)
			}
		}
	}
	return results, st, nil
}

// telemetryFor resolves a point's observability config, defaulting to a
// bare run-labelled config so epochs and counters always land in the
// Result (matching what nucaserve's job runner records).
func (opt LocalOptions) telemetryFor(p Point) *telemetry.Config {
	if opt.Attach != nil {
		if c := opt.Attach(p); c != nil {
			return c
		}
	}
	return &telemetry.Config{Run: p.Label}
}
