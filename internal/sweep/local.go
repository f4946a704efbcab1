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
	// CheckInvariants arms the structural checker on every adaptive run
	// (including the shared warmups).
	CheckInvariants bool
	// Attach, when non-nil, supplies per-point observability (trace
	// writer, span recorder, hooks). For forked points it is applied to
	// the measurement window only: the shared warmup belongs to the whole
	// group, so its events carry the group's warmup-hash label instead.
	// It is called once per point, just before the point runs, except
	// in a fork group's chain, whose members are all resolved before it
	// runs. A forked point it gives a TraceWriter, Spans, OnEpoch or
	// OnProgress resumes on its own from the group's warmup checkpoint,
	// so that wiring sees its window alone; the first such point's
	// resolution is what captures the checkpoint.
	Attach func(p Point) *telemetry.Config
	// OnPoint observes each completed point in completion order. Groups
	// run in plan order. Within a fork group the members that resume on
	// their own complete first, in expansion order, then the chained
	// members, in window order, when the chain ends; the members of a
	// cold group complete in expansion order.
	OnPoint func(p Point, r sim.Result)
}

// LocalStats reports how a local sweep executed: how many warmups
// actually ran versus how many points forked one, and how many
// checkpoint restores the forks took — the observable guarantees behind
// `make sweep-smoke` and BENCH_sweep.json.
type LocalStats struct {
	WarmupsRun int // warmup phases executed (one per group)
	Forked     int // points measured from a shared warmup
	Cold       int // points run end to end
	// Restores counts checkpoint restores run: one per member that
	// resumes on its own, plus one for the group's chain when such a
	// member ran before it. A group whose members all chain restores
	// nothing.
	Restores int
}

// RunLocal executes every point in-process, sharing warmup within each
// fork group: warmup runs once per group (sim.NewWarmedMachine), and
// every member measures on the machine that ran it, through the steps
// sim.Machine.Capture, Restore and MeasureWindows. No member builds a
// machine.
//
// The members whose resolved telemetry config carries no process-local
// wiring (TraceWriter, Spans, OnEpoch and OnProgress all nil, as in the
// default config) form the group's chain: sorted by MeasureCycles, they
// run as one MeasureWindows call, harvested at each window on the way
// to the longest. Every other member restores the group's warmup
// checkpoint with its own wiring attached and measures its own window,
// so its trace, spans and hooks see that window alone. The checkpoint
// is captured only when Attach resolves the first such member, while
// the machine still stands at its warmup/measure boundary. When nothing
// was captured the chain measures the warmed machine straight on: it is
// the cold run, harvested at each window, and restores nothing. After a
// member has run, the chain first restores the checkpoint once. Every
// path returns the Result a cold run of the point would, wall clock
// aside, and none modifies the checkpoint. Results come back in
// expansion order. The first error aborts the sweep.
func RunLocal(ctx context.Context, points []Point, opt LocalOptions) ([]sim.Result, LocalStats, error) {
	results := make([]sim.Result, len(points))
	var st LocalStats
	done := func(pi int, r sim.Result) {
		results[pi] = r
		if opt.OnPoint != nil {
			opt.OnPoint(points[pi], r)
		}
	}
	for _, g := range Plan(points) {
		if len(g.Points) < 2 {
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
				done(pi, r)
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
		m, err := sim.NewWarmedMachine(ctx, warmCfg, points[g.Points[0]].Mix)
		if err != nil {
			return nil, st, fmt.Errorf("sweep: warmup group %.12s: %w", g.WarmupHash, err)
		}
		st.WarmupsRun++

		// A member with its own wiring resumes as soon as Attach has
		// resolved it, so spans its Attach opens time its run alone;
		// the chain runs when every member is resolved.
		var ck *sim.Checkpoint
		var chain []int
		for _, pi := range g.Points {
			p := points[pi]
			want := opt.telemetryFor(p)
			if want.TraceWriter == nil && want.Spans == nil && want.OnEpoch == nil && want.OnProgress == nil {
				chain = append(chain, pi)
				continue
			}
			if ck == nil {
				// No member has run yet: the machine is still at its
				// warmup/measure boundary.
				if ck, err = m.Capture(); err != nil {
					return nil, st, fmt.Errorf("sweep: warmup group %.12s: %w", g.WarmupHash, err)
				}
			}
			if err := m.Restore(ck, func(c *telemetry.Config) bool {
				c.Run = want.Run
				c.TraceWriter = want.TraceWriter
				c.Spans = want.Spans
				c.SpanParent = want.SpanParent
				c.OnEpoch = want.OnEpoch
				c.OnProgress = want.OnProgress
				return true
			}); err != nil {
				return nil, st, fmt.Errorf("sweep: point %q: %w", p.Label, err)
			}
			st.Restores++
			rs, err := m.MeasureWindows(ctx, []uint64{p.Cfg.MeasureWindow()})
			if err != nil {
				return nil, st, fmt.Errorf("sweep: point %q: %w", p.Label, err)
			}
			st.Forked++
			done(pi, rs[0])
		}
		if len(chain) == 0 {
			continue
		}
		window := func(pi int) uint64 { return points[pi].Cfg.MeasureWindow() }
		slices.SortStableFunc(chain, func(a, b int) int { return cmp.Compare(window(a), window(b)) })
		windows := make([]uint64, len(chain))
		for i, pi := range chain {
			windows[i] = window(pi)
		}
		// The chain keeps the warmup's telemetry config and run label:
		// without a trace, spans or hooks, nothing outside the run sees
		// the label, and the Results do not carry it.
		if ck != nil {
			// An unchained member has moved the machine on: put the
			// warmup back under it.
			if err := m.Restore(ck, nil); err != nil {
				return nil, st, fmt.Errorf("sweep: point %q: %w", points[chain[0]].Label, err)
			}
			st.Restores++
		}
		rs, err := m.MeasureWindows(ctx, windows)
		if err != nil {
			return nil, st, fmt.Errorf("sweep: point %q: %w", points[chain[len(rs)]].Label, err)
		}
		for i, pi := range chain {
			st.Forked++
			done(pi, rs[i])
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
